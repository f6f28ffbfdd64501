//! X.500-style distinguished names.
//!
//! The user's certificate DN is the *unique UNICORE user identification*
//! (paper §4): the gateway maps it to a local login, so DNs must have a
//! stable canonical string form suitable as a database key.

use core::fmt;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// A distinguished name with the attribute set UNICORE uses.
///
/// The canonical rendering is
/// `C=<country>, O=<org>, OU=<unit>, CN=<common name>[, E=<email>]`,
/// mirroring the DFN-PCA conventions referenced by the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DistinguishedName {
    /// Country code, e.g. `DE`.
    pub country: String,
    /// Organisation, e.g. `Forschungszentrum Juelich`.
    pub organization: String,
    /// Organisational unit, e.g. `ZAM`.
    pub unit: String,
    /// Common name, e.g. `Mathilde Romberg` or a host name.
    pub common_name: String,
    /// Optional e-mail attribute.
    pub email: Option<String>,
}

impl DistinguishedName {
    /// Builds a person/host DN with the four mandatory attributes.
    pub fn new(
        country: impl Into<String>,
        organization: impl Into<String>,
        unit: impl Into<String>,
        common_name: impl Into<String>,
    ) -> Self {
        DistinguishedName {
            country: country.into(),
            organization: organization.into(),
            unit: unit.into(),
            common_name: common_name.into(),
            email: None,
        }
    }

    /// Adds the e-mail attribute.
    pub fn with_email(mut self, email: impl Into<String>) -> Self {
        self.email = Some(email.into());
        self
    }

    /// Parses the canonical `C=.., O=.., OU=.., CN=..[, E=..]` form.
    ///
    /// Attribute order is not significant on input; missing mandatory
    /// attributes yield `None`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut country = None;
        let mut organization = None;
        let mut unit = None;
        let mut common_name = None;
        let mut email = None;
        for part in s.split(',') {
            let part = part.trim();
            let (key, value) = part.split_once('=')?;
            let value = value.trim().to_string();
            match key.trim() {
                "C" => country = Some(value),
                "O" => organization = Some(value),
                "OU" => unit = Some(value),
                "CN" => common_name = Some(value),
                "E" => email = Some(value),
                _ => return None,
            }
        }
        Some(DistinguishedName {
            country: country?,
            organization: organization?,
            unit: unit?,
            common_name: common_name?,
            email,
        })
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C={}, O={}, OU={}, CN={}",
            self.country, self.organization, self.unit, self.common_name
        )?;
        if let Some(email) = &self.email {
            write!(f, ", E={email}")?;
        }
        Ok(())
    }
}

impl DerCodec for DistinguishedName {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.country);
            w.str(&self.organization);
            w.str(&self.unit);
            w.str(&self.common_name);
            if let Some(email) = &self.email {
                w.tagged(0, |w| w.str(email));
            }
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("DistinguishedName", |f| {
            Ok(DistinguishedName {
                country: f.next_string()?,
                organization: f.next_string()?,
                unit: f.next_string()?,
                common_name: f.next_string()?,
                email: f.optional_tagged(0, |t| t.next_string())?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistinguishedName {
        DistinguishedName::new("DE", "Forschungszentrum Juelich", "ZAM", "Mathilde Romberg")
            .with_email("m.romberg@fz-juelich.de")
    }

    #[test]
    fn display_canonical_form() {
        assert_eq!(
            sample().to_string(),
            "C=DE, O=Forschungszentrum Juelich, OU=ZAM, CN=Mathilde Romberg, \
             E=m.romberg@fz-juelich.de"
        );
    }

    #[test]
    fn parse_round_trip() {
        let dn = sample();
        assert_eq!(DistinguishedName::parse(&dn.to_string()).unwrap(), dn);
        let no_mail = DistinguishedName::new("DE", "RUS", "HPC", "host01");
        assert_eq!(
            DistinguishedName::parse(&no_mail.to_string()).unwrap(),
            no_mail
        );
    }

    #[test]
    fn parse_order_insensitive() {
        let dn = DistinguishedName::parse("CN=x, C=DE, OU=u, O=o").unwrap();
        assert_eq!(dn.common_name, "x");
        assert_eq!(dn.country, "DE");
    }

    #[test]
    fn parse_rejects_incomplete() {
        assert!(DistinguishedName::parse("CN=x, C=DE").is_none());
        assert!(DistinguishedName::parse("").is_none());
        assert!(DistinguishedName::parse("FOO=bar, CN=x, C=DE, OU=u, O=o").is_none());
        assert!(DistinguishedName::parse("no equals sign").is_none());
    }

    #[test]
    fn der_round_trip() {
        let dn = sample();
        assert_eq!(DistinguishedName::from_der(&dn.to_der()).unwrap(), dn);
        let plain = DistinguishedName::new("DE", "LRZ", "HLRB", "sr8000");
        assert_eq!(DistinguishedName::from_der(&plain.to_der()).unwrap(), plain);
    }

    #[test]
    fn distinct_dns_distinct_encodings() {
        let a = DistinguishedName::new("DE", "ZIB", "SC", "alice");
        let b = DistinguishedName::new("DE", "ZIB", "SC", "bob");
        assert_ne!(a.to_der(), b.to_der());
    }
}
