//! Identifiers used throughout the AJO and the UNICORE protocol.

use core::fmt;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// Identifies one action (task, sub-job, or service) within an AJO tree.
///
/// Unique within the enclosing top-level AJO; assigned by the JPA builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub u64);

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Globally identifies a consigned UNICORE job (assigned by the NJS that
/// first accepts it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    /// `J` and the number zero-padded to at least eight digits
    /// (`J00000042`), as `write!(f, "J{:08}", n)` would print it — laid
    /// out by hand, because every incarnated script names its job and the
    /// padding machinery costs more than the rest of that line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = [b'0'; 21]; // 'J' + the 20 digits of u64::MAX
        let mut at = text.len();
        let mut n = self.0;
        while n > 0 {
            at -= 1;
            text[at] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        at = at.min(text.len() - 8) - 1;
        text[at] = b'J';
        f.write_str(core::str::from_utf8(&text[at..]).expect("ASCII"))
    }
}

/// Addresses a virtual site: the Usite (computer centre) and the Vsite
/// (systems sharing a data space) within it — paper §4.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VsiteAddress {
    /// The UNICORE site (e.g. `"FZJ"`).
    pub usite: String,
    /// The virtual site within it (e.g. `"T3E"`).
    pub vsite: String,
}

impl VsiteAddress {
    /// Builds an address.
    pub fn new(usite: impl Into<String>, vsite: impl Into<String>) -> Self {
        VsiteAddress {
            usite: usite.into(),
            vsite: vsite.into(),
        }
    }
}

impl fmt::Display for VsiteAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.usite, self.vsite)
    }
}

impl DerCodec for VsiteAddress {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.usite);
            w.str(&self.vsite);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("VsiteAddress", |f| {
            Ok(VsiteAddress {
                usite: f.next_string()?,
                vsite: f.next_string()?,
            })
        })
    }
}

/// The job's user attributes carried in the AJO: the certificate DN (the
/// unique UNICORE identity), the account group to bill, and optional
/// site-specific security data (smart card / DCE hooks, paper §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserAttributes {
    /// Canonical distinguished-name string of the user certificate.
    pub dn: String,
    /// Account group at the destination site.
    pub account_group: String,
    /// Opaque site-specific authentication payload.
    pub site_security: Option<Vec<u8>>,
}

impl UserAttributes {
    /// Builds user attributes without site-specific data.
    pub fn new(dn: impl Into<String>, account_group: impl Into<String>) -> Self {
        UserAttributes {
            dn: dn.into(),
            account_group: account_group.into(),
            site_security: None,
        }
    }
}

impl DerCodec for UserAttributes {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.dn);
            w.str(&self.account_group);
            if let Some(sec) = &self.site_security {
                w.tagged(0, |w| w.bytes(sec));
            }
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("UserAttributes", |f| {
            Ok(UserAttributes {
                dn: f.next_string()?,
                account_group: f.next_string()?,
                site_security: f.optional_tagged(0, |t| Ok(t.next_bytes()?.to_vec()))?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ActionId(3).to_string(), "a3");
        assert_eq!(JobId(42).to_string(), "J00000042");
        assert_eq!(VsiteAddress::new("FZJ", "T3E").to_string(), "FZJ/T3E");
    }

    #[test]
    fn job_id_prints_as_the_padded_format_would() {
        let mut n = 1u64;
        let mut samples = vec![0, 7, 42, 99_999_999, 100_000_000, u64::MAX];
        while n < u64::MAX / 11 {
            samples.extend([n - 1, n, n + 1]);
            n = n * 10 + n % 7;
        }
        for n in samples {
            assert_eq!(JobId(n).to_string(), format!("J{n:08}"));
        }
    }

    #[test]
    fn vsite_round_trip() {
        let v = VsiteAddress::new("LRZ", "SP2");
        assert_eq!(VsiteAddress::from_der(&v.to_der()).unwrap(), v);
    }

    #[test]
    fn user_attributes_round_trip() {
        let plain = UserAttributes::new("C=DE, O=FZJ, OU=ZAM, CN=alice", "proj42");
        assert_eq!(UserAttributes::from_der(&plain.to_der()).unwrap(), plain);
        let mut with_sec = plain.clone();
        with_sec.site_security = Some(vec![1, 2, 3]);
        assert_eq!(
            UserAttributes::from_der(&with_sec.to_der()).unwrap(),
            with_sec
        );
    }
}
