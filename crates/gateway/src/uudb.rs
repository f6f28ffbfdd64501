//! The UNICORE user database (UUDB).
//!
//! "With the X.509 user certificate being the uniform and unique UNICORE
//! user identification a mapping process has been implemented in the form
//! of a Java servlet which maps the user's distinguished name to the
//! corresponding user-id. Each UNICORE site administration therefore
//! maintains a user data base for the local mapping." (§5.2)
//!
//! The decisive property — the reason UNICORE needs no uniform uid/gid
//! across sites — is that each Usite's UUDB is independent: the same DN may
//! map to `romberg` at FZJ and `mr042` at RUS.

use std::collections::HashMap;
use unicore_codec::{require_ascending, CodecError, DerCodec, DerReader, DerWriter};

/// One user's entry at a Usite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserEntry {
    /// Login used on the site's Vsites by default.
    pub default_login: String,
    /// Vsite-specific overrides (Vsite name → login).
    pub vsite_logins: HashMap<String, String>,
    /// Account groups the user may charge.
    pub account_groups: Vec<String>,
    /// Disabled entries refuse all mapping (site ban).
    pub enabled: bool,
}

impl UserEntry {
    /// A simple enabled entry with one login and one account group.
    pub fn new(login: impl Into<String>, group: impl Into<String>) -> Self {
        UserEntry {
            default_login: login.into(),
            vsite_logins: HashMap::new(),
            account_groups: vec![group.into()],
            enabled: true,
        }
    }

    /// Adds a Vsite-specific login override.
    pub fn with_vsite_login(mut self, vsite: impl Into<String>, login: impl Into<String>) -> Self {
        self.vsite_logins.insert(vsite.into(), login.into());
        self
    }

    /// The login effective at `vsite`.
    pub fn login_for(&self, vsite: &str) -> &str {
        self.vsite_logins
            .get(vsite)
            .map(String::as_str)
            .unwrap_or(&self.default_login)
    }
}

/// Mapping failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// The DN has no entry in this site's UUDB.
    UnknownDn(String),
    /// The entry exists but is disabled.
    Disabled(String),
    /// The requested account group is not permitted for this user.
    BadAccountGroup {
        /// The DN.
        dn: String,
        /// The requested group.
        group: String,
    },
}

impl core::fmt::Display for MappingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MappingError::UnknownDn(dn) => write!(f, "no UUDB entry for {dn}"),
            MappingError::Disabled(dn) => write!(f, "UUDB entry for {dn} is disabled"),
            MappingError::BadAccountGroup { dn, group } => {
                write!(f, "{dn} may not charge account group {group}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// The per-Usite user database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Uudb {
    entries: HashMap<String, UserEntry>,
}

impl Uudb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the entry for `dn`.
    pub fn add(&mut self, dn: impl Into<String>, entry: UserEntry) {
        self.entries.insert(dn.into(), entry);
    }

    /// Removes the entry for `dn`.
    pub fn remove(&mut self, dn: &str) -> bool {
        self.entries.remove(dn).is_some()
    }

    /// Disables an entry in place (keeps history).
    pub fn disable(&mut self, dn: &str) -> bool {
        match self.entries.get_mut(dn) {
            Some(e) => {
                e.enabled = false;
                true
            }
            None => false,
        }
    }

    /// Looks up the raw entry.
    pub fn entry(&self, dn: &str) -> Option<&UserEntry> {
        self.entries.get(dn)
    }

    /// Maps a DN to the login effective at `vsite`, checking the account
    /// group when one is requested.
    pub fn map(
        &self,
        dn: &str,
        vsite: &str,
        account_group: Option<&str>,
    ) -> Result<MappedUser, MappingError> {
        let entry = self
            .entries
            .get(dn)
            .ok_or_else(|| MappingError::UnknownDn(dn.to_owned()))?;
        if !entry.enabled {
            return Err(MappingError::Disabled(dn.to_owned()));
        }
        let group = match account_group {
            Some(g) => {
                if !entry.account_groups.iter().any(|x| x == g) {
                    return Err(MappingError::BadAccountGroup {
                        dn: dn.to_owned(),
                        group: g.to_owned(),
                    });
                }
                g.to_owned()
            }
            None => entry
                .account_groups
                .first()
                .cloned()
                .unwrap_or_else(|| "users".to_owned()),
        };
        Ok(MappedUser {
            dn: dn.to_owned(),
            login: entry.login_for(vsite).to_owned(),
            account_group: group,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The result of a successful mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedUser {
    /// The certificate DN (the UNICORE identity).
    pub dn: String,
    /// The local login at the target Vsite.
    pub login: String,
    /// The account group to charge.
    pub account_group: String,
}

impl DerCodec for Uudb {
    fn write_der(&self, w: &mut DerWriter) {
        let mut entries: Vec<(&String, &UserEntry)> = self.entries.iter().collect();
        entries.sort_by_key(|(dn, _)| *dn);
        w.sequence_of(entries, |w, (dn, e)| {
            let mut vsites: Vec<(&String, &String)> = e.vsite_logins.iter().collect();
            vsites.sort();
            w.sequence(|w| {
                w.str(dn);
                w.str(&e.default_login);
                w.sequence_of(vsites, |w, (v, l)| {
                    w.sequence(|w| {
                        w.str(v);
                        w.str(l);
                    })
                });
                w.sequence_of(&e.account_groups, |w, g| w.str(g));
                w.bool(e.enabled);
            })
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        let entries = r.sequence_of("Uudb", |e| {
            e.sequence("UudbEntry", |f| {
                let dn = f.next_string()?;
                let default_login = f.next_string()?;
                let vsite_logins = f.sequence_of("vsite logins", |p| {
                    p.sequence("vsite login", |pf| {
                        Ok((pf.next_string()?, pf.next_string()?))
                    })
                })?;
                require_ascending(&vsite_logins, |(vsite, _)| vsite)?;
                let entry = UserEntry {
                    default_login,
                    vsite_logins: vsite_logins.into_iter().collect(),
                    account_groups: f.sequence_of("account groups", |g| g.next_string())?,
                    enabled: f.next_bool()?,
                };
                Ok((dn, entry))
            })
        })?;
        require_ascending(&entries, |(dn, _)| dn)?;
        Ok(Uudb {
            entries: entries.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=Mathilde Romberg";

    fn db() -> Uudb {
        let mut db = Uudb::new();
        db.add(
            DN,
            UserEntry::new("romberg", "zam").with_vsite_login("SP2", "mrom01"),
        );
        db
    }

    #[test]
    fn der_keys_must_ascend() {
        use unicore_codec::{decode, encode, Value};
        let mut db = Uudb::new();
        db.add(
            "CN=a",
            UserEntry::new("a", "g")
                .with_vsite_login("SP2", "a1")
                .with_vsite_login("T3E", "a2"),
        );
        db.add("CN=b", UserEntry::new("b", "g"));
        let der = db.to_der();
        assert_eq!(Uudb::from_der(&der).unwrap().to_der(), der);
        let Value::Sequence(entries) = decode(&der).unwrap() else {
            unreachable!()
        };
        // Entries out of DN order.
        let mut swapped = entries.clone();
        swapped.swap(0, 1);
        assert!(Uudb::from_der(&encode(&Value::Sequence(swapped))).is_err());
        // Vsite logins of one entry out of Vsite order.
        let mut inner = entries;
        let Value::Sequence(fields) = &mut inner[0] else {
            unreachable!()
        };
        let Value::Sequence(logins) = &mut fields[2] else {
            unreachable!()
        };
        logins.swap(0, 1);
        assert!(Uudb::from_der(&encode(&Value::Sequence(inner))).is_err());
    }

    #[test]
    fn maps_default_and_override() {
        let db = db();
        let m = db.map(DN, "T3E", None).unwrap();
        assert_eq!(m.login, "romberg");
        assert_eq!(m.account_group, "zam");
        let m2 = db.map(DN, "SP2", None).unwrap();
        assert_eq!(m2.login, "mrom01");
    }

    #[test]
    fn unknown_dn_fails() {
        let db = db();
        assert!(matches!(
            db.map("C=DE, O=X, OU=Y, CN=nobody", "T3E", None),
            Err(MappingError::UnknownDn(_))
        ));
    }

    #[test]
    fn disabled_entry_fails() {
        let mut db = db();
        assert!(db.disable(DN));
        assert!(matches!(
            db.map(DN, "T3E", None),
            Err(MappingError::Disabled(_))
        ));
        assert!(!db.disable("unknown"));
    }

    #[test]
    fn account_group_checked() {
        let db = db();
        assert!(db.map(DN, "T3E", Some("zam")).is_ok());
        assert!(matches!(
            db.map(DN, "T3E", Some("physics")),
            Err(MappingError::BadAccountGroup { .. })
        ));
    }

    #[test]
    fn same_dn_different_sites_different_logins() {
        // The paper's key site-autonomy property.
        let fzj = db();
        let mut rus = Uudb::new();
        rus.add(DN, UserEntry::new("mr042", "hpc"));
        let at_fzj = fzj.map(DN, "T3E", None).unwrap();
        let at_rus = rus.map(DN, "VPP", None).unwrap();
        assert_ne!(at_fzj.login, at_rus.login);
    }

    #[test]
    fn removal() {
        let mut db = db();
        assert!(db.remove(DN));
        assert!(!db.remove(DN));
        assert!(db.is_empty());
    }

    #[test]
    fn der_round_trip() {
        let mut db = db();
        db.add(
            "C=DE, O=ZIB, OU=SC, CN=alice",
            UserEntry {
                default_login: "alice1".into(),
                vsite_logins: HashMap::from([("T3E".into(), "ali".into())]),
                account_groups: vec!["sc".into(), "viz".into()],
                enabled: false,
            },
        );
        let back = Uudb::from_der(&db.to_der()).unwrap();
        assert_eq!(back, db);
    }
}
