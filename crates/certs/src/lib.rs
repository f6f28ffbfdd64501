//! # unicore-certs
//!
//! The X.509-style public-key infrastructure of the UNICORE reproduction.
//!
//! The paper's security architecture (§4, §5.2) authenticates every
//! "player" — user, server, and software — with X.509 certificates issued
//! by a CA following DFN-PCA guidelines. This crate implements that PKI on
//! top of `unicore-crypto` and `unicore-codec`:
//!
//! - [`dn`] — distinguished names (the *unique UNICORE user id*)
//! - [`cert`] — certificates, key usage, validity windows
//! - [`ca`] — certificate authority: issue / intermediate / revoke
//! - [`crl`] — signed revocation lists
//! - [`chain`] — trust store and chain validation
//! - [`software`] — signed software bundles (the "signed applets")

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod ca;
pub mod cert;
pub mod chain;
pub mod crl;
pub mod dn;
pub mod error;
pub mod software;

pub use ca::{CertificateAuthority, Identity};
pub use cert::{Certificate, KeyUsage, TbsCertificate, Validity};
pub use chain::{RequiredUsage, TrustStore, ValidatedCertificate};
pub use crl::CertificateRevocationList;
pub use dn::DistinguishedName;
pub use error::CertError;
pub use software::SignedSoftware;
