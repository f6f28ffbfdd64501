//! Error type shared by the cryptographic primitives.

use core::fmt;

/// Errors produced by the crypto primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature failed verification (wrong key, tampered data, or
    /// malformed encoding — deliberately not distinguished).
    BadSignature,
    /// The key is too small for the requested padding.
    KeyTooSmall,
    /// A Diffie-Hellman peer value was degenerate or out of range.
    InvalidDhPublic,
    /// An authenticated decryption failed its tag check.
    BadMac,
    /// An internal invariant was violated (should never surface).
    Internal,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::KeyTooSmall => write!(f, "key too small for padding"),
            CryptoError::InvalidDhPublic => write!(f, "invalid Diffie-Hellman public value"),
            CryptoError::BadMac => write!(f, "message authentication check failed"),
            CryptoError::Internal => write!(f, "internal cryptographic invariant violated"),
        }
    }
}

impl std::error::Error for CryptoError {}
