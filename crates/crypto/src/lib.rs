//! # unicore-crypto
//!
//! From-scratch cryptographic primitives for the UNICORE reproduction:
//! arbitrary-precision arithmetic, SHA-256, HMAC/HKDF, ChaCha20, RSA
//! signatures, finite-field Diffie-Hellman, and a deterministic CSPRNG.
//!
//! The 1999 UNICORE system rested on https/SSL with X.509 certificates
//! (section 5.2 of the paper). The workspace's allowed dependency set has no
//! cryptography crates, so this crate implements the primitives those
//! protocols need. The implementations follow the published algorithms and
//! pass the standard test vectors, but they are **not hardened against
//! side channels** beyond constant-time MAC comparison — this is a research
//! reproduction, not a security product.
//!
//! Module map:
//! - [`bignum`] — `BigUint` with Knuth division, and the in-place
//!   `Montgomery` kernel under `modpow`
//! - `prime` — Miller–Rabin and prime generation (crate-private: RSA key
//!   generation is its one caller)
//! - [`rsa`] — key generation, PKCS#1-style sign/verify
//! - [`dh`] — classic Diffie-Hellman (Oakley Group 2)
//! - [`mod@sha256`], [`hmac`] — digest, MAC, HKDF. The digest's compression
//!   function is chosen once per process from the CPU's reported features:
//!   the SHA-NI kernel in the private `sha256::x86` module on x86-64 CPUs
//!   with `sha` + `sse4.1` + `ssse3`, the portable scalar function
//!   everywhere else (and as the tests' reference)
//! - [`chacha20`] — stream cipher for record protection. Whole blocks go,
//!   in place, to a function chosen the same way: the AVX2 kernel in the
//!   private `chacha20::x86` module on x86-64 CPUs with `avx2`, one scalar
//!   `block()` per block everywhere else (and as the tests' reference)
//! - [`rng`] — deterministic ChaCha-based CSPRNG
//! - [`ct`] — constant-time comparison

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// `deny`, not the workspace's usual `forbid`: `sha256::x86` and
// `chacha20::x86` — the hardware kernels, the two modules allowed `unsafe`
// — opt out with an inner `allow`.
#![deny(unsafe_code)]

pub mod bignum;
pub mod chacha20;
pub mod ct;
pub mod dh;
pub mod error;
pub mod hmac;
mod prime;
pub mod rng;
pub mod rsa;
pub mod sha256;

pub use bignum::BigUint;
pub use chacha20::ChaCha20;
pub use ct::ct_eq;
pub use dh::{DhEphemeral, DhGroup};
pub use error::CryptoError;
pub use hmac::{hkdf_expand, hkdf_extract, hmac_sha256, HmacSha256};
pub use rng::CryptoRng;
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha256::{sha256, Sha256};
