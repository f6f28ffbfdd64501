//! The idempotency key a consign is remembered by.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A consign request's idempotency key: a SHA-256 digest the server
/// computes, or whatever bytes a journal holds for it.
///
/// A key of at most 32 bytes — every digest — is held inline, so making,
/// copying and dropping one touches no heap. A longer key, which only a
/// journal written by another program can hold, lives on the heap; it
/// replays and purges like any other. An `IdemKey` reads as the `[u8]` it
/// holds, and hashes and compares as that slice, so a table keyed by it
/// answers a lookup by `&[u8]`.
#[derive(Clone)]
pub struct IdemKey(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; IdemKey::INLINE],
    },
    Heap(Box<[u8]>),
}

impl IdemKey {
    /// The longest key held without a heap allocation: a SHA-256 digest.
    const INLINE: usize = 32;
}

impl Default for IdemKey {
    /// The empty key: the consign has none.
    fn default() -> Self {
        IdemKey::from(&[][..])
    }
}

impl From<&[u8]> for IdemKey {
    fn from(key: &[u8]) -> Self {
        if key.len() > Self::INLINE {
            return IdemKey(Repr::Heap(key.into()));
        }
        let mut bytes = [0; Self::INLINE];
        bytes[..key.len()].copy_from_slice(key);
        IdemKey(Repr::Inline {
            len: key.len() as u8,
            bytes,
        })
    }
}

impl From<[u8; IdemKey::INLINE]> for IdemKey {
    fn from(bytes: [u8; IdemKey::INLINE]) -> Self {
        IdemKey(Repr::Inline {
            len: Self::INLINE as u8,
            bytes,
        })
    }
}

impl Deref for IdemKey {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for IdemKey {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl PartialEq for IdemKey {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for IdemKey {}

impl Hash for IdemKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for IdemKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

    #[test]
    fn a_key_of_any_length_reads_hashes_and_finds_as_its_bytes() {
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        let lengths = [0, 1, 8, 31, 32, 33, 64, 300];
        let mut by_key = HashMap::new();
        for (n, len) in lengths.into_iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + n) as u8).collect();
            let key = IdemKey::from(&bytes[..]);
            assert_eq!(&*key, &bytes[..]);
            assert_eq!(matches!(key.0, Repr::Inline { .. }), len <= IdemKey::INLINE);
            assert_eq!(hasher.hash_one(&key), hasher.hash_one(&bytes[..]));
            assert_eq!(hasher.hash_one(&key), hasher.hash_one(&bytes));
            by_key.insert(key.clone(), n);
            assert_eq!(by_key.get(&bytes[..]), Some(&n));
        }
        assert_eq!(by_key.len(), lengths.len());
        assert_eq!(IdemKey::default(), IdemKey::from(&[][..]));
        assert!(IdemKey::default().is_empty());
        let digest = [0xa5; IdemKey::INLINE];
        assert_eq!(IdemKey::from(digest), IdemKey::from(&digest[..]));
        assert_eq!(format!("{:?}", IdemKey::from(&[1, 2][..])), "[1, 2]");
    }
}
