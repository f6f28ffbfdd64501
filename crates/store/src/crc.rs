//! CRC-32 (IEEE 802.3 polynomial) behind a run-time kernel choice.
//!
//! Guards every WAL record against torn writes and bit rot. Kept local so
//! the store has no external dependencies.
//!
//! [`crc32`] resolves one update function per process, from the CPU's
//! reported features and never again:
//!
//! - on x86-64 CPUs with `pclmulqdq` + `sse4.1`, the carry-less-multiply
//!   folding kernel in the private `x86` module (64 bytes per step);
//! - everywhere else the slicing-by-8 table code, [`crc32_table`].
//!
//! Both produce the same checksum for the same bytes; [`kernel_name`] says
//! which one this process uses. There is no feature flag, environment
//! variable or build setting that selects a path. The table code is also
//! the reference the tests compare the kernel against
//! (`tests/prop_crc32.rs`), and what the kernel itself runs on inputs
//! shorter than one 64-byte fold and on the last few bytes of longer ones.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "x86_64")]
pub use x86::{FoldConstants, FOLD};

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets eight input bytes fold into the
/// running CRC with eight independent lookups.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advances the running (pre-inversion) CRC `state` over `data`.
type UpdateFn = fn(u32, &[u8]) -> u32;

/// The update function [`crc32`] dispatches to, with its name. Resolved
/// once per process.
fn kernel() -> (UpdateFn, &'static str) {
    static KERNEL: OnceLock<(UpdateFn, &'static str)> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if let Some(clmul) = x86::kernel() {
            return (clmul, "pclmulqdq");
        }
        (update_table, "table")
    })
}

/// Name of the update function [`crc32`] dispatches to in this process:
/// `"pclmulqdq"` or `"table"`.
pub fn kernel_name() -> &'static str {
    kernel().1
}

/// The CRC-32 of `data`, through the fastest update function the CPU
/// supports (see the module docs); same result as [`crc32_table`].
pub fn crc32(data: &[u8]) -> u32 {
    !(kernel().0)(u32::MAX, data)
}

/// The CRC-32 of `data` by the portable table code: the fallback on CPUs
/// without carry-less multiply and the reference the kernel is tested
/// against.
pub fn crc32_table(data: &[u8]) -> u32 {
    !update_table(u32::MAX, data)
}

/// Slicing-by-8 update: eight bytes per step, then byte at a time.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the sliced version replaced; kept as the
    /// reference it must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"the write-ahead log record payload";
        let good = crc32(data);
        let mut bad = data.to_vec();
        for i in 0..bad.len() {
            bad[i] ^= 1;
            assert_ne!(crc32(&bad), good, "flip at byte {i} undetected");
            bad[i] ^= 1;
        }
    }

    proptest! {
        #[test]
        fn sliced_equals_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4096 + 8),
        ) {
            // Every start offset 0..8 moves the 8-byte chunk boundaries
            // (and the buffer's alignment) relative to the same bytes.
            for skip in 0..8.min(data.len() + 1) {
                let slice = &data[skip..];
                prop_assert_eq!(crc32_table(slice), crc32_bytewise(slice));
            }
        }
    }
}
