//! Differential tests: the dispatched CRC-32 path (the carry-less-multiply
//! kernel on CPUs that have one) against the table reference on the same
//! bytes, and the kernel's folding constants against their definition.
//!
//! On a CPU without `pclmulqdq` both sides are the table code; the tests
//! still run and say so once on stderr.

use proptest::prelude::*;
use unicore_store::crc::{crc32, crc32_table, kernel_name};

fn note_kernel() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| match kernel_name() {
        "table" => {
            eprintln!(
                "prop_crc32: no carry-less multiply on this CPU — both sides run the table code"
            )
        }
        kernel => eprintln!("prop_crc32: comparing the {kernel} kernel with the table reference"),
    });
}

/// Deterministic filler (a multiplicative hash of the index), so the
/// exhaustive length sweep needs no proptest case budget.
fn filler(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect()
}

#[test]
fn check_value_through_both_paths() {
    note_kernel();
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(crc32_table(b"123456789"), 0xcbf4_3926);
    // The check string is shorter than one fold; repeated past 64 and 128
    // bytes it reaches the kernel's wide and narrow loops and its tail.
    let long = b"123456789".repeat(23);
    assert_eq!(crc32(&long), crc32_table(&long));
    assert_eq!(crc32(&[]), 0);
}

/// Every length 0..=700 crosses the 64-byte entry threshold, the 64-byte
/// step, the 16-byte step and every tail length several times over.
#[test]
fn every_length_to_700_equals_table() {
    note_kernel();
    let data = filler(700 + 8);
    for skip in 0..8 {
        for len in 0..=700 {
            let slice = &data[skip..skip + len];
            assert_eq!(crc32(slice), crc32_table(slice), "skip {skip} len {len}");
        }
    }
}

proptest! {
    /// Any input up to 8 KiB at any of eight start offsets (which move the
    /// fold boundaries and the slice's alignment over the same bytes).
    #[test]
    fn any_bytes_at_any_offset_equal_table(
        data in proptest::collection::vec(any::<u8>(), 0..8192 + 8),
    ) {
        note_kernel();
        for skip in 0..8.min(data.len() + 1) {
            let slice = &data[skip..];
            prop_assert_eq!(crc32(slice), crc32_table(slice), "skip {}", skip);
        }
    }
}

/// The constants in `crc/x86.rs` re-derived from the polynomial by bitwise
/// long division — nothing here is copied from a paper or another library.
#[cfg(target_arch = "x86_64")]
mod constants {
    use unicore_store::crc::FOLD;

    /// The IEEE 802.3 generator, `x^32 + x^26 + … + 1`, bit `i` the
    /// coefficient of `x^i`.
    const P: u64 = 0x1_04c1_1db7;

    /// `x^n mod P`: start from 1, multiply by `x` `n` times, subtracting
    /// `P` whenever the degree reaches 32.
    fn x_pow_mod_p(n: u32) -> u64 {
        let mut r = 1u64;
        for _ in 0..n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= P;
            }
        }
        r
    }

    /// `⌊x^64 / P⌋` by schoolbook division: 33 quotient bits.
    fn x64_div_p() -> u64 {
        let mut rem: u128 = 1 << 64;
        let mut quotient = 0u64;
        for shift in (0..=32).rev() {
            if rem & (1u128 << (shift + 32)) != 0 {
                rem ^= (P as u128) << shift;
                quotient |= 1 << shift;
            }
        }
        assert!(rem < 1 << 32, "remainder has degree < 32");
        quotient
    }

    /// The low `bits` bits of `v` in reverse order.
    fn reflect(v: u64, bits: u32) -> u64 {
        v.reverse_bits() >> (64 - bits)
    }

    /// A 32-bit remainder as the reflected multiply wants it: reflected,
    /// then shifted left once.
    fn folding(n: u32) -> u64 {
        reflect(x_pow_mod_p(n), 32) << 1
    }

    #[test]
    fn fold_constants_match_their_definition() {
        assert_eq!(
            FOLD.fold_512,
            [folding(4 * 128 + 32), folding(4 * 128 - 32)]
        );
        assert_eq!(FOLD.fold_128, [folding(128 + 32), folding(128 - 32)]);
        assert_eq!(FOLD.fold_64, folding(64));
        assert_eq!(FOLD.poly, reflect(P, 33));
        assert_eq!(FOLD.mu, reflect(x64_div_p(), 33));
        // The table code's polynomial is the same one.
        assert_eq!(FOLD.poly >> 1, 0xedb8_8320);
    }
}
