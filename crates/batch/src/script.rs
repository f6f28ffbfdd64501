//! Vendor submit-script dialects.
//!
//! Each 1999 target system spoke its own batch language — exactly the
//! "system and site specific idiosyncrasies" UNICORE hides. The NJS's
//! translation tables (in `unicore-njs`) render abstract resources into
//! these dialects; this module knows what each dialect looks like so the
//! batch simulator can *validate* that a submitted script matches the
//! machine it was sent to.

use unicore_resources::Architecture;

/// Writes `n` in decimal onto `out`, zero-padded to at least `width`
/// digits — what `{n:0width$}` prints, without the formatting machinery
/// (every incarnated script carries three or five of these numbers).
fn push_decimal(out: &mut String, n: u64, width: usize) {
    let mut digits = [b'0'; 20]; // the 20 digits of u64::MAX
    let mut at = digits.len();
    let mut rest = n;
    while rest > 0 {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    at = at.min(digits.len() - width.clamp(1, digits.len()));
    out.push_str(core::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Writes the dialect's processor request for `n` processor elements
/// onto the end of `out` (one line, no newline). The NJS translation
/// tables incarnate through these writers; the `*_directive` functions
/// return the same text as a fresh `String`.
pub fn write_processors_directive(out: &mut String, arch: Architecture, n: u32) {
    out.push_str(match arch {
        Architecture::CrayT3e => "#QSUB -l mpp_p=",
        Architecture::FujitsuVpp700 => "#@$-q vpp -eo -lP ",
        Architecture::IbmSp2 => "#@ node = ",
        Architecture::NecSx4 => "#PBS -l cpunum_job=",
        Architecture::Generic => "#$ -pe mpi ",
    });
    push_decimal(out, u64::from(n), 1);
}

/// Writes the dialect's wall-clock limit of `secs` seconds onto `out`.
pub fn write_time_directive(out: &mut String, arch: Architecture, secs: u64) {
    out.push_str(match arch {
        Architecture::CrayT3e => "#QSUB -l mpp_t=",
        Architecture::FujitsuVpp700 => "#@$-lT ",
        Architecture::IbmSp2 => {
            out.push_str("#@ wall_clock_limit = ");
            push_decimal(out, secs / 3600, 2);
            out.push(':');
            push_decimal(out, (secs % 3600) / 60, 2);
            out.push(':');
            push_decimal(out, secs % 60, 2);
            return;
        }
        Architecture::NecSx4 => "#PBS -l elapstim_req=",
        Architecture::Generic => "#$ -l h_rt=",
    });
    push_decimal(out, secs, 1);
}

/// Writes the dialect's memory request of `mb` MB onto `out`.
pub fn write_memory_directive(out: &mut String, arch: Architecture, mb: u64) {
    let (before, after) = match arch {
        Architecture::CrayT3e => ("#QSUB -l mpp_m=", "mw"),
        Architecture::FujitsuVpp700 => ("#@$-lM ", "mb"),
        Architecture::IbmSp2 => ("#@ requirements = (Memory >= ", ")"),
        Architecture::NecSx4 => ("#PBS -l memsz_job=", "mb"),
        Architecture::Generic => ("#$ -l mem_free=", "M"),
    };
    out.push_str(before);
    push_decimal(out, mb, 1);
    out.push_str(after);
}

/// How the dialect spells a processor request.
pub fn processors_directive(arch: Architecture, n: u32) -> String {
    let mut line = String::new();
    write_processors_directive(&mut line, arch, n);
    line
}

/// How the dialect spells a wall-clock limit in seconds.
pub fn time_directive(arch: Architecture, secs: u64) -> String {
    let mut line = String::new();
    write_time_directive(&mut line, arch, secs);
    line
}

/// How the dialect spells a memory request in MB.
pub fn memory_directive(arch: Architecture, mb: u64) -> String {
    let mut line = String::new();
    write_memory_directive(&mut line, arch, mb);
    line
}

/// The dialect whose directive `line` (already left-trimmed) is, by its
/// *longest* matching directive prefix — `#QSUB` (T3E), `#@$` (VPP),
/// `#@` (SP-2), `#PBS` (SX-4), `#$` (Generic). Prefixes collide ("#@$"
/// for the VPP starts with the SP-2's "#@"), so "#@$" is tried before
/// "#@". `None` for a plain script line.
fn directive_dialect(line: &str) -> Option<Architecture> {
    match line.as_bytes() {
        [b'#', b'Q', b'S', b'U', b'B', ..] => Some(Architecture::CrayT3e),
        [b'#', b'@', b'$', ..] => Some(Architecture::FujitsuVpp700),
        [b'#', b'@', ..] => Some(Architecture::IbmSp2),
        [b'#', b'P', b'B', b'S', ..] => Some(Architecture::NecSx4),
        [b'#', b'$', ..] => Some(Architecture::Generic),
        _ => None,
    }
}

/// Checks that `script` plausibly targets `arch`: it must contain at least
/// one directive line with the machine's own prefix and no directive lines
/// from a different dialect.
pub fn script_matches_dialect(script: &str, arch: Architecture) -> bool {
    let mut saw_own = false;
    for line in script.lines() {
        match directive_dialect(line.trim_start()) {
            Some(a) if a == arch => saw_own = true,
            Some(_) => return false, // foreign directive: mistranslation
            None => {}               // plain script line
        }
    }
    saw_own
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The directive prefix each dialect uses (start of a directive line).
    fn directive_prefix(arch: Architecture) -> &'static str {
        match arch {
            Architecture::CrayT3e => "#QSUB",
            Architecture::FujitsuVpp700 => "#@$",
            Architecture::IbmSp2 => "#@",
            Architecture::NecSx4 => "#PBS",
            Architecture::Generic => "#$",
        }
    }

    #[test]
    fn prefixes_are_distinct() {
        let set: std::collections::HashSet<_> = Architecture::ALL
            .iter()
            .map(|a| directive_prefix(*a))
            .collect();
        assert_eq!(set.len(), Architecture::ALL.len());
    }

    #[test]
    fn directives_mention_values() {
        for arch in Architecture::ALL {
            assert!(processors_directive(arch, 128).contains("128"), "{arch:?}");
            assert!(memory_directive(arch, 512).contains("512"), "{arch:?}");
        }
        // SP-2 formats time as HH:MM:SS.
        assert!(time_directive(Architecture::IbmSp2, 3_661).contains("01:01:01"));
        assert!(time_directive(Architecture::CrayT3e, 60).contains("60"));
    }

    #[test]
    fn dialect_match_accepts_own() {
        for arch in Architecture::ALL {
            let script = format!(
                "{}\n{}\n./a.out\n",
                processors_directive(arch, 4),
                time_directive(arch, 600)
            );
            assert!(script_matches_dialect(&script, arch), "{arch:?}");
        }
    }

    #[test]
    fn dialect_match_rejects_foreign() {
        // A T3E (NQE) script sent to the SP-2 (LoadLeveler) must fail.
        let t3e_script = format!(
            "{}\n./a.out\n",
            processors_directive(Architecture::CrayT3e, 4)
        );
        assert!(!script_matches_dialect(&t3e_script, Architecture::IbmSp2));
        // And a plain script with no directives matches nothing.
        assert!(!script_matches_dialect("./a.out\n", Architecture::CrayT3e));
    }

    #[test]
    fn only_comment_lines_can_be_directives() {
        assert!(Architecture::ALL
            .iter()
            .all(|a| directive_prefix(*a).starts_with('#')));
        // The verdict of the scan over every line, for scripts mixing
        // plain, indented, commented and directive lines of each dialect.
        for own in Architecture::ALL {
            for other in Architecture::ALL {
                let script = format!(
                    "#!/bin/sh\n  {}\n\t# comment\n./a.out  #$ not a directive\n {}\n",
                    processors_directive(own, 4),
                    time_directive(other, 60)
                );
                for arch in Architecture::ALL {
                    assert_eq!(
                        script_matches_dialect(&script, arch),
                        reference::matches_dialect(&script, arch),
                        "{script:?} on {arch:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn vpp_script_not_misread_as_sp2() {
        // VPP's "#@$" starts with SP-2's "#@": a VPP script must not be
        // accepted by the VPP check *because of* the SP-2 prefix rules,
        // and an SP-2 check of a VPP script must reject.
        let vpp = format!(
            "{}\n./a.out\n",
            processors_directive(Architecture::FujitsuVpp700, 4)
        );
        assert!(script_matches_dialect(&vpp, Architecture::FujitsuVpp700));
    }

    /// The dialect module as it was written with `write!` and a
    /// longest-prefix search over every dialect: the writers and the
    /// classifier above must agree with it byte for byte and verdict for
    /// verdict.
    mod reference {
        use super::*;

        pub(super) fn processors(arch: Architecture, n: u32) -> String {
            match arch {
                Architecture::CrayT3e => format!("#QSUB -l mpp_p={n}"),
                Architecture::FujitsuVpp700 => format!("#@$-q vpp -eo -lP {n}"),
                Architecture::IbmSp2 => format!("#@ node = {n}"),
                Architecture::NecSx4 => format!("#PBS -l cpunum_job={n}"),
                Architecture::Generic => format!("#$ -pe mpi {n}"),
            }
        }

        pub(super) fn time(arch: Architecture, secs: u64) -> String {
            match arch {
                Architecture::CrayT3e => format!("#QSUB -l mpp_t={secs}"),
                Architecture::FujitsuVpp700 => format!("#@$-lT {secs}"),
                Architecture::IbmSp2 => {
                    let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
                    format!("#@ wall_clock_limit = {h:02}:{m:02}:{s:02}")
                }
                Architecture::NecSx4 => format!("#PBS -l elapstim_req={secs}"),
                Architecture::Generic => format!("#$ -l h_rt={secs}"),
            }
        }

        pub(super) fn memory(arch: Architecture, mb: u64) -> String {
            match arch {
                Architecture::CrayT3e => format!("#QSUB -l mpp_m={mb}mw"),
                Architecture::FujitsuVpp700 => format!("#@$-lM {mb}mb"),
                Architecture::IbmSp2 => format!("#@ requirements = (Memory >= {mb})"),
                Architecture::NecSx4 => format!("#PBS -l memsz_job={mb}mb"),
                Architecture::Generic => format!("#$ -l mem_free={mb}M"),
            }
        }

        pub(super) fn matches_dialect(script: &str, arch: Architecture) -> bool {
            let mut saw_own = false;
            for line in script.lines() {
                let line = line.trim_start();
                let best = Architecture::ALL
                    .iter()
                    .filter(|a| line.starts_with(directive_prefix(**a)))
                    .max_by_key(|a| directive_prefix(**a).len());
                match best {
                    Some(&a) if a == arch => saw_own = true,
                    Some(_) => return false,
                    None => {}
                }
            }
            saw_own
        }
    }

    #[test]
    fn writers_match_write_macro_byte_for_byte() {
        let mut values: Vec<u64> = vec![0, 1, 9, 10, 99, 100, 101, 999_999, u32::MAX as u64];
        values.extend([u32::MAX as u64 + 1, u64::MAX / 10, u64::MAX - 1, u64::MAX]);
        values.extend(
            (0..20)
                .map(|k| 10u64.pow(k))
                .chain((1..20).map(|k| 10u64.pow(k) - 1)),
        );
        for arch in Architecture::ALL {
            for &v in &values {
                assert_eq!(
                    memory_directive(arch, v),
                    reference::memory(arch, v),
                    "{arch:?}"
                );
                assert_eq!(
                    time_directive(arch, v),
                    reference::time(arch, v),
                    "{arch:?}"
                );
                let n = v.min(u32::MAX as u64) as u32;
                let got = processors_directive(arch, n);
                assert_eq!(got, reference::processors(arch, n), "{arch:?}");
                // The writers append: what was already there stays.
                let mut line = String::from("#!/bin/sh\n");
                write_processors_directive(&mut line, arch, n);
                assert_eq!(line, format!("#!/bin/sh\n{got}"));
            }
        }
        // The SP-2's hh:mm:ss across minute and hour boundaries, and
        // hours past two digits.
        for secs in (0..7_300).chain([35_999, 36_000, 359_999, 360_000, 86_399, 86_400]) {
            let arch = Architecture::IbmSp2;
            assert_eq!(
                time_directive(arch, secs),
                reference::time(arch, secs),
                "{secs}"
            );
        }
    }

    #[test]
    fn classifier_matches_longest_prefix_reference() {
        // Lines built from every prefix, its neighbours and their
        // truncations, with blanks and non-ASCII around them.
        let mut pieces: Vec<&str> = Architecture::ALL
            .iter()
            .map(|a| directive_prefix(*a))
            .collect();
        pieces.extend([
            "#", "#@", "#@$", "#Q", "#QSU", "#PB", "#$", "#@ $", "$", "@", "ü", "#ü",
        ]);
        pieces.extend([
            "", " ", "\t", "x", "#!", "##", "# ", "\u{a0}", "\u{2003}", "#@$$",
        ]);
        let mut rng = proptest::test_runner::TestRng::from_seed(7);
        for _ in 0..20_000 {
            let mut script = String::new();
            for _ in 0..rng.below(5) {
                for _ in 0..rng.below(4) {
                    script.push_str(pieces[rng.below(pieces.len() as u64) as usize]);
                }
                script.push_str(["\n", "\r\n", " run\n"][rng.below(3) as usize]);
            }
            for arch in Architecture::ALL {
                assert_eq!(
                    script_matches_dialect(&script, arch),
                    reference::matches_dialect(&script, arch),
                    "{script:?} on {arch:?}"
                );
            }
        }
    }
}
