//! Vendor submit-script dialects.
//!
//! Each 1999 target system spoke its own batch language — exactly the
//! "system and site specific idiosyncrasies" UNICORE hides. The NJS's
//! translation tables (in `unicore-njs`) render abstract resources into
//! these dialects; this module knows what each dialect looks like so the
//! batch simulator can *validate* that a submitted script matches the
//! machine it was sent to.

use std::fmt::Write as _;
use unicore_resources::Architecture;

/// The directive prefix each dialect uses (start of a directive line).
pub(crate) fn directive_prefix(arch: Architecture) -> &'static str {
    match arch {
        Architecture::CrayT3e => "#QSUB",
        Architecture::FujitsuVpp700 => "#@$",
        Architecture::IbmSp2 => "#@",
        Architecture::NecSx4 => "#PBS",
        Architecture::Generic => "#$",
    }
}

/// Writes the dialect's processor request for `n` processor elements
/// onto the end of `out` (one line, no newline). The NJS translation
/// tables incarnate through these writers; the `*_directive` functions
/// return the same text as a fresh `String`.
pub fn write_processors_directive(out: &mut String, arch: Architecture, n: u32) {
    // Writing to a `String` cannot fail.
    let _ = match arch {
        Architecture::CrayT3e => write!(out, "#QSUB -l mpp_p={n}"),
        Architecture::FujitsuVpp700 => write!(out, "#@$-q vpp -eo -lP {n}"),
        Architecture::IbmSp2 => write!(out, "#@ node = {n}"),
        Architecture::NecSx4 => write!(out, "#PBS -l cpunum_job={n}"),
        Architecture::Generic => write!(out, "#$ -pe mpi {n}"),
    };
}

/// Writes the dialect's wall-clock limit of `secs` seconds onto `out`.
pub fn write_time_directive(out: &mut String, arch: Architecture, secs: u64) {
    let _ = match arch {
        Architecture::CrayT3e => write!(out, "#QSUB -l mpp_t={secs}"),
        Architecture::FujitsuVpp700 => write!(out, "#@$-lT {secs}"),
        Architecture::IbmSp2 => {
            let h = secs / 3600;
            let m = (secs % 3600) / 60;
            let s = secs % 60;
            write!(out, "#@ wall_clock_limit = {h:02}:{m:02}:{s:02}")
        }
        Architecture::NecSx4 => write!(out, "#PBS -l elapstim_req={secs}"),
        Architecture::Generic => write!(out, "#$ -l h_rt={secs}"),
    };
}

/// Writes the dialect's memory request of `mb` MB onto `out`.
pub fn write_memory_directive(out: &mut String, arch: Architecture, mb: u64) {
    let _ = match arch {
        Architecture::CrayT3e => write!(out, "#QSUB -l mpp_m={mb}mw"),
        Architecture::FujitsuVpp700 => write!(out, "#@$-lM {mb}mb"),
        Architecture::IbmSp2 => write!(out, "#@ requirements = (Memory >= {mb})"),
        Architecture::NecSx4 => write!(out, "#PBS -l memsz_job={mb}mb"),
        Architecture::Generic => write!(out, "#$ -l mem_free={mb}M"),
    };
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

/// Checks that `script` plausibly targets `arch`: it must contain at least
/// one directive line with the machine's own prefix and no directive lines
/// from a different dialect.
pub fn script_matches_dialect(script: &str, arch: Architecture) -> bool {
    let mut saw_own = false;
    for line in script.lines() {
        let line = line.trim_start();
        // Prefix collisions matter ("#@$" for the VPP starts with the
        // SP-2's "#@"), so classify each directive line by its *longest*
        // matching dialect prefix.
        let best = Architecture::ALL
            .iter()
            .filter(|a| line.starts_with(directive_prefix(**a)))
            .max_by_key(|a| directive_prefix(**a).len());
        match best {
            Some(&a) if a == arch => saw_own = true,
            Some(_) => return false, // foreign directive: mistranslation
            None => {}               // plain script line
        }
    }
    saw_own
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
