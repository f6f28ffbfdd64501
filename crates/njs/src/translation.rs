//! Translation tables: abstract specifications → local nomenclature.
//!
//! "The UNICORE site administrator together with the Vsite system
//! administrator establishes the environment for running UNICORE. This
//! includes setting up the translation tables for the translation of the
//! abstract job into the real batch job" (§5.5). A [`TranslationTable`]
//! holds exactly those site-configured mappings; [`incarnate_execute`]
//! applies them to produce a vendor submit script.

use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use unicore_ajo::{ExecuteKind, ResourceRequest};
use unicore_batch::script::{
    write_memory_directive, write_processors_directive, write_time_directive,
};
use unicore_codec::{require_ascending, CodecError, DerCodec, DerReader, DerWriter};
use unicore_resources::Architecture;

/// Per-Vsite translation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationTable {
    /// Target architecture (selects the directive dialect).
    pub arch: Architecture,
    /// Batch queue jobs are submitted to.
    pub queue: String,
    /// Abstract compiler option → concrete flag (e.g. `"O3"` → `"-O3"`).
    pub compiler_options: HashMap<String, String>,
    /// Abstract library name → concrete linker argument.
    pub libraries: HashMap<String, String>,
    /// Template for the job working directory; `{job}` is substituted.
    pub workdir_template: String,
}

impl TranslationTable {
    /// The stock table a site administrator would start from for `arch`.
    pub fn for_architecture(arch: Architecture) -> Self {
        let mut compiler_options = HashMap::new();
        let mut libraries = HashMap::new();
        // Abstract names on the left are what the JPA lets users say;
        // right-hand sides are each machine's own spelling.
        match arch {
            Architecture::CrayT3e => {
                compiler_options.insert("O2".into(), "-O2".into());
                compiler_options.insert("O3".into(), "-O3,unroll2".into());
                compiler_options.insert("debug".into(), "-g".into());
                libraries.insert("blas".into(), "-lsci".into());
                libraries.insert("mpi".into(), "-lmpi".into());
            }
            Architecture::FujitsuVpp700 => {
                compiler_options.insert("O2".into(), "-Kfast".into());
                compiler_options.insert("O3".into(), "-Kfast,parallel".into());
                compiler_options.insert("debug".into(), "-g".into());
                libraries.insert("blas".into(), "-lssl2vp".into());
                libraries.insert("mpi".into(), "-lmpi".into());
            }
            Architecture::IbmSp2 => {
                compiler_options.insert("O2".into(), "-O2".into());
                compiler_options.insert("O3".into(), "-O3 -qhot".into());
                compiler_options.insert("debug".into(), "-g".into());
                libraries.insert("blas".into(), "-lessl".into());
                libraries.insert("mpi".into(), "-lmpci".into());
            }
            Architecture::NecSx4 => {
                compiler_options.insert("O2".into(), "-C opt".into());
                compiler_options.insert("O3".into(), "-C hopt".into());
                compiler_options.insert("debug".into(), "-C debug".into());
                libraries.insert("blas".into(), "-lblas_sx".into());
                libraries.insert("mpi".into(), "-lmpi_sx".into());
            }
            Architecture::Generic => {
                compiler_options.insert("O2".into(), "-O2".into());
                compiler_options.insert("O3".into(), "-O3".into());
                compiler_options.insert("debug".into(), "-g".into());
                libraries.insert("blas".into(), "-lblas".into());
                libraries.insert("mpi".into(), "-lmpich".into());
            }
        }
        TranslationTable {
            arch,
            queue: "batch".into(),
            compiler_options,
            libraries,
            workdir_template: "/unicore/uspace/{job}".into(),
        }
    }

    /// Translates an abstract compiler option (unknown options pass
    /// through prefixed with `-`, the common convention).
    pub fn option(&self, abstract_name: &str) -> String {
        let mut flag = String::new();
        write_translated(&mut flag, &self.compiler_options, "-", abstract_name);
        flag
    }

    /// Translates an abstract library name.
    pub fn library(&self, abstract_name: &str) -> String {
        let mut flag = String::new();
        write_translated(&mut flag, &self.libraries, "-l", abstract_name);
        flag
    }

    /// Writes the job's working directory onto `out`: the template with
    /// every `{job}` replaced by `job`, left to right (what `job` prints
    /// as is never looked at again, so a job name may itself contain
    /// `{job}`). A placeholder can only start at a `{`, so those are the
    /// only places examined.
    fn write_workdir(&self, out: &mut String, job: impl Display) {
        const PLACEHOLDER: &str = "{job}";
        let mut rest = self.workdir_template.as_str();
        while let Some(brace) = rest.find('{') {
            let (before, from_brace) = rest.split_at(brace);
            out.push_str(before);
            match from_brace.strip_prefix(PLACEHOLDER) {
                Some(after) => {
                    // Writing to a `String` cannot fail.
                    let _ = write!(out, "{job}");
                    rest = after;
                }
                None => {
                    out.push('{');
                    rest = &from_brace[1..];
                }
            }
        }
        out.push_str(rest);
    }
}

/// Writes `name`'s native spelling from `map` onto `out`; a name the
/// table does not know passes through behind `prefix`.
fn write_translated(out: &mut String, map: &HashMap<String, String>, prefix: &str, name: &str) {
    match map.get(name) {
        Some(native) => out.push_str(native),
        None => {
            out.push_str(prefix);
            out.push_str(name);
        }
    }
}

/// Renders the vendor submit script for an execute-style task.
///
/// This is the heart of "seamlessness": the same [`ExecuteKind`] yields a
/// different — but semantically equivalent — script on every architecture.
pub fn incarnate_execute(
    table: &TranslationTable,
    kind: &ExecuteKind,
    resources: &ResourceRequest,
    login: &str,
    job_name: impl Display,
) -> String {
    incarnate_execute_in_queue(table, kind, resources, login, job_name, &table.queue)
}

/// Like [`incarnate_execute`], with an explicit destination queue name
/// (the NJS passes the queue class it selected).
///
/// Every line is written straight into the one script buffer; the
/// directive lines come from the dialect module's own writers, so the
/// batch tier's `script_matches_dialect` check and this function cannot
/// drift apart.
pub fn incarnate_execute_in_queue(
    table: &TranslationTable,
    kind: &ExecuteKind,
    resources: &ResourceRequest,
    login: &str,
    job_name: impl Display,
    queue: &str,
) -> String {
    let arch = table.arch;
    let mut script = String::with_capacity(512);
    script.push_str("#!/bin/sh\n");
    write_processors_directive(&mut script, arch, resources.processors);
    script.push('\n');
    write_time_directive(&mut script, arch, resources.run_time_secs);
    script.push('\n');
    write_memory_directive(&mut script, arch, resources.memory_mb);
    // Writing to a `String` cannot fail.
    let _ = write!(script, "\n# queue: {queue}  user: {login}\ncd ");
    table.write_workdir(&mut script, job_name);
    script.push('\n');

    match kind {
        ExecuteKind::User {
            executable,
            arguments,
            environment,
        } => {
            for (k, v) in environment {
                let _ = writeln!(script, "{k}={v} export {k}");
            }
            script.push_str("./");
            script.push_str(executable);
            for arg in arguments {
                script.push(' ');
                script.push_str(arg);
            }
            script.push('\n');
        }
        ExecuteKind::Script { script: body } => {
            script.push_str(body);
            if !body.ends_with('\n') {
                script.push('\n');
            }
        }
        ExecuteKind::Compile {
            sources,
            options,
            output,
        } => {
            script.push_str(arch.f90_compiler());
            for opt in options {
                script.push(' ');
                write_translated(&mut script, &table.compiler_options, "-", opt);
            }
            script.push_str(" -c");
            for src in sources {
                script.push(' ');
                script.push_str(src);
            }
            script.push_str(" -o ");
            script.push_str(output);
            script.push('\n');
        }
        ExecuteKind::Link {
            objects,
            libraries,
            output,
        } => {
            script.push_str(arch.f90_compiler());
            for obj in objects {
                script.push(' ');
                script.push_str(obj);
            }
            for lib in libraries {
                script.push(' ');
                write_translated(&mut script, &table.libraries, "-l", lib);
            }
            script.push_str(" -o ");
            script.push_str(output);
            script.push('\n');
        }
    }
    script
}

/// Writes a name → native-spelling map as key-sorted pairs.
fn write_pairs(w: &mut DerWriter, map: &HashMap<String, String>) {
    let mut pairs: Vec<(&String, &String)> = map.iter().collect();
    pairs.sort();
    w.sequence_of(pairs, |w, (k, v)| {
        w.sequence(|w| {
            w.str(k);
            w.str(v);
        })
    });
}

fn read_pairs(r: &mut DerReader<'_>) -> Result<HashMap<String, String>, CodecError> {
    let pairs = r.sequence_of("translation pairs", |p| {
        p.sequence("translation pair", |pf| {
            Ok((pf.next_string()?, pf.next_string()?))
        })
    })?;
    require_ascending(&pairs, |(k, _)| k)?;
    Ok(pairs.into_iter().collect())
}

impl DerCodec for TranslationTable {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            self.arch.write_der(w);
            w.str(&self.queue);
            write_pairs(w, &self.compiler_options);
            write_pairs(w, &self.libraries);
            w.str(&self.workdir_template);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("TranslationTable", |f| {
            Ok(TranslationTable {
                arch: Architecture::read_der(f)?,
                queue: f.next_string()?,
                compiler_options: read_pairs(f)?,
                libraries: read_pairs(f)?,
                workdir_template: f.next_string()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_batch::script_matches_dialect;

    fn resources() -> ResourceRequest {
        ResourceRequest::minimal()
            .with_processors(64)
            .with_run_time(3_600)
            .with_memory(2_048)
    }

    #[test]
    fn compile_task_uses_native_compiler() {
        let kind = ExecuteKind::Compile {
            sources: vec!["main.f90".into()],
            options: vec!["O3".into()],
            output: "main.o".into(),
        };
        let t3e = incarnate_execute(
            &TranslationTable::for_architecture(Architecture::CrayT3e),
            &kind,
            &resources(),
            "alice1",
            "J1",
        );
        assert!(
            t3e.contains("f90 -O3,unroll2 -c main.f90 -o main.o"),
            "{t3e}"
        );
        let sp2 = incarnate_execute(
            &TranslationTable::for_architecture(Architecture::IbmSp2),
            &kind,
            &resources(),
            "alice1",
            "J1",
        );
        assert!(
            sp2.contains("xlf90 -O3 -qhot -c main.f90 -o main.o"),
            "{sp2}"
        );
    }

    #[test]
    fn link_task_translates_libraries() {
        let kind = ExecuteKind::Link {
            objects: vec!["main.o".into()],
            libraries: vec!["blas".into(), "mpi".into()],
            output: "model".into(),
        };
        let sx4 = incarnate_execute(
            &TranslationTable::for_architecture(Architecture::NecSx4),
            &kind,
            &resources(),
            "u",
            "J1",
        );
        assert!(sx4.contains("-lblas_sx"), "{sx4}");
        assert!(sx4.contains("-lmpi_sx"), "{sx4}");
        let t3e = incarnate_execute(
            &TranslationTable::for_architecture(Architecture::CrayT3e),
            &kind,
            &resources(),
            "u",
            "J1",
        );
        assert!(t3e.contains("-lsci"), "{t3e}"); // BLAS is libsci on the T3E
    }

    #[test]
    fn scripts_carry_resource_directives_in_dialect() {
        let kind = ExecuteKind::Script {
            script: "./run_model\n".into(),
        };
        for arch in Architecture::ALL {
            let s = incarnate_execute(
                &TranslationTable::for_architecture(arch),
                &kind,
                &resources(),
                "u",
                "J9",
            );
            assert!(script_matches_dialect(&s, arch), "{arch:?}:\n{s}");
            assert!(s.contains("64"), "{arch:?} missing proc count");
            assert!(s.contains("cd /unicore/uspace/J9"), "{arch:?}");
        }
    }

    #[test]
    fn same_abstract_task_differs_across_architectures() {
        let kind = ExecuteKind::Compile {
            sources: vec!["a.f90".into()],
            options: vec!["O2".into()],
            output: "a.o".into(),
        };
        let scripts: Vec<String> = Architecture::ALL
            .iter()
            .map(|&arch| {
                incarnate_execute(
                    &TranslationTable::for_architecture(arch),
                    &kind,
                    &resources(),
                    "u",
                    "J1",
                )
            })
            .collect();
        // Pairwise distinct: every architecture gets its own incarnation.
        for i in 0..scripts.len() {
            for j in i + 1..scripts.len() {
                assert_ne!(scripts[i], scripts[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn user_task_exports_environment() {
        let kind = ExecuteKind::User {
            executable: "solver".into(),
            arguments: vec!["--n".into(), "100".into()],
            environment: vec![("OMP_NUM_THREADS".into(), "8".into())],
        };
        let s = incarnate_execute(
            &TranslationTable::for_architecture(Architecture::Generic),
            &kind,
            &resources(),
            "u",
            "J1",
        );
        assert!(s.contains("OMP_NUM_THREADS=8 export OMP_NUM_THREADS"));
        assert!(s.contains("./solver --n 100"));
    }

    #[test]
    fn unknown_abstractions_pass_through() {
        let t = TranslationTable::for_architecture(Architecture::Generic);
        assert_eq!(t.option("fastmath"), "-fastmath");
        assert_eq!(t.library("hdf5"), "-lhdf5");
    }

    #[test]
    fn der_pairs_must_ascend() {
        use unicore_codec::{decode, encode, Value};
        let t = TranslationTable::for_architecture(Architecture::CrayT3e);
        let der = t.to_der();
        assert_eq!(TranslationTable::from_der(&der).unwrap().to_der(), der);
        let Value::Sequence(mut fields) = decode(&der).unwrap() else {
            unreachable!()
        };
        // Field 2 is the compiler-option map.
        let Value::Sequence(pairs) = &mut fields[2] else {
            unreachable!()
        };
        assert!(pairs.len() >= 2);
        pairs.swap(0, 1);
        assert!(TranslationTable::from_der(&encode(&Value::Sequence(fields))).is_err());
    }

    fn workdir(t: &TranslationTable, job: &str) -> String {
        let mut dir = String::new();
        t.write_workdir(&mut dir, job);
        dir
    }

    #[test]
    fn workdir_substitution() {
        let t = TranslationTable::for_architecture(Architecture::Generic);
        assert_eq!(workdir(&t, "J00000007"), "/unicore/uspace/J00000007");
    }

    #[test]
    fn workdir_substitution_is_str_replace() {
        let mut t = TranslationTable::for_architecture(Architecture::Generic);
        for template in [
            "",
            "{job}",
            "{job}{job}",
            "/a/{job}/b/{job}",
            "/no/placeholder",
            "/stray/{x}/{job",
            "{{job}}",
            "{jo{job}b}",
            "/tail/{",
            "/ünï/{job}/{",
        ] {
            t.workdir_template = template.into();
            for job in ["J1", "{job}", "", "{"] {
                assert_eq!(
                    workdir(&t, job),
                    template.replace("{job}", job),
                    "{template:?}"
                );
            }
        }
    }
}
