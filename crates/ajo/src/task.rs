//! Abstract task objects — the leaves of Figure 3.
//!
//! An ATO "as the entity to be translated into a real batch job for a
//! destination system contains the information about the required resources
//! for the job" (§5.4). Execute-style tasks become batch jobs; file-style
//! tasks become data-staging operations performed by the NJS.

use crate::ids::VsiteAddress;
use crate::resources::ResourceRequest;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// Where data outside a Uspace lives (paper's data model, §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataLocation {
    /// The user's workstation; the file's bytes travel inside the AJO
    /// portfolio ("files from the user's workstation needed in a job are
    /// put into the AJO", §5.6).
    Workstation {
        /// Path on the workstation (also the portfolio key).
        path: String,
    },
    /// A file in the Xspace of a Vsite (a site-local filesystem).
    Xspace {
        /// Which Vsite's Xspace.
        vsite: VsiteAddress,
        /// Path within the Xspace.
        path: String,
    },
}

impl DerCodec for DataLocation {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            DataLocation::Workstation { path } => w.tagged(0, |w| w.str(path)),
            DataLocation::Xspace { vsite, path } => w.tagged(1, |w| {
                w.sequence(|w| {
                    vsite.write_der(w);
                    w.str(path);
                })
            }),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => Ok(DataLocation::Workstation {
                path: t.next_string()?,
            }),
            1 => t.sequence("DataLocation::Xspace", |f| {
                Ok(DataLocation::Xspace {
                    vsite: VsiteAddress::read_der(f)?,
                    path: f.next_string()?,
                })
            }),
            _ => Err(CodecError::BadValue("DataLocation variant")),
        })
    }
}

/// The execute-style task bodies (become batch jobs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecuteKind {
    /// Run a user-specified executable from the Uspace.
    User {
        /// Executable name within the Uspace.
        executable: String,
        /// Command-line arguments.
        arguments: Vec<String>,
        /// Environment variables.
        environment: Vec<(String, String)>,
    },
    /// Run an existing batch script ("script tasks (to include existing
    /// batch applications)", §5.7).
    Script {
        /// The script text.
        script: String,
    },
    /// Compile sources — the prototype implements Fortran 90 (§5.7).
    Compile {
        /// Source file names within the Uspace.
        sources: Vec<String>,
        /// Compiler options in abstract form.
        options: Vec<String>,
        /// Output object name.
        output: String,
    },
    /// Link objects into an executable.
    Link {
        /// Object file names within the Uspace.
        objects: Vec<String>,
        /// Library names in abstract form (e.g. `"blas"`).
        libraries: Vec<String>,
        /// Output executable name.
        output: String,
    },
}

/// The file-style task bodies (become staging operations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileKind {
    /// Bring data into the job's Uspace.
    Import {
        /// Where the data lives.
        source: DataLocation,
        /// Name it receives inside the Uspace.
        uspace_name: String,
    },
    /// Put Uspace data onto permanent storage.
    Export {
        /// Name inside the Uspace.
        uspace_name: String,
        /// Destination (Xspace only; workstation export is on JMC request,
        /// §5.6).
        destination: DataLocation,
    },
    /// Move data between the Uspaces of two (possibly remote) jobs/sites.
    Transfer {
        /// Name inside the source Uspace.
        uspace_name: String,
        /// Destination Vsite whose job Uspace receives the file.
        to_vsite: VsiteAddress,
        /// Name at the destination.
        dest_name: String,
    },
}

/// The body of an abstract task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskKind {
    /// Becomes a batch job.
    Execute(ExecuteKind),
    /// Becomes a data-staging operation.
    File(FileKind),
}

/// An abstract task object: name, resources, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractTask {
    /// Human-readable task name (unique within the job is recommended).
    pub name: String,
    /// Abstract resource request (meaningful for execute tasks).
    pub resources: ResourceRequest,
    /// What the task does.
    pub kind: TaskKind,
}

impl AbstractTask {
    /// True for execute-style tasks (those that become batch jobs).
    pub fn is_execute(&self) -> bool {
        matches!(self.kind, TaskKind::Execute(_))
    }
}

fn write_strings(w: &mut DerWriter, items: &[String]) {
    w.sequence_of(items, |w, s| w.str(s));
}

fn read_strings(r: &mut DerReader<'_>, what: &'static str) -> Result<Vec<String>, CodecError> {
    r.sequence_of(what, |r| r.next_string())
}

impl DerCodec for TaskKind {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            TaskKind::Execute(ExecuteKind::User {
                executable,
                arguments,
                environment,
            }) => w.tagged(0, |w| {
                w.sequence(|w| {
                    w.str(executable);
                    write_strings(w, arguments);
                    w.sequence_of(environment, |w, (k, v)| {
                        w.sequence(|w| {
                            w.str(k);
                            w.str(v);
                        })
                    });
                })
            }),
            TaskKind::Execute(ExecuteKind::Script { script }) => w.tagged(1, |w| w.str(script)),
            TaskKind::Execute(ExecuteKind::Compile {
                sources,
                options,
                output,
            }) => w.tagged(2, |w| {
                w.sequence(|w| {
                    write_strings(w, sources);
                    write_strings(w, options);
                    w.str(output);
                })
            }),
            TaskKind::Execute(ExecuteKind::Link {
                objects,
                libraries,
                output,
            }) => w.tagged(3, |w| {
                w.sequence(|w| {
                    write_strings(w, objects);
                    write_strings(w, libraries);
                    w.str(output);
                })
            }),
            TaskKind::File(FileKind::Import {
                source,
                uspace_name,
            }) => w.tagged(4, |w| {
                w.sequence(|w| {
                    source.write_der(w);
                    w.str(uspace_name);
                })
            }),
            TaskKind::File(FileKind::Export {
                uspace_name,
                destination,
            }) => w.tagged(5, |w| {
                w.sequence(|w| {
                    w.str(uspace_name);
                    destination.write_der(w);
                })
            }),
            TaskKind::File(FileKind::Transfer {
                uspace_name,
                to_vsite,
                dest_name,
            }) => w.tagged(6, |w| {
                w.sequence(|w| {
                    w.str(uspace_name);
                    to_vsite.write_der(w);
                    w.str(dest_name);
                })
            }),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => t.sequence("UserTask", |f| {
                Ok(TaskKind::Execute(ExecuteKind::User {
                    executable: f.next_string()?,
                    arguments: read_strings(f, "arguments")?,
                    environment: f.sequence_of("environment", |e| {
                        e.sequence("env entry", |ef| Ok((ef.next_string()?, ef.next_string()?)))
                    })?,
                }))
            }),
            1 => Ok(TaskKind::Execute(ExecuteKind::Script {
                script: t.next_string()?,
            })),
            2 => t.sequence("CompileTask", |f| {
                Ok(TaskKind::Execute(ExecuteKind::Compile {
                    sources: read_strings(f, "sources")?,
                    options: read_strings(f, "options")?,
                    output: f.next_string()?,
                }))
            }),
            3 => t.sequence("LinkTask", |f| {
                Ok(TaskKind::Execute(ExecuteKind::Link {
                    objects: read_strings(f, "objects")?,
                    libraries: read_strings(f, "libraries")?,
                    output: f.next_string()?,
                }))
            }),
            4 => t.sequence("ImportTask", |f| {
                Ok(TaskKind::File(FileKind::Import {
                    source: DataLocation::read_der(f)?,
                    uspace_name: f.next_string()?,
                }))
            }),
            5 => t.sequence("ExportTask", |f| {
                Ok(TaskKind::File(FileKind::Export {
                    uspace_name: f.next_string()?,
                    destination: DataLocation::read_der(f)?,
                }))
            }),
            6 => t.sequence("TransferTask", |f| {
                Ok(TaskKind::File(FileKind::Transfer {
                    uspace_name: f.next_string()?,
                    to_vsite: VsiteAddress::read_der(f)?,
                    dest_name: f.next_string()?,
                }))
            }),
            _ => Err(CodecError::BadValue("TaskKind variant")),
        })
    }
}

impl DerCodec for AbstractTask {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.name);
            self.resources.write_der(w);
            self.kind.write_der(w);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("AbstractTask", |f| {
            Ok(AbstractTask {
                name: f.next_string()?,
                resources: ResourceRequest::read_der(f)?,
                kind: TaskKind::read_der(f)?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: TaskKind) {
        let task = AbstractTask {
            name: "t".into(),
            resources: ResourceRequest::minimal(),
            kind,
        };
        assert_eq!(AbstractTask::from_der(&task.to_der()).unwrap(), task);
    }

    #[test]
    fn user_task_round_trip() {
        round_trip(TaskKind::Execute(ExecuteKind::User {
            executable: "a.out".into(),
            arguments: vec!["--steps".into(), "100".into()],
            environment: vec![("OMP_NUM_THREADS".into(), "8".into())],
        }));
    }

    #[test]
    fn script_task_round_trip() {
        round_trip(TaskKind::Execute(ExecuteKind::Script {
            script: "#!/bin/sh\n./run_model\n".into(),
        }));
    }

    #[test]
    fn compile_link_round_trip() {
        round_trip(TaskKind::Execute(ExecuteKind::Compile {
            sources: vec!["main.f90".into(), "solver.f90".into()],
            options: vec!["O3".into()],
            output: "main.o".into(),
        }));
        round_trip(TaskKind::Execute(ExecuteKind::Link {
            objects: vec!["main.o".into()],
            libraries: vec!["blas".into(), "mpi".into()],
            output: "model.exe".into(),
        }));
    }

    #[test]
    fn file_tasks_round_trip() {
        round_trip(TaskKind::File(FileKind::Import {
            source: DataLocation::Workstation {
                path: "input.dat".into(),
            },
            uspace_name: "input.dat".into(),
        }));
        round_trip(TaskKind::File(FileKind::Import {
            source: DataLocation::Xspace {
                vsite: VsiteAddress::new("FZJ", "T3E"),
                path: "/home/alice/big.nc".into(),
            },
            uspace_name: "big.nc".into(),
        }));
        round_trip(TaskKind::File(FileKind::Export {
            uspace_name: "result.nc".into(),
            destination: DataLocation::Xspace {
                vsite: VsiteAddress::new("FZJ", "T3E"),
                path: "/archive/result.nc".into(),
            },
        }));
        round_trip(TaskKind::File(FileKind::Transfer {
            uspace_name: "fields.dat".into(),
            to_vsite: VsiteAddress::new("DWD", "SX4"),
            dest_name: "fields.dat".into(),
        }));
    }

    #[test]
    fn is_execute_classification() {
        let exec = AbstractTask {
            name: "e".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::Execute(ExecuteKind::Script { script: "s".into() }),
        };
        let file = AbstractTask {
            name: "f".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Import {
                source: DataLocation::Workstation { path: "x".into() },
                uspace_name: "x".into(),
            }),
        };
        assert!(exec.is_execute());
        assert!(!file.is_execute());
    }
}
