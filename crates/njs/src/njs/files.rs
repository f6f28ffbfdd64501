//! File tasks: Import, Export and Transfer.

use super::cross::CrossShardItem;
use super::{Njs, OutgoingItem, INCOMING_PREFIX};
use std::sync::Arc;
use unicore_ajo::{ActionStatus, DataLocation, FileKind, GraphNode, JobId, TaskKind, TaskOutcome};

impl Njs {
    /// What a just-finished file task deposited into the job's Uspace
    /// (successful Imports put one file there; Exports and Transfers
    /// write elsewhere).
    pub(super) fn deposited_by_file_task(&self, job: JobId, pos: usize) -> Option<String> {
        let rt = self.jobs.get(&job)?;
        let GraphNode::Task(task) = &rt.job.nodes[pos].1 else {
            return None;
        };
        let TaskKind::File(FileKind::Import { uspace_name, .. }) = &task.kind else {
            return None;
        };
        rt.node_outcome(pos)
            .status()
            .is_success()
            .then(|| uspace_name.clone())
    }

    pub(super) fn run_file_task(
        &mut self,
        job: JobId,
        pos: usize,
        kind: &FileKind,
    ) -> FileTaskResult {
        let (node, home, vsite_name, login) = {
            let rt = self.jobs.get(&job).expect("job exists");
            let vsite_name = rt.job.vsite.vsite.clone();
            (rt.node_id(pos), rt.vsite, vsite_name, rt.user.login.clone())
        };
        match kind {
            FileKind::Import {
                source,
                uspace_name,
            } => {
                let result = match source {
                    DataLocation::Workstation { path } => {
                        let rt = self.jobs.get(&job).expect("job exists");
                        match rt.portfolio.get(path) {
                            Some(data) => {
                                let data = Arc::clone(data);
                                self.vsites[home].vspace.import_bytes(
                                    job,
                                    uspace_name,
                                    data,
                                    &login,
                                )
                            }
                            None => {
                                return FileTaskResult::Done(TaskOutcome::failure(format!(
                                    "portfolio file '{path}' missing"
                                )))
                            }
                        }
                    }
                    DataLocation::Xspace { vsite, path } => {
                        if vsite.usite != self.usite {
                            return FileTaskResult::Done(TaskOutcome::failure(
                                "import from a remote Usite's Xspace is not supported; \
                                 use a transfer"
                                    .to_string(),
                            ));
                        }
                        if vsite.vsite == vsite_name {
                            self.vsites[home].vspace.import_from_xspace(
                                job,
                                path,
                                uspace_name,
                                &login,
                            )
                        } else if let Some(&shard) = self.siblings.get(&vsite.vsite) {
                            // The source Vsite lives on a sibling shard;
                            // the facade's merge phase reads it there and
                            // finishes this node.
                            self.cross_send(CrossShardItem::ImportXspace {
                                job,
                                node,
                                shard,
                                src_vsite: vsite.vsite.clone(),
                                path: path.clone(),
                                uspace_name: uspace_name.clone(),
                                login: login.clone(),
                            });
                            return FileTaskResult::Remote;
                        } else {
                            // Cross-Vsite (same Usite): read there, write here.
                            let data = match self.vsites.get(&vsite.vsite) {
                                Some(v) => v
                                    .vspace
                                    .xspace_ref()
                                    .read(path, &login)
                                    .map(|f| Arc::clone(&f.data)),
                                None => {
                                    return FileTaskResult::Done(TaskOutcome::failure(format!(
                                        "unknown Vsite {vsite}"
                                    )))
                                }
                            };
                            match data {
                                Ok(d) => self.vsites[home].vspace.import_bytes(
                                    job,
                                    uspace_name,
                                    d,
                                    &login,
                                ),
                                Err(e) => {
                                    return FileTaskResult::Done(TaskOutcome::failure(
                                        e.to_string(),
                                    ))
                                }
                            }
                        }
                    }
                };
                FileTaskResult::Done(match result {
                    Ok(n) => TaskOutcome {
                        status: ActionStatus::Successful,
                        bytes_staged: n,
                        ..Default::default()
                    },
                    Err(e) => TaskOutcome::failure(e.to_string()),
                })
            }
            FileKind::Export {
                uspace_name,
                destination,
            } => {
                let DataLocation::Xspace { vsite, path } = destination else {
                    return FileTaskResult::Done(TaskOutcome::failure(
                        "export to workstation happens on JMC request, not in-job".to_string(),
                    ));
                };
                if vsite.usite != self.usite {
                    return FileTaskResult::Done(TaskOutcome::failure(
                        "export to a remote Usite's Xspace is not supported".to_string(),
                    ));
                }
                if vsite.vsite == vsite_name {
                    let result =
                        self.vsites[home]
                            .vspace
                            .export_to_xspace(job, uspace_name, path, &login);
                    FileTaskResult::Done(match result {
                        Ok(n) => TaskOutcome {
                            status: ActionStatus::Successful,
                            bytes_staged: n,
                            ..Default::default()
                        },
                        Err(e) => TaskOutcome::failure(e.to_string()),
                    })
                } else {
                    // Cross-Vsite export within the Usite.
                    let data = self.vsites[home]
                        .vspace
                        .read_for_transfer(job, uspace_name, &login);
                    match data {
                        Ok(d) => {
                            let len = d.len() as u64;
                            if let Some(&shard) = self.siblings.get(&vsite.vsite) {
                                // Destination Vsite is on a sibling shard:
                                // queue the bytes; the merge phase
                                // lands them in that Xspace.
                                self.cross_send(CrossShardItem::DeliverXspace {
                                    job,
                                    node,
                                    shard,
                                    to_vsite: vsite.vsite.clone(),
                                    path: path.clone(),
                                    data: d,
                                    bytes: len,
                                    login: login.clone(),
                                });
                                return FileTaskResult::Remote;
                            }
                            match self.vsites.get_mut(&vsite.vsite) {
                                Some(v) => match v.vspace.xspace().write(path, d, &login) {
                                    Ok(()) => FileTaskResult::Done(TaskOutcome {
                                        status: ActionStatus::Successful,
                                        bytes_staged: len,
                                        ..Default::default()
                                    }),
                                    Err(e) => {
                                        FileTaskResult::Done(TaskOutcome::failure(e.to_string()))
                                    }
                                },
                                None => FileTaskResult::Done(TaskOutcome::failure(format!(
                                    "unknown Vsite {vsite}"
                                ))),
                            }
                        }
                        Err(e) => FileTaskResult::Done(TaskOutcome::failure(e.to_string())),
                    }
                }
            }
            FileKind::Transfer {
                uspace_name,
                to_vsite,
                dest_name,
            } => {
                let entry =
                    self.vsites[home]
                        .vspace
                        .read_entry_for_transfer(job, uspace_name, &login);
                let (data, world_readable) = match entry {
                    Ok(e) => e,
                    Err(e) => return FileTaskResult::Done(TaskOutcome::failure(e.to_string())),
                };
                if to_vsite.usite == self.usite {
                    // Local delivery into the destination Vsite's incoming area.
                    let len = data.len() as u64;
                    if let Some(&shard) = self.siblings.get(&to_vsite.vsite) {
                        // The destination Vsite lives on a sibling shard;
                        // the merge phase delivers into its incoming area.
                        self.cross_send(CrossShardItem::DeliverIncoming {
                            job,
                            node,
                            shard,
                            to_vsite: to_vsite.vsite.clone(),
                            dest_name: dest_name.clone(),
                            data,
                            bytes: len,
                            login: login.clone(),
                        });
                        return FileTaskResult::Remote;
                    }
                    match self.vsites.get_mut(&to_vsite.vsite) {
                        Some(v) => {
                            let path = format!("{INCOMING_PREFIX}{dest_name}");
                            match v.vspace.xspace().write(&path, data, &login) {
                                Ok(()) => FileTaskResult::Done(TaskOutcome {
                                    status: ActionStatus::Successful,
                                    bytes_staged: len,
                                    ..Default::default()
                                }),
                                Err(e) => FileTaskResult::Done(TaskOutcome::failure(e.to_string())),
                            }
                        }
                        None => FileTaskResult::Done(TaskOutcome::failure(format!(
                            "unknown Vsite {to_vsite}"
                        ))),
                    }
                } else {
                    self.outbox.push(OutgoingItem::Transfer {
                        from_job: job,
                        node,
                        to_vsite: to_vsite.clone(),
                        dest_name: dest_name.clone(),
                        data,
                        world_readable,
                    });
                    FileTaskResult::Remote
                }
            }
        }
    }
}

pub(super) enum FileTaskResult {
    Done(TaskOutcome),
    Remote,
}
