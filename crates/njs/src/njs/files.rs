//! File tasks: Import, Export and Transfer.

use super::cross::CrossVsiteItem;
use super::{OutgoingItem, ShardedNjs, INCOMING_PREFIX};
use std::sync::Arc;
use unicore_ajo::{
    ActionId, ActionStatus, DataLocation, FileKind, GraphNode, JobId, TaskKind, TaskOutcome,
    VsiteAddress,
};

impl ShardedNjs {
    /// What the file task at `pos`, finishing with `outcome`, deposited
    /// into the job's Uspace (successful Imports put one file there;
    /// Exports and Transfers write elsewhere).
    pub(super) fn deposited_by_file_task(
        &self,
        job: JobId,
        pos: usize,
        outcome: &TaskOutcome,
    ) -> Option<String> {
        let rt = self.jobs.get(&job)?;
        let GraphNode::Task(task) = &rt.job.nodes[pos].1 else {
            return None;
        };
        let TaskKind::File(FileKind::Import { uspace_name, .. }) = &task.kind else {
            return None;
        };
        outcome.status.is_success().then(|| uspace_name.clone())
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
                        if vsite.vsite != vsite_name {
                            // Another Vsite: the merge phase reads it there
                            // and finishes this node.
                            self.cross_send(CrossVsiteItem::ImportXspace {
                                job,
                                node,
                                src_vsite: vsite.vsite.clone(),
                                path: path.clone(),
                                uspace_name: uspace_name.clone(),
                                login,
                            });
                            return FileTaskResult::Remote;
                        }
                        self.vsites[home]
                            .vspace
                            .import_from_xspace(job, path, uspace_name, &login)
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
                    let data = self.vsites[home]
                        .vspace
                        .read_for_transfer(job, uspace_name, &login);
                    match data {
                        Ok(d) => self.write_other_xspace(job, node, vsite, path.clone(), d, login),
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
                    // Delivery into the destination Vsite's incoming area.
                    let path = format!("{INCOMING_PREFIX}{dest_name}");
                    self.write_other_xspace(job, node, to_vsite, path, data, login)
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

    /// Queues a write of `data` at `path` in the Xspace of `to_vsite`, a
    /// Vsite of this Usite: a cross-Vsite Export, or a same-Usite Transfer
    /// into the incoming area. The merge phase writes it there and
    /// finishes the node.
    fn write_other_xspace(
        &mut self,
        job: JobId,
        node: ActionId,
        to_vsite: &VsiteAddress,
        path: String,
        data: Arc<[u8]>,
        login: String,
    ) -> FileTaskResult {
        self.cross_send(CrossVsiteItem::DeliverXspace {
            job,
            node,
            to_vsite: to_vsite.vsite.clone(),
            path,
            data,
            login,
        });
        FileTaskResult::Remote
    }
}

pub(super) enum FileTaskResult {
    Done(TaskOutcome),
    Remote,
}
