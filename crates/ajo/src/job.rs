//! The Abstract Job Object — the recursive heart of the UNICORE protocol.
//!
//! "The class AbstractJobObject contains the directed acyclic job graph
//! representing the job components (AbstractTaskObject and
//! AbstractJobObjects) together with their dependencies and information
//! about the destination site (Vsite), the user, site specific security,
//! and the user account group. The recursive structure of the AJO allows
//! for the AJO to contain sub-AJOs (corresponding to job groups in a
//! UNICORE job) which are intended for other execution systems." (§5.3)

use crate::error::AjoError;
use crate::ids::{ActionId, UserAttributes, VsiteAddress};
use crate::task::{AbstractTask, DataLocation, FileKind, TaskKind};
use std::collections::{HashMap, HashSet, VecDeque};
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// A file carried inside the AJO from the user's workstation (§5.6).
///
/// The bytes are shared (`Arc<[u8]>`): a consigned AJO's payload flows
/// through decode → admission → the job's staged-file map without ever
/// being copied — clones along the consign fast path are refcount bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioFile {
    /// Workstation path / portfolio key.
    pub name: String,
    /// The file's bytes (shared, never copied on the admission path).
    pub data: std::sync::Arc<[u8]>,
}

/// A node of the job graph: a task or a sub-job (job group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphNode {
    /// A leaf task.
    Task(AbstractTask),
    /// A recursive sub-job, possibly destined for another Vsite/Usite.
    SubJob(AbstractJob),
}

impl GraphNode {
    /// The node's display name.
    pub fn name(&self) -> &str {
        match self {
            GraphNode::Task(t) => &t.name,
            GraphNode::SubJob(j) => &j.name,
        }
    }
}

/// A sequential dependency between two sibling nodes, optionally carrying
/// named files from predecessor to successor ("each dependency can be
/// augmented by the names of the files to be transferred", §5.7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    /// Predecessor node.
    pub from: ActionId,
    /// Successor node (runs only after `from` succeeds).
    pub to: ActionId,
    /// Uspace file names guaranteed to flow from `from` to `to`.
    pub files: Vec<String>,
}

/// The Abstract Job Object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractJob {
    /// Job (group) name.
    pub name: String,
    /// Destination Vsite for this job's direct tasks.
    pub vsite: VsiteAddress,
    /// The submitting user's attributes.
    pub user: UserAttributes,
    /// Graph nodes with their (level-scoped) ids.
    pub nodes: Vec<(ActionId, GraphNode)>,
    /// Dependency edges between sibling nodes.
    pub dependencies: Vec<Dependency>,
    /// Workstation files travelling with the job (top level only).
    pub portfolio: Vec<PortfolioFile>,
    /// The abstract resource request a *brokered* job was placed by: the
    /// user asked for capability, not a machine, and the broker turned
    /// it into `vsite`. Carried so a retargeting broker can re-match the
    /// original request instead of reverse-engineering the task graph.
    /// Rides the wire as a trailing tagged field; absent on jobs the
    /// user targeted by hand, whose encoding is byte-identical to the
    /// pre-broker format.
    pub abstract_request: Option<crate::ResourceRequest>,
}

impl AbstractJob {
    /// An empty job bound to a destination and user.
    pub fn new(name: impl Into<String>, vsite: VsiteAddress, user: UserAttributes) -> Self {
        AbstractJob {
            name: name.into(),
            vsite,
            user,
            nodes: Vec::new(),
            dependencies: Vec::new(),
            portfolio: Vec::new(),
            abstract_request: None,
        }
    }

    /// Stamps the abstract request the broker placed this job by.
    pub fn with_abstract_request(mut self, request: crate::ResourceRequest) -> Self {
        self.abstract_request = Some(request);
        self
    }

    /// Looks up a node by id.
    pub fn node(&self, id: ActionId) -> Option<&GraphNode> {
        self.nodes.iter().find(|(n, _)| *n == id).map(|(_, g)| g)
    }

    /// Ids of nodes with no unfinished predecessors, given the set of
    /// already-completed nodes.
    pub fn ready_nodes(&self, done: &HashSet<ActionId>) -> Vec<ActionId> {
        self.nodes
            .iter()
            .filter(|(id, _)| !done.contains(id))
            .filter(|(id, _)| {
                self.dependencies
                    .iter()
                    .filter(|d| d.to == *id)
                    .all(|d| done.contains(&d.from))
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Direct predecessors of `id`.
    pub fn predecessors(&self, id: ActionId) -> Vec<ActionId> {
        self.dependencies
            .iter()
            .filter(|d| d.to == id)
            .map(|d| d.from)
            .collect()
    }

    /// Precomputes the predecessor adjacency for this level, so hot
    /// dependency checks borrow slices instead of allocating a `Vec`
    /// per call (the NJS step loop asks for predecessors once per
    /// waiting node per step).
    pub fn dependency_index(&self) -> DependencyIndex {
        DependencyIndex::build(self)
    }

    /// The files promised along the `from → to` edge.
    pub fn edge_files(&self, from: ActionId, to: ActionId) -> &[String] {
        self.dependencies
            .iter()
            .find(|d| d.from == from && d.to == to)
            .map(|d| d.files.as_slice())
            .unwrap_or(&[])
    }

    /// A topological order of this level's nodes (Kahn's algorithm).
    ///
    /// Returns an error when the graph has a cycle.
    pub fn topological_order(&self) -> Result<Vec<ActionId>, AjoError> {
        let ids: Vec<ActionId> = self.nodes.iter().map(|(id, _)| *id).collect();
        let mut in_degree: HashMap<ActionId, usize> = ids.iter().map(|&id| (id, 0)).collect();
        for dep in &self.dependencies {
            if let Some(d) = in_degree.get_mut(&dep.to) {
                *d += 1;
            }
        }
        let mut queue: VecDeque<ActionId> = ids
            .iter()
            .filter(|id| in_degree[id] == 0)
            .copied()
            .collect();
        let mut order = Vec::with_capacity(ids.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for dep in self.dependencies.iter().filter(|d| d.from == id) {
                let d = in_degree.get_mut(&dep.to).expect("validated edge");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(dep.to);
                }
            }
        }
        if order.len() != ids.len() {
            return Err(AjoError::CyclicGraph {
                job: self.name.clone(),
            });
        }
        Ok(order)
    }

    /// Validates the whole job tree: unique ids per level, well-formed
    /// edges, acyclicity, and resolvable workstation imports.
    pub fn validate(&self) -> Result<(), AjoError> {
        let portfolio_names: HashSet<&str> =
            self.portfolio.iter().map(|p| p.name.as_str()).collect();
        if portfolio_names.len() != self.portfolio.len() {
            return Err(AjoError::DuplicatePortfolioEntry {
                job: self.name.clone(),
            });
        }
        self.validate_level(&portfolio_names)
    }

    fn validate_level(&self, portfolio: &HashSet<&str>) -> Result<(), AjoError> {
        // Unique node ids at this level.
        let mut seen = HashSet::new();
        for (id, _) in &self.nodes {
            if !seen.insert(*id) {
                return Err(AjoError::DuplicateActionId {
                    job: self.name.clone(),
                    id: *id,
                });
            }
        }
        // Edges reference existing nodes and are not self-loops.
        for dep in &self.dependencies {
            if dep.from == dep.to {
                return Err(AjoError::SelfDependency {
                    job: self.name.clone(),
                    id: dep.from,
                });
            }
            for end in [dep.from, dep.to] {
                if !seen.contains(&end) {
                    return Err(AjoError::UnknownActionId {
                        job: self.name.clone(),
                        id: end,
                    });
                }
            }
        }
        // Acyclic.
        self.topological_order()?;
        // Workstation imports must resolve against the portfolio; sub-jobs
        // inherit the top-level portfolio.
        for (_, node) in &self.nodes {
            match node {
                GraphNode::Task(task) => {
                    if let TaskKind::File(FileKind::Import {
                        source: DataLocation::Workstation { path },
                        ..
                    }) = &task.kind
                    {
                        if !portfolio.contains(path.as_str()) {
                            return Err(AjoError::MissingPortfolioFile {
                                job: self.name.clone(),
                                file: path.clone(),
                            });
                        }
                    }
                }
                GraphNode::SubJob(sub) => {
                    if !sub.portfolio.is_empty() {
                        return Err(AjoError::NestedPortfolio {
                            job: sub.name.clone(),
                        });
                    }
                    sub.validate_level(portfolio)?;
                }
            }
        }
        Ok(())
    }

    /// Total number of actions in the tree (this job included).
    pub fn action_count(&self) -> usize {
        1 + self
            .nodes
            .iter()
            .map(|(_, n)| match n {
                GraphNode::Task(_) => 1,
                GraphNode::SubJob(j) => j.action_count(),
            })
            .sum::<usize>()
    }

    /// Maximum nesting depth (1 for a flat job).
    pub fn depth(&self) -> usize {
        1 + self
            .nodes
            .iter()
            .map(|(_, n)| match n {
                GraphNode::Task(_) => 0,
                GraphNode::SubJob(j) => j.depth(),
            })
            .max()
            .unwrap_or(0)
    }

    /// Distinct Usites referenced anywhere in the tree (for routing).
    pub fn referenced_usites(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        out.insert(self.vsite.usite.clone());
        for (_, node) in &self.nodes {
            if let GraphNode::SubJob(sub) = node {
                out.extend(sub.referenced_usites());
            }
        }
        out
    }
}

/// Precomputed predecessor adjacency for one job level.
///
/// [`AbstractJob::predecessors`] scans every dependency edge and collects
/// into a fresh `Vec` on each call; the NJS dependency check does that per
/// waiting node per step. This index pays the scan once at consign time
/// and afterwards answers from a flattened CSR-style layout: all
/// predecessor lists live in one `Vec`, sliced per node.
///
/// A node is addressed either by its [`ActionId`] or by its *position* —
/// its index in [`AbstractJob::nodes`]. The NJS keeps everything it
/// holds per node in that order and works on positions, so a visit to a
/// node is an array index; [`DependencyIndex::position`] is the one
/// lookup where an id arrives from outside.
///
/// Orderings are identical to the allocating paths: predecessors appear
/// in dependency-declaration order, ready sets in node-declaration order.
/// An edge naming a node this level does not have is ignored (a validated
/// job has none).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyIndex {
    /// Node ids in declaration order; `offsets[i]..offsets[i+1]` slices
    /// `preds` and `pred_positions` for `ids[i]`.
    ids: Vec<ActionId>,
    offsets: Vec<usize>,
    preds: Vec<ActionId>,
    /// `preds`, each as its position in `ids`.
    pred_positions: Vec<usize>,
}

impl DependencyIndex {
    /// Builds the index for one level of `job`.
    pub fn build(job: &AbstractJob) -> Self {
        let ids: Vec<ActionId> = job.nodes.iter().map(|(id, _)| *id).collect();
        let position = |id: ActionId| ids.iter().position(|&n| n == id);
        let mut buckets: Vec<Vec<(ActionId, usize)>> = vec![Vec::new(); ids.len()];
        for dep in &job.dependencies {
            if let (Some(from), Some(to)) = (position(dep.from), position(dep.to)) {
                buckets[to].push((dep.from, from));
            }
        }
        let mut offsets = Vec::with_capacity(ids.len() + 1);
        let mut preds = Vec::new();
        let mut pred_positions = Vec::new();
        offsets.push(0);
        for bucket in buckets {
            for (id, pos) in bucket {
                preds.push(id);
                pred_positions.push(pos);
            }
            offsets.push(preds.len());
        }
        DependencyIndex {
            ids,
            offsets,
            preds,
            pred_positions,
        }
    }

    /// The position of `id` in the job's node list, if it is a node of
    /// this level.
    pub fn position(&self, id: ActionId) -> Option<usize> {
        self.ids.iter().position(|&n| n == id)
    }

    /// Direct predecessors of `id`, in dependency-declaration order —
    /// the same sequence [`AbstractJob::predecessors`] returns, without
    /// the allocation. Unknown ids have no predecessors.
    pub fn predecessors(&self, id: ActionId) -> &[ActionId] {
        match self.position(id) {
            Some(i) => self.predecessors_at(i),
            None => &[],
        }
    }

    /// Direct predecessors of the node at `position`, by id.
    ///
    /// # Panics
    /// Panics if `position` is not a node of this level.
    pub fn predecessors_at(&self, position: usize) -> &[ActionId] {
        &self.preds[self.offsets[position]..self.offsets[position + 1]]
    }

    /// Direct predecessors of the node at `position`, by position, in
    /// the same order as [`DependencyIndex::predecessors_at`].
    ///
    /// # Panics
    /// Panics if `position` is not a node of this level.
    pub fn predecessor_positions(&self, position: usize) -> &[usize] {
        &self.pred_positions[self.offsets[position]..self.offsets[position + 1]]
    }

    /// Ids of nodes with no unfinished predecessors, in node-declaration
    /// order — identical to [`AbstractJob::ready_nodes`].
    pub fn ready_nodes(&self, done: &HashSet<ActionId>) -> Vec<ActionId> {
        self.ids
            .iter()
            .enumerate()
            .filter(|(_, id)| !done.contains(id))
            .filter(|(i, _)| self.predecessors_at(*i).iter().all(|p| done.contains(p)))
            .map(|(_, id)| *id)
            .collect()
    }
}

impl DerCodec for Dependency {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.u64(self.from.0);
            w.u64(self.to.0);
            w.sequence_of(&self.files, |w, f| w.str(f));
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("Dependency", |f| {
            Ok(Dependency {
                from: ActionId(f.next_u64()?),
                to: ActionId(f.next_u64()?),
                files: f.sequence_of("dependency files", |r| r.next_string())?,
            })
        })
    }
}

impl DerCodec for GraphNode {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            GraphNode::Task(t) => w.tagged(0, |w| t.write_der(w)),
            GraphNode::SubJob(j) => w.tagged(1, |w| j.write_der(w)),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => Ok(GraphNode::Task(AbstractTask::read_der(t)?)),
            1 => Ok(GraphNode::SubJob(AbstractJob::read_der(t)?)),
            _ => Err(CodecError::BadValue("GraphNode variant")),
        })
    }
}

impl DerCodec for AbstractJob {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.name);
            self.vsite.write_der(w);
            self.user.write_der(w);
            w.sequence_of(&self.nodes, |w, (id, node)| {
                w.sequence(|w| {
                    w.u64(id.0);
                    node.write_der(w);
                })
            });
            w.sequence_of(&self.dependencies, |w, d| d.write_der(w));
            w.sequence_of(&self.portfolio, |w, p| {
                w.sequence(|w| {
                    w.str(&p.name);
                    w.bytes(&p.data);
                })
            });
            // Trailing tagged optional: absent on hand-targeted jobs, so
            // their encoding matches the pre-broker format byte for byte.
            if let Some(req) = &self.abstract_request {
                w.tagged(0, |w| req.write_der(w));
            }
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("AbstractJob", |f| {
            Ok(AbstractJob {
                name: f.next_string()?,
                vsite: VsiteAddress::read_der(f)?,
                user: UserAttributes::read_der(f)?,
                nodes: f.sequence_of("graph nodes", |n| {
                    n.sequence("graph node entry", |nf| {
                        Ok((ActionId(nf.next_u64()?), GraphNode::read_der(nf)?))
                    })
                })?,
                dependencies: f.sequence_of("dependencies", Dependency::read_der)?,
                portfolio: f.sequence_of("portfolio", |p| {
                    p.sequence("portfolio entry", |pf| {
                        Ok(PortfolioFile {
                            name: pf.next_string()?,
                            data: pf.next_bytes()?.into(),
                        })
                    })
                })?,
                abstract_request: f.optional_tagged(0, crate::ResourceRequest::read_der)?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceRequest;
    use crate::task::ExecuteKind;
    use unicore_codec::Value;

    fn user() -> UserAttributes {
        UserAttributes::new("C=DE, O=FZJ, OU=ZAM, CN=alice", "proj1")
    }

    fn script_task(name: &str) -> GraphNode {
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: format!("echo {name}"),
            }),
        })
    }

    fn import_task(path: &str) -> GraphNode {
        GraphNode::Task(AbstractTask {
            name: format!("import {path}"),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Import {
                source: DataLocation::Workstation { path: path.into() },
                uspace_name: path.into(),
            }),
        })
    }

    fn chain_job() -> AbstractJob {
        let mut job = AbstractJob::new("chain", VsiteAddress::new("FZJ", "T3E"), user());
        job.nodes.push((ActionId(1), script_task("a")));
        job.nodes.push((ActionId(2), script_task("b")));
        job.nodes.push((ActionId(3), script_task("c")));
        job.dependencies.push(Dependency {
            from: ActionId(1),
            to: ActionId(2),
            files: vec!["mid.dat".into()],
        });
        job.dependencies.push(Dependency {
            from: ActionId(2),
            to: ActionId(3),
            files: vec![],
        });
        job
    }

    #[test]
    fn validate_accepts_chain() {
        chain_job().validate().unwrap();
    }

    #[test]
    fn topo_order_respects_deps() {
        let order = chain_job().topological_order().unwrap();
        assert_eq!(order, vec![ActionId(1), ActionId(2), ActionId(3)]);
    }

    #[test]
    fn ready_nodes_progress() {
        let job = chain_job();
        let mut done = HashSet::new();
        assert_eq!(job.ready_nodes(&done), vec![ActionId(1)]);
        done.insert(ActionId(1));
        assert_eq!(job.ready_nodes(&done), vec![ActionId(2)]);
        done.insert(ActionId(2));
        done.insert(ActionId(3));
        assert!(job.ready_nodes(&done).is_empty());
    }

    /// A non-trivial DAG: a diamond with an extra fan and reversed
    /// declaration orders, so ordering differences between the scanning
    /// and the precomputed paths would show.
    fn diamond_fan_job() -> AbstractJob {
        let mut job = AbstractJob::new("diamond", VsiteAddress::new("FZJ", "T3E"), user());
        for id in [4u64, 1, 3, 2, 5] {
            job.nodes
                .push((ActionId(id), script_task(&format!("n{id}"))));
        }
        for (from, to) in [(1, 2), (1, 3), (3, 4), (2, 4), (4, 5), (1, 5)] {
            job.dependencies.push(Dependency {
                from: ActionId(from),
                to: ActionId(to),
                files: vec![],
            });
        }
        job
    }

    #[test]
    fn dependency_index_matches_scanning_predecessors() {
        let job = diamond_fan_job();
        let index = job.dependency_index();
        for (id, _) in &job.nodes {
            assert_eq!(
                index.predecessors(*id),
                job.predecessors(*id).as_slice(),
                "predecessor order diverged for node {id:?}"
            );
        }
        assert!(index.predecessors(ActionId(99)).is_empty());
    }

    #[test]
    fn dependency_index_by_position_is_the_same_adjacency() {
        // Sparse ids out of ascending order: position is declaration
        // order, nothing else.
        let mut job = AbstractJob::new("sparse", VsiteAddress::new("FZJ", "T3E"), user());
        for id in [9, 2, 40] {
            job.nodes.push((ActionId(id), script_task("t")));
        }
        for (from, to) in [(9, 40), (2, 40), (9, 2)] {
            job.dependencies.push(Dependency {
                from: ActionId(from),
                to: ActionId(to),
                files: vec![],
            });
        }
        let index = job.dependency_index();
        assert_eq!(index.position(ActionId(40)), Some(2));
        assert_eq!(index.position(ActionId(0)), None);
        assert_eq!(index.predecessors_at(2), [ActionId(9), ActionId(2)]);
        assert_eq!(index.predecessor_positions(2), [0, 1]);
        assert_eq!(index.predecessor_positions(1), [0]);
        assert!(index.predecessor_positions(0).is_empty());
        for (pos, (id, _)) in job.nodes.iter().enumerate() {
            assert_eq!(index.position(*id), Some(pos));
            assert_eq!(index.predecessors_at(pos), index.predecessors(*id));
            let by_position: Vec<ActionId> = index
                .predecessor_positions(pos)
                .iter()
                .map(|&p| job.nodes[p].0)
                .collect();
            assert_eq!(by_position, index.predecessors(*id));
        }
    }

    #[test]
    fn dependency_index_pins_ready_set_ordering() {
        // The ready set must come back in the same order at every stage
        // of execution, so swapping the NJS onto the index cannot change
        // dispatch order.
        let job = diamond_fan_job();
        let index = job.dependency_index();
        let mut done = HashSet::new();
        for step in job.topological_order().unwrap() {
            assert_eq!(
                index.ready_nodes(&done),
                job.ready_nodes(&done),
                "ready-set order diverged with done = {done:?}"
            );
            done.insert(step);
        }
        assert!(index.ready_nodes(&done).is_empty());
    }

    #[test]
    fn cycle_detected() {
        let mut job = chain_job();
        job.dependencies.push(Dependency {
            from: ActionId(3),
            to: ActionId(1),
            files: vec![],
        });
        assert!(matches!(job.validate(), Err(AjoError::CyclicGraph { .. })));
    }

    #[test]
    fn duplicate_id_detected() {
        let mut job = chain_job();
        job.nodes.push((ActionId(1), script_task("dup")));
        assert!(matches!(
            job.validate(),
            Err(AjoError::DuplicateActionId { .. })
        ));
    }

    #[test]
    fn unknown_edge_endpoint_detected() {
        let mut job = chain_job();
        job.dependencies.push(Dependency {
            from: ActionId(1),
            to: ActionId(99),
            files: vec![],
        });
        assert!(matches!(
            job.validate(),
            Err(AjoError::UnknownActionId { .. })
        ));
    }

    #[test]
    fn self_dependency_detected() {
        let mut job = chain_job();
        job.dependencies.push(Dependency {
            from: ActionId(2),
            to: ActionId(2),
            files: vec![],
        });
        assert!(matches!(
            job.validate(),
            Err(AjoError::SelfDependency { .. })
        ));
    }

    #[test]
    fn workstation_import_requires_portfolio() {
        let mut job = AbstractJob::new("imp", VsiteAddress::new("FZJ", "T3E"), user());
        job.nodes.push((ActionId(1), import_task("input.dat")));
        assert!(matches!(
            job.validate(),
            Err(AjoError::MissingPortfolioFile { .. })
        ));
        job.portfolio.push(PortfolioFile {
            name: "input.dat".into(),
            data: vec![1, 2, 3].into(),
        });
        job.validate().unwrap();
    }

    #[test]
    fn sub_job_inherits_portfolio() {
        let mut sub = AbstractJob::new("sub", VsiteAddress::new("RUS", "VPP"), user());
        sub.nodes.push((ActionId(1), import_task("shared.dat")));
        let mut top = AbstractJob::new("top", VsiteAddress::new("FZJ", "T3E"), user());
        top.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
        top.portfolio.push(PortfolioFile {
            name: "shared.dat".into(),
            data: vec![0; 10].into(),
        });
        top.validate().unwrap();
    }

    #[test]
    fn nested_portfolio_rejected() {
        let mut sub = AbstractJob::new("sub", VsiteAddress::new("RUS", "VPP"), user());
        sub.portfolio.push(PortfolioFile {
            name: "x".into(),
            data: vec![].into(),
        });
        let mut top = AbstractJob::new("top", VsiteAddress::new("FZJ", "T3E"), user());
        top.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
        assert!(matches!(
            top.validate(),
            Err(AjoError::NestedPortfolio { .. })
        ));
    }

    #[test]
    fn duplicate_portfolio_rejected() {
        let mut job = AbstractJob::new("p", VsiteAddress::new("FZJ", "T3E"), user());
        for _ in 0..2 {
            job.portfolio.push(PortfolioFile {
                name: "same".into(),
                data: vec![].into(),
            });
        }
        assert!(matches!(
            job.validate(),
            Err(AjoError::DuplicatePortfolioEntry { .. })
        ));
    }

    #[test]
    fn counts_and_depth() {
        let mut sub = AbstractJob::new("sub", VsiteAddress::new("RUS", "VPP"), user());
        sub.nodes.push((ActionId(1), script_task("s1")));
        let mut top = chain_job();
        top.nodes.push((ActionId(4), GraphNode::SubJob(sub)));
        // top + 3 tasks + (sub + 1 task) = 6
        assert_eq!(top.action_count(), 6);
        assert_eq!(top.depth(), 2);
        let usites = top.referenced_usites();
        assert!(usites.contains("FZJ") && usites.contains("RUS"));
    }

    #[test]
    fn der_round_trip_recursive() {
        let mut sub = AbstractJob::new("sub", VsiteAddress::new("RUS", "VPP"), user());
        sub.nodes.push((ActionId(1), script_task("inner")));
        let mut top = chain_job();
        top.nodes.push((ActionId(4), GraphNode::SubJob(sub)));
        top.portfolio.push(PortfolioFile {
            name: "data.bin".into(),
            data: (0..255).collect::<Vec<u8>>().into(),
        });
        let back = AbstractJob::from_der(&top.to_der()).unwrap();
        assert_eq!(back, top);
    }

    #[test]
    fn abstract_request_round_trips() {
        let mut job = chain_job();
        job.abstract_request = Some(
            ResourceRequest::minimal()
                .with_processors(64)
                .with_run_time(7_200),
        );
        let back = AbstractJob::from_der(&job.to_der()).unwrap();
        assert_eq!(back, job);
        assert_eq!(back.abstract_request.unwrap().processors, 64);
    }

    #[test]
    fn hand_targeted_job_bytes_unchanged() {
        // A job without an abstract request must encode exactly as the
        // pre-broker six-field sequence — and those bytes still decode.
        let job = chain_job();
        assert!(job.abstract_request.is_none());
        let der = job.to_der();
        let old = Value::Sequence(match unicore_codec::decode(&der).unwrap() {
            Value::Sequence(items) => items.into_iter().take(6).collect(),
            _ => unreachable!(),
        });
        assert_eq!(der, unicore_codec::encode(&old));
        let back = AbstractJob::from_der(&der).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn edge_files_lookup() {
        let job = chain_job();
        assert_eq!(job.edge_files(ActionId(1), ActionId(2)), ["mid.dat"]);
        assert!(job.edge_files(ActionId(2), ActionId(3)).is_empty());
        assert!(job.edge_files(ActionId(1), ActionId(3)).is_empty());
    }
}
