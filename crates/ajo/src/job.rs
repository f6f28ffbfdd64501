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
use std::collections::{BTreeSet, VecDeque};
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

    /// Looks up a node by id.
    pub fn node(&self, id: ActionId) -> Option<&GraphNode> {
        self.nodes.iter().find(|(n, _)| *n == id).map(|(_, g)| g)
    }

    /// Ids of nodes with no unfinished predecessors, given the set of
    /// already-completed nodes.
    pub fn ready_nodes(&self, done: &BTreeSet<ActionId>) -> Vec<ActionId> {
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

    /// Precomputes the predecessor adjacency for this level, so hot
    /// dependency checks borrow slices instead of allocating a `Vec`
    /// per call (the NJS step loop asks for predecessors once per
    /// waiting node per step). An edge naming a node the level does not
    /// have is left out; [`AbstractJob::validated_index`] refuses it.
    pub fn dependency_index(&self) -> DependencyIndex {
        let mut scratch = Scratch::new(self.nodes.len());
        Level::walk(self, &mut scratch).into_index()
    }

    /// The files promised along the `from → to` edge.
    pub fn edge_files(&self, from: ActionId, to: ActionId) -> &[String] {
        self.dependencies
            .iter()
            .find(|d| d.from == from && d.to == to)
            .map(|d| d.files.as_slice())
            .unwrap_or(&[])
    }

    /// A topological order of this level's nodes (Kahn's algorithm:
    /// sources in node order, each node's successors in dependency
    /// order).
    ///
    /// Returns an error when the graph has a cycle.
    pub fn topological_order(&self) -> Result<Vec<ActionId>, AjoError> {
        let index = self.dependency_index();
        let n = index.nodes;
        let mut in_degree: Vec<usize> = (0..n)
            .map(|p| index.predecessor_positions(p).len())
            .collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&p| in_degree[p] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(p) = queue.pop_front() {
            order.push(index.ids[p]);
            for &to in index.successor_positions(p) {
                in_degree[to] -= 1;
                if in_degree[to] == 0 {
                    queue.push_back(to);
                }
            }
        }
        if order.len() != n {
            return Err(AjoError::CyclicGraph {
                job: self.name.clone(),
            });
        }
        Ok(order)
    }

    /// Validates the whole job tree: unique ids per level, well-formed
    /// edges, acyclicity, and resolvable workstation imports.
    pub fn validate(&self) -> Result<(), AjoError> {
        self.validated_index().map(drop)
    }

    /// Validates the whole job tree as [`AbstractJob::validate`] does
    /// and returns the top level's [`DependencyIndex`], which the same
    /// walk builds: the graph is read once, and nothing is hashed.
    ///
    /// Errors come in a fixed order: a duplicate portfolio entry; then,
    /// level by level from the top, the first duplicate node id, the
    /// first bad edge (a self-loop before an unknown end, `from` before
    /// `to`), a cycle, and the nodes in order — a workstation import
    /// the portfolio lacks, or a sub-job with a portfolio or an error of
    /// its own.
    pub fn validated_index(&self) -> Result<DependencyIndex, AjoError> {
        let mut names: Vec<&str> = self.portfolio.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(AjoError::DuplicatePortfolioEntry {
                job: self.name.clone(),
            });
        }
        self.validate_level(&names)
    }

    /// One level of [`AbstractJob::validated_index`]; `portfolio` holds
    /// the top job's file names, sorted.
    fn validate_level(&self, portfolio: &[&str]) -> Result<DependencyIndex, AjoError> {
        let mut scratch = Scratch::new(self.nodes.len());
        let level = Level::walk(self, &mut scratch);
        if let Some(pos) = level.first_duplicate() {
            return Err(AjoError::DuplicateActionId {
                job: self.name.clone(),
                id: level.ids[pos],
            });
        }
        for dep in &self.dependencies {
            if dep.from == dep.to {
                return Err(AjoError::SelfDependency {
                    job: self.name.clone(),
                    id: dep.from,
                });
            }
            for end in [dep.from, dep.to] {
                if level.position(end).is_none() {
                    return Err(AjoError::UnknownActionId {
                        job: self.name.clone(),
                        id: end,
                    });
                }
            }
        }
        let index = level.into_index();
        let (out_degree, stack) = scratch.cycle_check();
        if !index.is_acyclic(out_degree, stack) {
            return Err(AjoError::CyclicGraph {
                job: self.name.clone(),
            });
        }
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
                        if portfolio.binary_search(&path.as_str()).is_err() {
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
        Ok(index)
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
    pub fn referenced_usites(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        out.insert(self.vsite.usite.clone());
        for (_, node) in &self.nodes {
            if let GraphNode::SubJob(sub) = node {
                out.extend(sub.referenced_usites());
            }
        }
        out
    }
}

/// Room for the working arrays of one level's walk, three per node: the
/// positions sorted by id, then the out-degrees and the stack of the
/// cycle check. A level of up to [`Scratch::INLINE`] / 3 nodes keeps them
/// on the stack.
struct Scratch {
    nodes: usize,
    inline: [usize; Scratch::INLINE],
    heap: Vec<usize>,
}

impl Scratch {
    const INLINE: usize = 48;

    fn new(nodes: usize) -> Self {
        let heap = if 3 * nodes > Self::INLINE {
            vec![0; 3 * nodes]
        } else {
            Vec::new()
        };
        Scratch {
            nodes,
            inline: [0; Self::INLINE],
            heap,
        }
    }

    fn slots(&mut self) -> &mut [usize] {
        if self.heap.is_empty() {
            &mut self.inline[..3 * self.nodes]
        } else {
            &mut self.heap
        }
    }

    /// Room for the positions sorted by id.
    fn positions(&mut self) -> &mut [usize] {
        let n = self.nodes;
        &mut self.slots()[..n]
    }

    /// The cycle check's out-degree and stack arrays.
    fn cycle_check(&mut self) -> (&mut [usize], &mut [usize]) {
        let n = self.nodes;
        self.slots()[n..].split_at_mut(n)
    }
}

/// One level of a job graph, walked once: its node ids, and its
/// positions sorted by id, so that an id resolves to its first position
/// by binary search and a duplicate shows as two neighbours.
struct Level<'a> {
    job: &'a AbstractJob,
    ids: Vec<ActionId>,
    by_id: &'a [usize],
}

impl<'a> Level<'a> {
    fn walk(job: &'a AbstractJob, scratch: &'a mut Scratch) -> Self {
        // Room for the predecessor ids the index appends behind the nodes.
        let mut ids = Vec::with_capacity(job.nodes.len() + job.dependencies.len());
        ids.extend(job.nodes.iter().map(|(id, _)| *id));
        let by_id = scratch.positions();
        for (p, slot) in by_id.iter_mut().enumerate() {
            *slot = p;
        }
        by_id.sort_unstable_by_key(|&p| (ids[p], p));
        Level { job, ids, by_id }
    }

    /// The first position of `id` at this level.
    fn position(&self, id: ActionId) -> Option<usize> {
        let k = self.by_id.partition_point(|&p| self.ids[p] < id);
        self.by_id.get(k).copied().filter(|&p| self.ids[p] == id)
    }

    /// The first position whose id an earlier node already has.
    fn first_duplicate(&self) -> Option<usize> {
        self.by_id
            .windows(2)
            .filter(|w| self.ids[w[0]] == self.ids[w[1]])
            .map(|w| w[1])
            .min()
    }

    /// Every edge both of whose ends are nodes of this level, as
    /// `(from, to)` positions, in dependency order.
    fn edges(&self) -> impl DoubleEndedIterator<Item = (usize, usize)> + Clone + '_ {
        self.job
            .dependencies
            .iter()
            .filter_map(|d| Some((self.position(d.from)?, self.position(d.to)?)))
    }

    /// The level's [`DependencyIndex`]: node `p`'s predecessors are
    /// bucket `p`, its successors bucket `n + p`, so one grouping pass
    /// builds both lists behind the offsets in one buffer, and the
    /// predecessors' ids go behind the node ids in the other.
    fn into_index(self) -> DependencyIndex {
        let n = self.ids.len();
        let mut slots = Vec::with_capacity(2 * n + 1 + 2 * self.job.dependencies.len());
        let preds = self.edges().map(|(from, to)| (to, from));
        let succs = self.edges().map(|(from, to)| (n + from, to));
        group_by_bucket(2 * n, preds.chain(succs), &mut slots);
        let mut ids = self.ids;
        let first = 2 * n + 1;
        for &p in &slots[first..first + slots[n]] {
            ids.push(ids[p]);
        }
        DependencyIndex {
            nodes: n,
            ids,
            slots,
        }
    }
}

/// Groups the `(bucket, item)` pairs `pairs` yields by bucket, keeping
/// their order within each, into the empty `out`: `buckets + 1` offsets,
/// then the items, `out[b]..out[b + 1]` slicing bucket `b`'s items
/// counted from `buckets + 1`. Two passes over `pairs` (count, then
/// place), no per-bucket `Vec`.
fn group_by_bucket(
    buckets: usize,
    pairs: impl DoubleEndedIterator<Item = (usize, usize)> + Clone,
    out: &mut Vec<usize>,
) {
    // offsets[b] counts bucket b, then becomes its end, then (placing
    // from the back) its start.
    out.resize(buckets + 1, 0);
    for (b, _) in pairs.clone() {
        out[b] += 1;
    }
    let mut end = 0;
    for slot in &mut out[..buckets] {
        end += *slot;
        *slot = end;
    }
    out[buckets] = end;
    out.resize(buckets + 1 + end, 0);
    let (offsets, items) = out.split_at_mut(buckets + 1);
    for (b, item) in pairs.rev() {
        offsets[b] -= 1;
        items[offsets[b]] = item;
    }
}

/// Precomputed predecessor adjacency for one job level.
///
/// Finding a node's predecessors means scanning every dependency edge,
/// and the NJS dependency check asks per waiting node per step. This
/// index pays the scan once at consign time and afterwards answers from
/// a flattened CSR-style layout in two buffers: the node ids with every
/// predecessor list by id behind them, and the offsets with every
/// predecessor and successor list by position behind them.
///
/// A node is addressed either by its [`ActionId`] or by its *position* —
/// its index in [`AbstractJob::nodes`]. The NJS keeps everything it
/// holds per node in that order and works on positions, so a visit to a
/// node is an array index; [`DependencyIndex::position`] is the one
/// lookup where an id arrives from outside.
///
/// Predecessors appear in dependency-declaration order. An edge naming a
/// node this level does not have is ignored (a validated job has none);
/// an id two nodes share resolves to the first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyIndex {
    /// The number of nodes, `n`.
    nodes: usize,
    /// The node ids in declaration order, then every node's predecessors
    /// by id: node `i`'s are `ids[n + offsets[i]..n + offsets[i + 1]]`.
    ids: Vec<ActionId>,
    /// The `2n + 1` offsets, then every node's predecessors by position,
    /// then every node's successors by position. Counted from `2n + 1`,
    /// `offsets[i]..offsets[i + 1]` slices node `i`'s predecessors and
    /// `offsets[n + i]..offsets[n + i + 1]` its successors.
    slots: Vec<usize>,
}

impl DependencyIndex {
    /// The node ids, in declaration order.
    fn node_ids(&self) -> &[ActionId] {
        &self.ids[..self.nodes]
    }

    /// Bucket `b`'s range of the positions behind the offsets.
    fn bucket(&self, b: usize) -> std::ops::Range<usize> {
        let first = 2 * self.nodes + 1;
        first + self.slots[b]..first + self.slots[b + 1]
    }

    /// The position of `id` in the job's node list, if it is a node of
    /// this level.
    pub fn position(&self, id: ActionId) -> Option<usize> {
        self.node_ids().iter().position(|&n| n == id)
    }

    /// Direct predecessors of the node at `position`, by id.
    ///
    /// # Panics
    /// Panics if `position` is not a node of this level.
    pub fn predecessors_at(&self, position: usize) -> &[ActionId] {
        let n = self.nodes;
        &self.ids[n + self.slots[position]..n + self.slots[position + 1]]
    }

    /// Direct predecessors of the node at `position`, by position, in
    /// the same order as [`DependencyIndex::predecessors_at`].
    ///
    /// # Panics
    /// Panics if `position` is not a node of this level.
    pub fn predecessor_positions(&self, position: usize) -> &[usize] {
        &self.slots[self.bucket(position)]
    }

    /// Direct successors of the node at `position`, by position, in
    /// dependency-declaration order.
    ///
    /// # Panics
    /// Panics if `position` is not a node of this level.
    pub fn successor_positions(&self, position: usize) -> &[usize] {
        &self.slots[self.bucket(self.nodes + position)]
    }

    /// Whether the level has no cycle: Kahn's algorithm run backwards
    /// over the predecessor lists, from the nodes nothing depends on.
    /// `out_degree` and `stack` have room for every node.
    fn is_acyclic(&self, out_degree: &mut [usize], stack: &mut [usize]) -> bool {
        out_degree.fill(0);
        let first = 2 * self.nodes + 1;
        for &p in &self.slots[first..first + self.slots[self.nodes]] {
            out_degree[p] += 1;
        }
        let mut top = 0;
        for (p, _) in out_degree.iter().enumerate().filter(|(_, &d)| d == 0) {
            stack[top] = p;
            top += 1;
        }
        let mut removed = 0;
        while top > 0 {
            top -= 1;
            let p = stack[top];
            removed += 1;
            for &q in self.predecessor_positions(p) {
                out_degree[q] -= 1;
                if out_degree[q] == 0 {
                    stack[top] = q;
                    top += 1;
                }
            }
        }
        removed == self.nodes
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
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
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
        let mut done = BTreeSet::new();
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
        for (pos, (id, _)) in job.nodes.iter().enumerate() {
            let scanned: Vec<ActionId> = job
                .dependencies
                .iter()
                .filter(|d| d.to == *id)
                .map(|d| d.from)
                .collect();
            assert_eq!(
                index.predecessors_at(pos),
                scanned,
                "predecessor order diverged for node {id:?}"
            );
        }
        assert_eq!(index.position(ActionId(99)), None);
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
            let by_position: Vec<ActionId> = index
                .predecessor_positions(pos)
                .iter()
                .map(|&p| job.nodes[p].0)
                .collect();
            assert_eq!(by_position, index.predecessors_at(pos));
        }
    }

    #[test]
    fn dependency_index_pins_ready_set_ordering() {
        // The ready set must come back in the same order at every stage
        // of execution, so swapping the NJS onto the index cannot change
        // dispatch order.
        let job = diamond_fan_job();
        let index = job.dependency_index();
        let mut done = BTreeSet::new();
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

    impl DependencyIndex {
        /// Ids of nodes with no unfinished predecessors, in
        /// node-declaration order — identical to
        /// [`AbstractJob::ready_nodes`].
        fn ready_nodes(&self, done: &BTreeSet<ActionId>) -> Vec<ActionId> {
            self.node_ids()
                .iter()
                .enumerate()
                .filter(|(_, id)| !done.contains(id))
                .filter(|(i, _)| self.predecessors_at(*i).iter().all(|p| done.contains(p)))
                .map(|(_, id)| *id)
                .collect()
        }
    }

    /// The hashing validation, topological order and index build the
    /// one-pass walk replaced, kept as the model it is held to.
    mod reference {
        use super::super::*;
        use std::collections::{HashMap, HashSet};

        pub(super) fn topological_order(job: &AbstractJob) -> Result<Vec<ActionId>, AjoError> {
            let ids: Vec<ActionId> = job.nodes.iter().map(|(id, _)| *id).collect();
            let mut in_degree: HashMap<ActionId, usize> = ids.iter().map(|&id| (id, 0)).collect();
            for dep in &job.dependencies {
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
                for dep in job.dependencies.iter().filter(|d| d.from == id) {
                    let d = in_degree.get_mut(&dep.to).expect("validated edge");
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(dep.to);
                    }
                }
            }
            if order.len() != ids.len() {
                return Err(AjoError::CyclicGraph {
                    job: job.name.clone(),
                });
            }
            Ok(order)
        }

        pub(super) fn validate(job: &AbstractJob) -> Result<(), AjoError> {
            let portfolio_names: HashSet<&str> =
                job.portfolio.iter().map(|p| p.name.as_str()).collect();
            if portfolio_names.len() != job.portfolio.len() {
                return Err(AjoError::DuplicatePortfolioEntry {
                    job: job.name.clone(),
                });
            }
            validate_level(job, &portfolio_names)
        }

        fn validate_level(job: &AbstractJob, portfolio: &HashSet<&str>) -> Result<(), AjoError> {
            let mut seen = HashSet::new();
            for (id, _) in &job.nodes {
                if !seen.insert(*id) {
                    return Err(AjoError::DuplicateActionId {
                        job: job.name.clone(),
                        id: *id,
                    });
                }
            }
            for dep in &job.dependencies {
                if dep.from == dep.to {
                    return Err(AjoError::SelfDependency {
                        job: job.name.clone(),
                        id: dep.from,
                    });
                }
                for end in [dep.from, dep.to] {
                    if !seen.contains(&end) {
                        return Err(AjoError::UnknownActionId {
                            job: job.name.clone(),
                            id: end,
                        });
                    }
                }
            }
            topological_order(job)?;
            for (_, node) in &job.nodes {
                match node {
                    GraphNode::Task(task) => {
                        if let TaskKind::File(FileKind::Import {
                            source: DataLocation::Workstation { path },
                            ..
                        }) = &task.kind
                        {
                            if !portfolio.contains(path.as_str()) {
                                return Err(AjoError::MissingPortfolioFile {
                                    job: job.name.clone(),
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
                        validate_level(sub, portfolio)?;
                    }
                }
            }
            Ok(())
        }

        pub(super) fn dependency_index(job: &AbstractJob) -> DependencyIndex {
            let ids: Vec<ActionId> = job.nodes.iter().map(|(id, _)| *id).collect();
            let position = |id: ActionId| ids.iter().position(|&n| n == id);
            let mut buckets: Vec<Vec<(ActionId, usize)>> = vec![Vec::new(); ids.len()];
            let mut successors: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
            for dep in &job.dependencies {
                if let (Some(from), Some(to)) = (position(dep.from), position(dep.to)) {
                    buckets[to].push((dep.from, from));
                    successors[from].push(to);
                }
            }
            // The layout: node ids then predecessor ids; offsets then
            // predecessor positions then successor positions.
            let nodes = ids.len();
            let mut all_ids = ids;
            let mut offsets = vec![0];
            let mut positions = Vec::new();
            for bucket in buckets {
                for (id, pos) in bucket {
                    all_ids.push(id);
                    positions.push(pos);
                }
                offsets.push(positions.len());
            }
            for list in successors {
                positions.extend(list);
                offsets.push(positions.len());
            }
            offsets.extend(positions);
            DependencyIndex {
                nodes,
                ids: all_ids,
                slots: offsets,
            }
        }
    }

    /// A random job tree that breaks every validation rule now and then:
    /// repeated ids, self-loops, edges to unknown ids, cycles, imports
    /// the portfolio lacks, repeated portfolio names, and portfolios on
    /// sub-jobs. Most edges run forward, so many trees are valid.
    fn random_job(rng: &mut TestRng, depth: u32, top: bool) -> AbstractJob {
        const FILES: [&str; 4] = ["a", "b", "c", "d"];
        let mut job = AbstractJob::new(
            format!("j{depth}-{}", rng.below(4)),
            VsiteAddress::new("FZJ", "T3E"),
            user(),
        );
        let most = if rng.below(8) == 0 { 24 } else { 7 };
        let n = rng.below(most) as usize;
        for pos in 0..n {
            let id = if rng.below(10) == 0 {
                rng.below(6)
            } else {
                2 * pos as u64
            };
            let node = match rng.below(8) {
                0 => import_task(FILES[rng.below(4) as usize]),
                1 if depth < 2 => GraphNode::SubJob(random_job(rng, depth + 1, false)),
                _ => script_task("t"),
            };
            job.nodes.push((ActionId(id), node));
        }
        let ids: Vec<ActionId> = job.nodes.iter().map(|(id, _)| *id).collect();
        for _ in 0..rng.below(2 * n as u64 + 2) {
            let (from, to) = match rng.below(16) {
                0..=11 if n >= 2 => {
                    let i = rng.below(n as u64 - 1) as usize;
                    let j = i + 1 + rng.below((n - i - 1) as u64) as usize;
                    (ids[i], ids[j])
                }
                12..=14 if n >= 1 => (
                    ids[rng.below(n as u64) as usize],
                    ids[rng.below(n as u64) as usize],
                ),
                _ => (ActionId(rng.below(14)), ActionId(rng.below(14))),
            };
            job.dependencies.push(Dependency {
                from,
                to,
                files: vec![],
            });
        }
        let entries = if top {
            rng.below(4)
        } else {
            u64::from(rng.below(8) == 0)
        };
        for _ in 0..entries {
            job.portfolio.push(PortfolioFile {
                name: FILES[rng.below(4) as usize].into(),
                data: vec![].into(),
            });
        }
        job
    }

    /// Every level of `job`, top first.
    fn levels(job: &AbstractJob) -> Vec<&AbstractJob> {
        let mut out = vec![job];
        for (_, node) in &job.nodes {
            if let GraphNode::SubJob(sub) = node {
                out.extend(levels(sub));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn the_two_buffer_index_answers_as_a_scan_of_the_edges(seed in any::<u64>()) {
            let job = random_job(&mut TestRng::from_seed(seed), 0, true);
            for level in levels(&job) {
                let index = level.dependency_index();
                let ids: Vec<ActionId> = level.nodes.iter().map(|(id, _)| *id).collect();
                let first = |id: ActionId| ids.iter().position(|&n| n == id);
                // Every edge both of whose ends resolve, as positions.
                let edges: Vec<(ActionId, usize, usize)> = level
                    .dependencies
                    .iter()
                    .filter_map(|d| Some((d.from, first(d.from)?, first(d.to)?)))
                    .collect();
                for probe in (0..16).map(ActionId).chain(ids.iter().copied()) {
                    prop_assert_eq!(index.position(probe), first(probe));
                }
                for pos in 0..ids.len() {
                    let preds = edges.iter().filter(|e| e.2 == pos);
                    let by_id: Vec<ActionId> = preds.clone().map(|e| e.0).collect();
                    let by_pos: Vec<usize> = preds.map(|e| e.1).collect();
                    let succs: Vec<usize> =
                        edges.iter().filter(|e| e.1 == pos).map(|e| e.2).collect();
                    prop_assert_eq!(index.predecessors_at(pos), &by_id[..]);
                    prop_assert_eq!(index.predecessor_positions(pos), &by_pos[..]);
                    prop_assert_eq!(index.successor_positions(pos), &succs[..]);
                }
                let unique = ids.iter().all(|a| ids.iter().filter(|b| *b == a).count() == 1);
                if unique && edges.len() == level.dependencies.len() {
                    prop_assert_eq!(level.topological_order(), reference::topological_order(level));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn one_pass_walk_matches_the_hashing_model(seed in any::<u64>()) {
            let job = random_job(&mut TestRng::from_seed(seed), 0, true);
            let verdict = job.validate();
            prop_assert_eq!(&verdict, &reference::validate(&job), "{:#?}", job);
            match job.validated_index() {
                Ok(index) => {
                    prop_assert!(verdict.is_ok());
                    prop_assert_eq!(index, reference::dependency_index(&job));
                }
                Err(e) => prop_assert_eq!(Err(e), verdict),
            }
            for level in levels(&job) {
                prop_assert_eq!(level.dependency_index(), reference::dependency_index(level));
                // The model's order is defined where every edge resolves.
                let ids: Vec<ActionId> = level.nodes.iter().map(|(id, _)| *id).collect();
                let unique = ids.iter().all(|a| ids.iter().filter(|b| *b == a).count() == 1);
                let resolved = level
                    .dependencies
                    .iter()
                    .all(|d| ids.contains(&d.from) && ids.contains(&d.to));
                if unique && resolved {
                    prop_assert_eq!(level.topological_order(), reference::topological_order(level));
                }
            }
        }
    }
}
