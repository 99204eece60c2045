//! Sharding the Experiment Graph into N lock shards.
//!
//! This module partitions the graph by artifact id (the op-lineage
//! hash, so the partition is stable across runs and machines): vertex
//! `v` lives in shard [`shard_of`]`(v.id, n)`, each shard behind its own
//! `RwLock` and with its own journal. A publish runs the paper's single
//! updater — merge, then one materializer pass over the whole graph — so
//! it takes **every** shard's write lock in strictly ascending index
//! order ([`ShardedEg::write_all`]) and holds them until its per-shard
//! journal records and any cross-shard commit record are durable. Other
//! writers lock one shard, or ascend the same way, so a deadlock is
//! impossible by construction.
//!
//! The pieces:
//!
//! * [`shard_of`] — the partitioning function (a splitmix64 finalizer
//!   over the artifact id, mod N);
//! * [`GraphQuery`] — the read-path trait planners, the executor and
//!   the warmstart search use, so they work against either a plain
//!   [`ExperimentGraph`] or a sharded view;
//! * [`EgView`] — a consistent multi-shard read view (borrowing all N
//!   read guards), routing each query to the owning shard and offering
//!   the whole-graph walks the materializers rank by;
//! * [`ShardedEg`] — the shard array itself, with ordered-lock helpers
//!   and per-shard lock-wait accounting;
//! * [`rewire_children`] — the recovery pass that rebuilds cross-shard
//!   children links (per-shard snapshots and journals persist parent
//!   lists only — children are always derived);
//! * [`recover_shards`] — the shared startup-recovery routine (server
//!   and `egfsck`): load per-shard `EGSNAP 3` snapshots, replay the
//!   commit log, then replay each shard journal keeping exactly the
//!   records that are beyond the shard's snapshot watermark and
//!   committed — by themselves (single-shard publishes) or by a commit
//!   record (cross-shard publishes). A crash anywhere between the
//!   per-shard appends of one publish rolls the whole publish back.
//!
//! On-disk layout of a data directory (`n` ≥ 1 shards — one shard is
//! the trivial case, not a separate format):
//!
//! ```text
//! eg-0.wal … eg-<n-1>.wal        one journal per shard (EGWAL 2)
//! eg-0.egsnap … eg-<n-1>.egsnap  per-shard snapshots (EGSNAP 3)
//! eg.commit                      the cross-shard commit log (EGCMT 1)
//! ```

use crate::artifact::{ArtifactId, NodeKind};
use crate::error::Result;
use crate::experiment::{EgVertex, ExperimentGraph};
use crate::faults::FaultInjector;
use crate::journal::{self, QuarantineEntry};
use crate::lockorder;
use crate::snapshot;
use crate::storage::{ColumnVault, StorageManager};
use crate::value::Value;
use crate::workload::{NodeId, WorkloadDag};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Commit-log file name inside a sharded data directory.
pub const COMMIT_FILE: &str = "eg.commit";

/// Journal file name of shard `k` inside a sharded data directory.
#[must_use]
pub fn shard_journal_file(k: usize) -> String {
    format!("eg-{k}.wal")
}

/// Snapshot file name of shard `k` inside a sharded data directory.
#[must_use]
pub fn shard_snapshot_file(k: usize) -> String {
    format!("eg-{k}.egsnap")
}

/// The shard owning an artifact: a splitmix64 finalizer over the id
/// (artifact ids are op-lineage hashes, but finalizing again costs
/// nothing and protects against structured id patterns), mod the shard
/// count. With one shard everything maps to shard 0.
#[must_use]
pub fn shard_of(id: ArtifactId, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    #[allow(clippy::cast_possible_truncation)] // lint:reason < n_shards, which is a usize
    {
        (z % n_shards as u64) as usize
    }
}

/// The read-side interface of the Experiment Graph: everything the
/// planners, the execution snapshot, and the warmstart search need.
/// Implemented by [`ExperimentGraph`] itself (so single-shard callers
/// pass `&eg` unchanged) and by [`EgView`] (a borrowed multi-shard
/// view).
pub trait GraphQuery {
    /// Vertex lookup; `None` when the graph does not know the artifact.
    fn lookup(&self, id: ArtifactId) -> Option<&EgVertex>;
    /// Whether the artifact's content is held by the store right now.
    fn has_content(&self, id: ArtifactId) -> bool;
    /// Fetch stored content (cheap `Arc` clones; honours the store's
    /// injected load faults, like `StorageManager::get`).
    fn load_content(&self, id: ArtifactId) -> Option<Value>;
    /// The fault injector wired into the store(s), if any.
    fn fault_injector(&self) -> Option<Arc<FaultInjector>>;
}

impl GraphQuery for ExperimentGraph {
    fn lookup(&self, id: ArtifactId) -> Option<&EgVertex> {
        self.vertex(id).ok()
    }

    fn has_content(&self, id: ArtifactId) -> bool {
        self.is_materialized(id)
    }

    fn load_content(&self, id: ArtifactId) -> Option<Value> {
        self.storage().get(id)
    }

    fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.storage().fault_injector().map(Arc::clone)
    }
}

/// A borrowed view over all shards of a sharded Experiment Graph,
/// routing every query to the shard owning the artifact. Construct it
/// from the read guards of [`ShardedEg::read_all`]; holding all N read
/// guards makes the view a consistent cut (no publish can be half
/// visible, because a publish holds every shard's write lock until it
/// commits).
pub struct EgView<'a> {
    shards: Vec<&'a ExperimentGraph>,
}

impl<'a> EgView<'a> {
    /// Build a view over the given shard references, indexed by shard.
    ///
    /// # Panics
    /// Panics when `shards` is empty.
    #[must_use]
    pub fn new(shards: Vec<&'a ExperimentGraph>) -> Self {
        assert!(!shards.is_empty(), "a view needs at least one shard");
        EgView { shards }
    }

    /// Build a view over a shard array's guards (or plain graph
    /// references), e.g. those of [`ShardedEg::read_all`].
    ///
    /// # Panics
    /// Panics when `guards` is empty.
    #[must_use]
    pub fn of<G: Deref<Target = ExperimentGraph>>(guards: &'a [G]) -> Self {
        EgView::new(guards.iter().map(|g| &**g).collect())
    }

    /// The shard owning `id`.
    #[must_use]
    pub fn owner(&self, id: ArtifactId) -> &'a ExperimentGraph {
        self.shards[shard_of(id, self.shards.len())]
    }

    /// Total vertex count across all shards.
    #[must_use]
    pub fn n_vertices(&self) -> usize {
        self.shards.iter().map(|s| s.n_vertices()).sum()
    }

    /// Every vertex of every shard (arbitrary order).
    pub fn vertices(&self) -> impl Iterator<Item = &'a EgVertex> + '_ {
        self.shards
            .iter()
            .copied()
            .flat_map(ExperimentGraph::vertices)
    }

    /// Every source artifact id, shard by shard.
    pub fn sources(&self) -> impl Iterator<Item = ArtifactId> + '_ {
        self.shards
            .iter()
            .copied()
            .flat_map(|s| s.sources().iter().copied())
    }

    /// Every artifact whose content a shard's store holds, shard by
    /// shard.
    #[must_use]
    pub fn materialized_ids(&self) -> Vec<ArtifactId> {
        self.shards
            .iter()
            .flat_map(|s| s.storage().materialized_ids())
            .collect()
    }

    /// Whether the stores deduplicate columns (every shard's store is
    /// built alike).
    #[must_use]
    pub fn dedup_enabled(&self) -> bool {
        self.shards[0].storage().dedup_enabled()
    }

    /// Nominal bytes of every materialized artifact.
    #[must_use]
    pub fn logical_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.storage().logical_bytes())
            .sum()
    }

    /// Bytes physically held: the shared column vault (when sharded
    /// with dedup) plus every shard store's own bytes.
    #[must_use]
    pub fn unique_bytes(&self) -> u64 {
        let local: u64 = self.shards.iter().map(|s| s.storage().unique_bytes()).sum();
        local
            + self.shards[0]
                .storage()
                .vault()
                .map_or(0, |v| v.unique_bytes())
    }

    /// A topological order of the whole graph. One shard lends its own
    /// insertion order. Shards do not record how their insertions
    /// interleaved, so for several shards this is a deterministic merge
    /// of their orders: sweep the shards in index order, taking each
    /// one's next vertices while every parent is already placed (or
    /// unknown to the view).
    #[must_use]
    pub fn topo_order(&self) -> Cow<'a, [ArtifactId]> {
        if let [only] = self.shards[..] {
            return Cow::Borrowed(only.topo_order());
        }
        let total = self.n_vertices();
        let mut out = Vec::with_capacity(total);
        let mut placed: HashSet<ArtifactId> = HashSet::with_capacity(total);
        let mut heads = vec![0usize; self.shards.len()];
        loop {
            let before = out.len();
            for (k, shard) in self.shards.iter().enumerate() {
                let order = shard.topo_order();
                while let Some(&id) = order.get(heads[k]) {
                    let ready = shard.vertex(id).map_or(true, |v| {
                        v.parents
                            .iter()
                            .all(|p| placed.contains(p) || self.lookup(*p).is_none())
                    });
                    if !ready {
                        break;
                    }
                    placed.insert(id);
                    out.push(id);
                    heads[k] += 1;
                }
            }
            if out.len() == before {
                break;
            }
        }
        // The sweep places everything (each shard's order is a
        // restriction of the insertion order); keep a corrupt graph's
        // leftovers rather than drop them.
        for (k, shard) in self.shards.iter().enumerate() {
            out.extend_from_slice(&shard.topo_order()[heads[k]..]);
        }
        Cow::Owned(out)
    }

    /// Approximate recreation cost `Cr(v)` for every vertex, computed in
    /// one topological pass as `t(v) + Σ_parents Cr(p)` — the linear-time
    /// scheme the paper uses (§5.2 "we compute the recreation cost and
    /// potential of the nodes incrementally using one pass"). On DAGs with
    /// shared ancestors this over-counts; see
    /// [`ExperimentGraph::exact_recreation_cost`]. Every value depends
    /// only on the vertex and its parents, so any topological order —
    /// and any shard count — gives bitwise the same map.
    ///
    /// Materialized vertices still report their full recreation cost (the
    /// utility function compares it against the load cost).
    #[must_use]
    pub fn recreation_costs(&self) -> HashMap<ArtifactId, f64> {
        let order = self.topo_order();
        let mut costs: HashMap<ArtifactId, f64> = HashMap::with_capacity(order.len());
        for id in order.iter() {
            let Some(v) = self.lookup(*id) else { continue };
            let parent_cost: f64 = v
                .parents
                .iter()
                .map(|p| costs.get(p).copied().unwrap_or(0.0))
                .sum();
            costs.insert(*id, v.compute_time + parent_cost);
        }
        costs
    }

    /// Potential `p(v)` for every vertex: the quality of the best ML model
    /// reachable from it (paper §5.1), computed in one reverse topological
    /// pass.
    #[must_use]
    pub fn potentials(&self) -> HashMap<ArtifactId, f64> {
        let order = self.topo_order();
        let mut potential: HashMap<ArtifactId, f64> = HashMap::with_capacity(order.len());
        for id in order.iter().rev() {
            let Some(v) = self.lookup(*id) else { continue };
            let own = if v.kind == NodeKind::Model {
                v.quality
            } else {
                0.0
            };
            let best_child = v
                .children
                .iter()
                .map(|c| potential.get(c).copied().unwrap_or(0.0))
                .fold(0.0, f64::max);
            potential.insert(*id, own.max(best_child));
        }
        potential
    }
}

impl GraphQuery for EgView<'_> {
    fn lookup(&self, id: ArtifactId) -> Option<&EgVertex> {
        self.owner(id).vertex(id).ok()
    }

    fn has_content(&self, id: ArtifactId) -> bool {
        self.owner(id).is_materialized(id)
    }

    fn load_content(&self, id: ArtifactId) -> Option<Value> {
        self.owner(id).storage().get(id)
    }

    fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        // Every shard's store shares one injector; shard 0 stands in.
        self.shards[0].storage().fault_injector().map(Arc::clone)
    }
}

/// The Experiment Graph as an array of lock shards.
///
/// Locking protocol: any operation taking more than one **write** lock
/// must take them in ascending shard-index order ([`ShardedEg::write_all`]
/// does; the lock-order witness checks it), and hold all of them until
/// the operation — including its durability writes — is complete. Read-side consistency comes
/// from [`ShardedEg::read_all`], which acquires every read lock
/// (ascending, same order, so readers cannot deadlock writers either).
pub struct ShardedEg {
    shards: Vec<RwLock<ExperimentGraph>>,
    /// Nanoseconds spent *blocked* acquiring each shard's write lock
    /// (uncontended acquisitions cost nothing and are not counted).
    lock_wait_ns: Vec<AtomicU64>,
    /// Identity in the runtime lock-order witness (see
    /// [`crate::lockorder`]); orders are only compared within one
    /// sharded graph.
    witness: u64,
}

/// Read guard for one shard, wrapping the raw lock guard together
/// with its lock-order witness token so release is reported exactly
/// when the lock drops. Derefs to [`ExperimentGraph`].
pub struct ShardReadGuard<'a> {
    inner: RwLockReadGuard<'a, ExperimentGraph>,
    _witness: lockorder::Held,
}

impl Deref for ShardReadGuard<'_> {
    type Target = ExperimentGraph;
    fn deref(&self) -> &ExperimentGraph {
        &self.inner
    }
}

/// Write guard for one shard (see [`ShardReadGuard`]).
pub struct ShardWriteGuard<'a> {
    inner: RwLockWriteGuard<'a, ExperimentGraph>,
    _witness: lockorder::Held,
}

impl Deref for ShardWriteGuard<'_> {
    type Target = ExperimentGraph;
    fn deref(&self) -> &ExperimentGraph {
        &self.inner
    }
}

impl DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut ExperimentGraph {
        &mut self.inner
    }
}

impl ShardedEg {
    /// A fresh sharded graph. With more than one shard and `dedup` on,
    /// all shards share one [`ColumnVault`] so cross-shard column
    /// deduplication matches the single-shard store's behaviour.
    #[must_use]
    pub fn new(n_shards: usize, dedup: bool) -> Self {
        let mut graphs: Vec<ExperimentGraph> = (0..n_shards.max(1))
            .map(|_| ExperimentGraph::new(dedup))
            .collect();
        share_vault(&mut graphs, dedup);
        ShardedEg::from_graphs(graphs)
    }

    /// Assemble a sharded graph from per-shard graphs (see
    /// [`recover_shards`], which also re-homes their stores onto the
    /// shared vault).
    ///
    /// # Panics
    /// Panics when `graphs` is empty.
    #[must_use]
    pub fn from_graphs(graphs: Vec<ExperimentGraph>) -> Self {
        assert!(
            !graphs.is_empty(),
            "a sharded graph needs at least one shard"
        );
        let n = graphs.len();
        ShardedEg {
            shards: graphs.into_iter().map(RwLock::new).collect(),
            lock_wait_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            witness: lockorder::next_graph_id(),
        }
    }
    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning an artifact.
    #[must_use]
    pub fn shard_index(&self, id: ArtifactId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Read-lock one shard. The acquisition is reported to the
    /// lock-order witness first (in builds where it is active), so an
    /// ordering hazard panics with both sites instead of deadlocking.
    #[track_caller]
    pub fn read(&self, k: usize) -> ShardReadGuard<'_> {
        let witness = lockorder::acquire(self.witness, k, lockorder::Mode::Read);
        ShardReadGuard {
            inner: self.shards[k].read(),
            _witness: witness,
        }
    }

    /// Write-lock one shard, recording time spent blocked. Reported
    /// to the lock-order witness before blocking (see [`Self::read`]).
    #[track_caller]
    pub fn write(&self, k: usize) -> ShardWriteGuard<'_> {
        let witness = lockorder::acquire(self.witness, k, lockorder::Mode::Write);
        if let Some(guard) = self.shards[k].try_write() {
            return ShardWriteGuard {
                inner: guard,
                _witness: witness,
            };
        }
        let start = Instant::now();
        let guard = self.shards[k].write();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.lock_wait_ns[k].fetch_add(ns, Ordering::Relaxed);
        ShardWriteGuard {
            inner: guard,
            _witness: witness,
        }
    }

    /// Read-lock every shard in ascending order — a consistent cut of
    /// the whole graph (feed the guards to [`EgView::new`]).
    #[track_caller]
    #[must_use]
    pub fn read_all(&self) -> Vec<ShardReadGuard<'_>> {
        let mut guards = Vec::with_capacity(self.shards.len());
        for k in 0..self.shards.len() {
            guards.push(self.read(k));
        }
        guards
    }

    /// Write-lock every shard in ascending order — the publish path's
    /// lock set, and the one compaction takes.
    #[track_caller]
    #[must_use]
    pub fn write_all(&self) -> Vec<ShardWriteGuard<'_>> {
        let mut guards = Vec::with_capacity(self.shards.len());
        for k in 0..self.shards.len() {
            guards.push(self.write(k));
        }
        guards
    }

    /// Cumulative nanoseconds each shard's write lock kept acquirers
    /// blocked.
    #[must_use]
    pub fn lock_wait_ns(&self) -> Vec<u64> {
        self.lock_wait_ns
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Wire one fault injector into every shard's store.
    pub fn set_fault_injector(&self, faults: &Arc<FaultInjector>) {
        for k in 0..self.shards.len() {
            self.write(k)
                .storage_mut()
                .set_fault_injector(Arc::clone(faults));
        }
    }
}

/// With more than one shard and `dedup` on, put every shard's (empty)
/// store onto one shared [`ColumnVault`], so cross-shard column
/// deduplication matches the single-shard store's behaviour.
fn share_vault(graphs: &mut [ExperimentGraph], dedup: bool) {
    if graphs.len() > 1 && dedup {
        let vault = Arc::new(ColumnVault::new(graphs.len()));
        for graph in graphs {
            graph.set_storage(StorageManager::new_vaulted(Arc::clone(&vault)));
        }
    }
}

/// Merge the kept nodes of an executed workload DAG into a shard array
/// — the updater's merge step: each node lands in the shard owning its
/// artifact, and each new vertex is linked as a child on its parents'
/// shards. `keep` must be ancestor-closed (a kept node's parents are
/// kept, or already in the graph). Returns each kept node's artifact in
/// DAG order with whether it was inserted (false: an existing vertex was
/// bumped). One shard is the trivial case
/// ([`ExperimentGraph::update_with_workload`]).
pub fn merge_workload<G: DerefMut<Target = ExperimentGraph>>(
    shards: &mut [G],
    dag: &WorkloadDag,
    keep: &[bool],
) -> Result<Vec<(ArtifactId, bool)>> {
    let n = shards.len();
    let mut merged = Vec::new();
    for (i, node) in dag.nodes().iter().enumerate().filter(|(i, _)| keep[*i]) {
        let inserted = shards[shard_of(node.artifact, n)].merge_workload_node(dag, i)?;
        merged.push((node.artifact, inserted));
        if inserted {
            for p in dag.parents(NodeId(i)) {
                let parent = dag.nodes()[p.0].artifact;
                shards[shard_of(parent, n)].add_child_link(parent, node.artifact)?;
            }
        }
    }
    Ok(merged)
}

/// Rebuild children links across a freshly recovered shard array.
/// Per-shard snapshots and journal records persist parent lists only
/// (children are derived state), so after every shard has loaded, each
/// vertex registers
/// itself with its parents — wherever they live. Returns the (parent,
/// child) pairs whose parent no shard defines; a committed-prefix
/// recovery never produces any, so the server treats a non-empty list
/// as corruption while `egfsck` reports each entry.
#[must_use]
pub fn rewire_children(shards: &mut [ExperimentGraph]) -> Vec<(ArtifactId, ArtifactId)> {
    let n = shards.len();
    let mut links: Vec<Vec<(ArtifactId, ArtifactId)>> = vec![Vec::new(); n];
    let mut unresolved = Vec::new();
    for eg in shards.iter() {
        for id in eg.topo_order() {
            // Registration order does not matter, so a vertex the graph
            // cannot resolve (in-memory corruption) surfaces as an
            // unresolved self-link instead of panicking mid-recovery.
            let Ok(v) = eg.vertex(*id) else {
                unresolved.push((*id, *id));
                continue;
            };
            for &p in &v.parents {
                links[shard_of(p, n)].push((p, v.id));
            }
        }
    }
    for (k, pairs) in links.into_iter().enumerate() {
        for (p, c) in pairs {
            if shards[k].add_child_link(p, c).is_err() {
                unresolved.push((p, c));
            }
        }
    }
    unresolved
}

/// Everything [`recover_shards`] reconstructs from a sharded data
/// directory.
pub struct ShardRecovery {
    /// The recovered shards, children links rewired, indexed by shard.
    pub graphs: Vec<ExperimentGraph>,
    /// Recovered quarantine entries (persisted in shard 0 only).
    pub quarantine: Vec<QuarantineEntry>,
    /// Torn tails found: `(path, valid_len, bytes_discarded)`. The
    /// server truncates each; `egfsck` (read-only) reports them.
    pub torn: Vec<(PathBuf, u64, u64)>,
    /// Journal records applied (committed and beyond the watermark).
    pub deltas_applied: usize,
    /// Journal records skipped: already inside a snapshot watermark, or
    /// never committed (rolled back).
    pub deltas_skipped: usize,
    /// Distinct publishes (sequence numbers) whose records were applied.
    pub committed_publishes: usize,
    /// Highest sequence number seen anywhere (watermarks, journals,
    /// commit log) — the server re-seeds its counter past this.
    pub max_seq: u64,
    /// `(parent, child)` pairs whose parent no shard defines — empty
    /// after any committed-prefix recovery.
    pub unresolved_links: Vec<(ArtifactId, ArtifactId)>,
}

/// Reconstruct exactly the committed prefix from a sharded data
/// directory, without writing anything:
///
/// 1. load each shard's `EGSNAP 3` snapshot (absent ⇒ empty shard),
///    noting its sequence watermark;
/// 2. replay the commit log (torn tail ⇒ scan stops; those publishes
///    were never committed);
/// 3. replay each shard journal, applying a record iff its sequence
///    number is beyond the shard's watermark **and** it is committed:
///    its publish touched one shard (the record commits itself) or its
///    sequence number is in the commit log;
/// 4. rebuild cross-shard children links ([`rewire_children`]).
///
/// The caller truncates the returned torn tails (server) or reports
/// them (`egfsck`).
pub fn recover_shards(dir: &Path, n_shards: usize, dedup: bool) -> Result<ShardRecovery> {
    let n = n_shards.max(1);
    let mut graphs = Vec::with_capacity(n);
    let mut watermarks = Vec::with_capacity(n);
    let mut qmap: HashMap<u64, (String, usize)> = HashMap::new();
    let mut max_seq = 0u64;
    for k in 0..n {
        let path = dir.join(shard_snapshot_file(k));
        if path.exists() {
            let restored = snapshot::load_shard_full(&path, dedup)?;
            for q in restored.quarantine {
                qmap.insert(q.op_hash, (q.name, q.failures));
            }
            max_seq = max_seq.max(restored.watermark);
            watermarks.push(restored.watermark);
            graphs.push(restored.graph);
        } else {
            watermarks.push(0);
            graphs.push(ExperimentGraph::new(dedup));
        }
    }

    let commit_path = dir.join(COMMIT_FILE);
    let commits = journal::replay_commits(&commit_path)?;
    let mut torn = Vec::new();
    if let Some(at) = commits.torn_at {
        torn.push((commit_path, at, commits.bytes_discarded));
    }
    let committed: HashSet<u64> = commits.records.iter().map(|r| r.seq).collect();
    for r in &commits.records {
        max_seq = max_seq.max(r.seq);
    }

    let mut deltas_applied = 0;
    let mut deltas_skipped = 0;
    let mut applied_seqs = HashSet::new();
    for (k, graph) in graphs.iter_mut().enumerate() {
        let path = dir.join(shard_journal_file(k));
        let outcome = journal::replay(&path)?;
        if let Some(at) = outcome.torn_at {
            torn.push((path, at, outcome.bytes_discarded));
        }
        for delta in &outcome.deltas {
            max_seq = max_seq.max(delta.seq);
            if delta.seq <= watermarks[k]
                || !(delta.commits_itself() || committed.contains(&delta.seq))
            {
                deltas_skipped += 1;
                continue;
            }
            applied_seqs.insert(delta.seq);
            delta.apply_to_shard(graph)?;
            for q in &delta.quarantine_set {
                qmap.insert(q.op_hash, (q.name.clone(), q.failures));
            }
            for h in &delta.quarantine_cleared {
                qmap.remove(h);
            }
            deltas_applied += 1;
        }
    }

    // Recovered stores are empty — content is never persisted — so
    // re-homing them onto the shared vault loses nothing.
    share_vault(&mut graphs, dedup);

    let unresolved_links = rewire_children(&mut graphs);
    let quarantine = qmap
        .into_iter()
        .map(|(op_hash, (name, failures))| QuarantineEntry {
            op_hash,
            name,
            failures,
        })
        .collect();
    Ok(ShardRecovery {
        graphs,
        quarantine,
        torn,
        deltas_applied,
        deltas_skipped,
        committed_publishes: applied_seqs.len(),
        max_seq,
        unresolved_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::NodeKind;
    use crate::journal::{CommitLog, CommitRecord, EgDelta, FsyncPolicy, Journal};
    use std::fs;

    fn vertex(id: u64, parents: &[u64]) -> EgVertex {
        EgVertex {
            id: ArtifactId(id),
            kind: NodeKind::Dataset,
            frequency: 1,
            compute_time: 0.5,
            size: 64,
            quality: 0.0,
            description: String::new(),
            source_name: if parents.is_empty() {
                Some("src".to_owned())
            } else {
                None
            },
            op_hash: if parents.is_empty() {
                None
            } else {
                Some(id ^ 7)
            },
            parents: parents.iter().copied().map(ArtifactId).collect(),
            children: Vec::new(),
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("co_graph_shard_{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1usize, 2, 8, 64] {
            for id in 0..200u64 {
                let k = shard_of(ArtifactId(id), n);
                assert!(k < n);
                assert_eq!(k, shard_of(ArtifactId(id), n));
            }
        }
        assert_eq!(shard_of(ArtifactId(u64::MAX), 1), 0);
        // The finalizer spreads consecutive ids: with 8 shards and 200
        // ids, every shard should see traffic.
        let mut hit = [false; 8];
        for id in 0..200u64 {
            hit[shard_of(ArtifactId(id), 8)] = true;
        }
        assert!(hit.iter().all(|h| *h), "{hit:?}");
    }

    #[test]
    fn view_routes_queries_to_the_owning_shard() {
        let n = 4;
        let mut graphs: Vec<ExperimentGraph> = (0..n).map(|_| ExperimentGraph::new(true)).collect();
        let ids = [3u64, 11, 19, 27, 35, 43];
        for &raw in &ids {
            let id = ArtifactId(raw);
            graphs[shard_of(id, n)]
                .restore_vertex_unlinked(vertex(raw, &[]))
                .unwrap();
        }
        let view = EgView::new(graphs.iter().collect());
        for &raw in &ids {
            let v = view.lookup(ArtifactId(raw)).unwrap();
            assert_eq!(v.id.0, raw);
        }
        assert!(view.lookup(ArtifactId(0xdead_beef)).is_none());
        assert_eq!(view.n_vertices(), ids.len());
    }

    #[test]
    fn whole_graph_walks_agree_at_every_shard_count() {
        // A DAG over ids 1..=40: each vertex takes one or two earlier
        // parents (id 1 and every seventh id are sources), inserted in
        // id order at 1 and at 8 shards.
        let mut vertices: Vec<EgVertex> = Vec::new();
        for id in 1..=40u64 {
            let parents: Vec<u64> = if id == 1 || id % 7 == 0 {
                Vec::new()
            } else if id % 3 == 0 {
                vec![id / 2, id - 1]
            } else {
                vec![id - 1]
            };
            let mut v = vertex(id, &parents);
            v.compute_time = 0.1 * id as f64;
            if id % 5 == 0 {
                v.kind = NodeKind::Model;
                v.quality = 1.0 / id as f64;
            }
            vertices.push(v);
        }
        let build = |n: usize| {
            let mut graphs: Vec<ExperimentGraph> =
                (0..n).map(|_| ExperimentGraph::new(true)).collect();
            for v in &vertices {
                graphs[shard_of(v.id, n)]
                    .restore_vertex_unlinked(v.clone())
                    .unwrap();
            }
            assert!(rewire_children(&mut graphs).is_empty());
            graphs
        };
        let one = build(1);
        let eight = build(8);
        let (v1, v8) = (
            EgView::new(one.iter().collect()),
            EgView::new(eight.iter().collect()),
        );
        assert!(matches!(v1.topo_order(), Cow::Borrowed(_)));
        let order = v8.topo_order();
        assert_eq!(order.len(), vertices.len());
        let pos: HashMap<ArtifactId, usize> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for v in &vertices {
            for p in &v.parents {
                assert!(
                    pos[p] < pos[&v.id],
                    "{p:?} placed after its child {:?}",
                    v.id
                );
            }
        }
        assert_eq!(order, v8.topo_order(), "the merge is deterministic");
        assert_eq!(v1.recreation_costs(), v8.recreation_costs());
        assert_eq!(v1.potentials(), v8.potentials());
        let mut sources: Vec<ArtifactId> = v8.sources().collect();
        sources.sort_unstable();
        assert_eq!(sources, v1.sources().collect::<Vec<_>>());
    }

    #[test]
    fn contended_write_lock_is_accounted() {
        let eg = Arc::new(ShardedEg::new(2, true));
        let held = Arc::clone(&eg);
        let guard = held.write(0);
        let other = Arc::clone(&eg);
        let waiter = std::thread::spawn(move || {
            let _g = other.write(0);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard);
        waiter.join().unwrap();
        let waits = eg.lock_wait_ns();
        assert!(waits[0] > 0, "{waits:?}");
        assert_eq!(waits[1], 0);
    }

    #[test]
    fn rewire_links_children_across_shards() {
        // Parent 3 and child 5 land in different shards of a 4-way
        // split (verified below), each restored unlinked.
        let n = 4;
        let (p, c) = (3u64, 5u64);
        assert_ne!(shard_of(ArtifactId(p), n), shard_of(ArtifactId(c), n));
        let mut graphs: Vec<ExperimentGraph> = (0..n).map(|_| ExperimentGraph::new(true)).collect();
        graphs[shard_of(ArtifactId(p), n)]
            .restore_vertex_unlinked(vertex(p, &[]))
            .unwrap();
        graphs[shard_of(ArtifactId(c), n)]
            .restore_vertex_unlinked(vertex(c, &[p]))
            .unwrap();
        let unresolved = rewire_children(&mut graphs);
        assert!(unresolved.is_empty(), "{unresolved:?}");
        let parent_shard = &graphs[shard_of(ArtifactId(p), n)];
        assert_eq!(
            parent_shard.vertex(ArtifactId(p)).unwrap().children,
            vec![ArtifactId(c)]
        );
        // A vertex whose parent exists nowhere is reported.
        graphs[shard_of(ArtifactId(9), n)]
            .restore_vertex_unlinked(vertex(9, &[0xdead]))
            .unwrap();
        let unresolved = rewire_children(&mut graphs);
        assert_eq!(unresolved, vec![(ArtifactId(0xdead), ArtifactId(9))]);
    }

    #[test]
    fn recovery_keeps_exactly_the_committed_prefix() {
        let dir = tmp_dir("committed_prefix");
        let n = 2;
        // Publish 1 touches one shard: its record commits itself, no
        // commit-log entry. Publish 2 spans both shards and commits. Publish
        // 3 spans both shards too, but the crash hit between its per-shard
        // appends and the commit append: vertex 9 with parent 3, plus a
        // frequency bump of 3, both rolled back.
        let (a, b, c) = (3u64, 5u64, 9u64);
        let ka = shard_of(ArtifactId(a), n);
        let kb = shard_of(ArtifactId(b), n);
        let kc = shard_of(ArtifactId(c), n);
        assert_ne!(ka, kb);
        assert_ne!(ka, kc);
        let mut journals: Vec<Journal> = (0..n)
            .map(|k| Journal::open(&dir.join(shard_journal_file(k)), FsyncPolicy::Always).unwrap())
            .collect();
        let mut commit = CommitLog::open(&dir.join(COMMIT_FILE)).unwrap();
        let record = |seq: u64, shards_touched: u32| EgDelta {
            seq,
            shards_touched,
            ..EgDelta::default()
        };
        let bump = |freq: u64| journal::VertexTouch {
            id: ArtifactId(a),
            frequency: freq,
            compute_time: 0.5,
            size: 64,
            quality: 0.0,
        };
        let mut publish1 = record(1, 1);
        publish1.new_vertices.push(vertex(a, &[]));
        journals[ka].append(&publish1, None).unwrap();

        let mut publish2 = record(2, 2);
        publish2.new_vertices.push(vertex(b, &[a]));
        journals[kb].append(&publish2, None).unwrap();
        let mut publish2_bump = record(2, 2);
        publish2_bump.touched.push(bump(2));
        journals[ka].append(&publish2_bump, None).unwrap();
        let all = |ks: [usize; 2]| ks.iter().map(|k| u32::try_from(*k).unwrap()).collect();
        let mut ordered = [ka, kb];
        ordered.sort_unstable();
        commit
            .append(
                &CommitRecord {
                    seq: 2,
                    shards: all(ordered),
                },
                None,
            )
            .unwrap();

        let mut publish3 = record(3, 2);
        publish3.new_vertices.push(vertex(c, &[a]));
        journals[kc].append(&publish3, None).unwrap();
        let mut publish3_bump = record(3, 2);
        publish3_bump.touched.push(bump(3));
        journals[ka].append(&publish3_bump, None).unwrap();
        // No commit record for seq 3: the publish rolls back whole.
        drop(journals);
        drop(commit);

        let rec = recover_shards(&dir, n, true).unwrap();
        assert_eq!(rec.deltas_applied, 3);
        assert_eq!(rec.deltas_skipped, 2);
        assert_eq!(rec.committed_publishes, 2);
        assert_eq!(rec.max_seq, 3);
        assert!(rec.torn.is_empty());
        assert!(rec.unresolved_links.is_empty());
        assert_eq!(rec.graphs[ka].vertex(ArtifactId(a)).unwrap().frequency, 2);
        assert!(rec.graphs[kb].contains(ArtifactId(b)));
        assert!(!rec.graphs[kc].contains(ArtifactId(c)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_seqless_records_in_sharded_journals() {
        // A record that passes its CRC but has no `S` line cannot be
        // placed against the watermark or the commit log: recovery
        // reports it as corruption instead of guessing.
        let dir = tmp_dir("seqless");
        let path = dir.join(shard_journal_file(0));
        drop(Journal::open(&path, FsyncPolicy::Always).unwrap());
        let delta = EgDelta {
            seq: 1,
            shards_touched: 1,
            new_vertices: vec![vertex(1, &[])],
            ..EgDelta::default()
        };
        let encoded = delta.encode();
        let (s_line, payload) = encoded.split_once('\n').unwrap();
        assert!(s_line.starts_with("S\t"), "{s_line}");
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(&journal::crc32(payload.as_bytes()).to_le_bytes());
        frame.extend_from_slice(payload.as_bytes());
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        std::io::Write::write_all(&mut file, &frame).unwrap();
        drop(file);
        let err = recover_shards(&dir, 2, true).err().unwrap();
        assert!(err.to_string().contains("no S entry"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_graph_shares_one_vault() {
        let eg = ShardedEg::new(4, true);
        let vault = Arc::clone(eg.read(0).storage().vault().unwrap());
        for k in 0..4 {
            let shard = eg.read(k);
            assert!(Arc::ptr_eq(shard.storage().vault().unwrap(), &vault));
        }
        // One shard and non-dedup stores get no vault.
        assert!(ShardedEg::new(1, true).read(0).storage().vault().is_none());
        assert!(ShardedEg::new(4, false).read(0).storage().vault().is_none());
    }

    #[test]
    fn witness_catches_descending_two_shard_write() {
        if !lockorder::ENABLED {
            // Release build without the lock-witness feature: the
            // witness is compiled out; nothing to observe.
            return;
        }
        let eg = ShardedEg::new(4, false);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _hi = eg.write(3);
            // Deliberate protocol violation: descending second write.
            let _lo = eg.write(1);
        }))
        .expect_err("descending write must be caught before it can deadlock");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("descending write"), "{msg}");
        // Both offending acquisition sites are named (this file).
        assert_eq!(msg.matches("shard.rs").count(), 2, "{msg}");
        // The witness unwound cleanly: the graph is usable afterwards.
        let _lo = eg.write(1);
        let _hi = eg.write(3);
    }

    #[test]
    fn witness_accepts_protocol_locking() {
        let eg = ShardedEg::new(4, false);
        drop(eg.read_all());
        drop(eg.write_all());
        let _r = eg.read(1);
        let _w = eg.write(2);
    }
}
