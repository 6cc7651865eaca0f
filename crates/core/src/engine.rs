//! The localized execution engine (§2, §3): graph updating + graph
//! computing, with safe/unsafe classification (§4).
//!
//! [`Engine`] owns the graph store and one tree & value store per
//! maintained algorithm. Its responsibilities:
//!
//! * apply structural updates to the Indexed Adjacency Lists;
//! * incrementally repair every algorithm's values and dependency tree
//!   (insert → relax + push propagation; tree-edge delete → subtree
//!   invalidation, trimmed approximation, push propagation);
//! * classify updates as **safe** (provably result-preserving, §4's
//!   three rules) or **unsafe**, and *revalidate* safe updates at
//!   execution time so the epoch loop's parallel phase stays correct;
//! * expose per-update change records (vertex, old value, new value)
//!   for the history store.
//!
//! Concurrency contract: `try_apply_safe` may be called from many
//! threads at once (no results change by construction) — the sharded
//! epoch loop's shard executors all enter here through `&self` during
//! the parallel safe phase; `apply_unsafe` must be called from one
//! thread at a time, with no concurrent safe applications — exactly
//! the phase discipline the epoch loop's shard barrier enforces. The
//! one sanctioned relaxation is [`Engine::apply_unsafe_sequential`]:
//! calls whose affected areas (see [`crate::affected::footprint`]) are
//! pairwise-disjoint vertex sets may run concurrently, because every
//! structure touched — per-vertex tree slots, store stripes, atomic
//! counters — is safe under disjoint-vertex concurrency and the
//! sequential push mode never shares the worker pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use risgraph_algorithms::Monotonic;
use risgraph_common::hash::FxHashSet;
use risgraph_common::ids::{Edge, Update, VertexId};
use risgraph_common::Result;
use risgraph_storage::adjacency::DeleteOutcome;
use risgraph_storage::index::EdgeIndex;
use risgraph_storage::{DefaultStore, DynamicGraph, GraphStore, StoreConfig};

use crate::pool::WorkerPool;
use crate::push::{PushConfig, PushCtx, PushResult};
use crate::tree::{TreeStore, Value, VertexState};

/// A type-erased monotonic algorithm over the engine's value type.
pub type DynAlgorithm = Arc<dyn Monotonic<Value = Value>>;

/// Where [`Engine::load_edges`] spent its time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadTiming {
    /// Capacity growth plus the structure build.
    pub ingest: Duration,
    /// The initial computation of every algorithm.
    pub compute: Duration,
}

/// Engine construction parameters.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads for intra-update parallelism.
    pub threads: usize,
    /// Degree threshold for per-vertex edge indexes (§5: 512).
    pub index_threshold: usize,
    /// Push-propagation tuning (Hybrid Parallel Mode).
    pub push: PushConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            index_threshold: risgraph_storage::DEFAULT_INDEX_THRESHOLD,
            push: PushConfig::default(),
        }
    }
}

/// §4's classification of an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Safety {
    /// Provably cannot modify any result or dependency tree: may run in
    /// the parallel phase.
    Safe,
    /// May modify results: runs serially with intra-update parallelism.
    Unsafe,
}

/// Result of attempting a safe-phase application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeApply {
    /// Applied; no result changed.
    Applied,
    /// Revalidation failed (a concurrent safe update consumed the last
    /// duplicate, or the original classification is stale): the caller
    /// must requeue this update as unsafe.
    Demoted,
}

/// One vertex's result change within one update, for one algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeRecord {
    /// The modified vertex.
    pub vertex: VertexId,
    /// Value before the update.
    pub old: Value,
    /// Value after the update.
    pub new: Value,
    /// Dependency-tree parent edge before the update.
    pub old_parent: Option<Edge>,
    /// Dependency-tree parent edge after the update.
    pub new_parent: Option<Edge>,
}

impl ChangeRecord {
    /// Whether the *result value* changed (Table 4 counts these; a
    /// record may also exist because only the tree rewired).
    pub fn value_changed(&self) -> bool {
        self.old != self.new
    }
}

/// All result changes of one update, grouped by algorithm index.
#[derive(Debug, Clone, Default)]
pub struct ChangeSet {
    /// `per_algo[i]` lists the changes of algorithm `i`.
    pub per_algo: Vec<Vec<ChangeRecord>>,
}

impl ChangeSet {
    /// True when no algorithm's results changed.
    pub fn is_empty(&self) -> bool {
        self.per_algo.iter().all(|c| c.is_empty())
    }

    /// Total change records across algorithms.
    pub fn len(&self) -> usize {
        self.per_algo.iter().map(|c| c.len()).sum()
    }
}

/// Wall-time and count statistics, feeding Figure 11b's breakdown.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Updates applied through the unsafe path.
    pub unsafe_applied: AtomicU64,
    /// Updates applied through the safe path.
    pub safe_applied: AtomicU64,
    /// Safe applications demoted at revalidation.
    pub demoted: AtomicU64,
    /// Nanoseconds in the graph updating engine (structure mutation).
    pub update_ns: AtomicU64,
    /// Nanoseconds in the graph computing engine (propagation).
    pub compute_ns: AtomicU64,
    /// Nanoseconds classifying updates (the CC module).
    pub classify_ns: AtomicU64,
    /// Edges relaxed by propagation.
    pub edges_relaxed: AtomicU64,
}

impl EngineStats {
    fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }
}

struct AlgoState {
    alg: DynAlgorithm,
    tree: TreeStore,
}

struct CoreState<G: DynamicGraph> {
    store: G,
    algos: Vec<AlgoState>,
}

/// The RisGraph execution engine, generic over the storage backend
/// (`G: DynamicGraph`; the paper-default Indexed Adjacency Lists with
/// hash indexes — Table 8's IA_Hash — unless specified).
///
/// Use [`Engine::new`] for an IA store, or [`Engine::from_store`] to
/// drive any backend (index-only, out-of-core, or a runtime-selected
/// [`risgraph_storage::AnyStore`]).
pub struct Engine<G: DynamicGraph = DefaultStore> {
    state: RwLock<CoreState<G>>,
    pool: Arc<WorkerPool>,
    config: EngineConfig,
    epoch: AtomicU64,
    stats: EngineStats,
}

impl<I: EdgeIndex> Engine<GraphStore<I>> {
    /// Create an engine maintaining `algorithms` over an empty Indexed
    /// Adjacency Lists store with vertex capacity `capacity`.
    pub fn new(algorithms: Vec<DynAlgorithm>, capacity: usize, config: EngineConfig) -> Self {
        let store = GraphStore::with_config(
            capacity,
            StoreConfig {
                index_threshold: config.index_threshold,
                auto_create_vertices: true,
            },
        );
        Self::from_store(store, algorithms, config)
    }

    /// Convenience: single algorithm over the IA store.
    pub fn with_algorithm(alg: impl Monotonic<Value = Value>, capacity: usize) -> Self {
        Self::new(vec![Arc::new(alg)], capacity, EngineConfig::default())
    }
}

impl<G: DynamicGraph> Engine<G> {
    /// Create an engine maintaining `algorithms` over a caller-built
    /// storage backend. The tree stores size themselves to the store's
    /// current capacity and grow with it.
    pub fn from_store(store: G, algorithms: Vec<DynAlgorithm>, config: EngineConfig) -> Self {
        assert!(!algorithms.is_empty(), "need at least one algorithm");
        let capacity = store.capacity();
        let algos = algorithms
            .into_iter()
            .map(|alg| {
                let init_alg = Arc::clone(&alg);
                AlgoState {
                    tree: TreeStore::new(capacity, move |v| init_alg.init_val(v)),
                    alg,
                }
            })
            .collect();
        let pool = Arc::new(WorkerPool::new(config.threads));
        Engine {
            state: RwLock::new(CoreState { store, algos }),
            pool,
            config,
            epoch: AtomicU64::new(1),
            stats: EngineStats::default(),
        }
    }

    /// Number of maintained algorithms.
    pub fn num_algorithms(&self) -> usize {
        self.state.read().algos.len()
    }

    /// Name of algorithm `i`.
    pub fn algorithm_name(&self, i: usize) -> &'static str {
        self.state.read().algos[i].alg.name()
    }

    /// The worker pool (shared with the epoch loop).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Statistics counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Grow vertex capacity (epoch-boundary only; takes the write lock).
    pub fn ensure_capacity(&self, n: usize) {
        let mut st = self.state.write();
        st.store.ensure_capacity(n);
        for a in &mut st.algos {
            a.tree.ensure_capacity(n);
        }
    }

    /// Current vertex capacity.
    pub fn capacity(&self) -> usize {
        self.state.read().store.capacity()
    }

    /// Live vertex count.
    pub fn num_vertices(&self) -> u64 {
        self.state.read().store.num_vertices()
    }

    /// Live edge count (duplicates included).
    pub fn num_edges(&self) -> u64 {
        self.state.read().store.num_edges()
    }

    /// Current value of `v` under algorithm `algo`.
    pub fn value(&self, algo: usize, v: VertexId) -> Value {
        self.state.read().algos[algo].tree.value(v)
    }

    /// Current dependency-tree parent edge of `v` under algorithm `algo`.
    pub fn parent(&self, algo: usize, v: VertexId) -> Option<Edge> {
        self.state.read().algos[algo].tree.parent(v)
    }

    /// Snapshot all values of algorithm `algo` for `0..n`.
    pub fn values_snapshot(&self, algo: usize, n: usize) -> Vec<Value> {
        let st = self.state.read();
        (0..n as u64)
            .map(|v| st.algos[algo].tree.value(v))
            .collect()
    }

    /// Run `f` with the underlying store (read phase).
    pub fn with_store<R>(&self, f: impl FnOnce(&G) -> R) -> R {
        f(&self.state.read().store)
    }

    /// The storage backend's display label.
    pub fn backend_name(&self) -> &'static str {
        self.state.read().store.backend_name()
    }

    /// Export the live structure as a synthetic update batch — an
    /// `InsVertex` per live vertex (so isolated vertices survive),
    /// then every edge repeated by its multiplicity, in vertex order —
    /// such that applying it to an empty store reproduces the graph on
    /// any backend. Checkpoint capture; call at an epoch boundary.
    pub fn export_structure(&self) -> Vec<Update> {
        let st = self.state.read();
        let mut verts = Vec::new();
        st.store.for_each_vertex(&mut |v| verts.push(v));
        verts.sort_unstable();
        let mut out = Vec::with_capacity(verts.len());
        for &v in &verts {
            out.push(Update::InsVertex(v));
        }
        for &v in &verts {
            st.store.scan_out(v, &mut |d, w, c| {
                for _ in 0..c {
                    out.push(Update::InsEdge(Edge::new(v, d, w)));
                }
            });
        }
        out
    }

    /// Export every algorithm's dependency-tree state for vertices
    /// `0..n` (checkpoint capture; call at an epoch boundary).
    pub fn results_snapshot(&self, n: usize) -> Vec<Vec<VertexState>> {
        let st = self.state.read();
        st.algos
            .iter()
            .map(|a| (0..n as u64).map(|v| a.tree.get(v)).collect())
            .collect()
    }

    /// Install previously exported result states (checkpoint restore).
    /// The matching structure must already be applied and capacity
    /// ensured; skips silently past states beyond current capacity.
    pub fn restore_results(&self, per_algo: &[Vec<VertexState>]) {
        let st = self.state.read();
        assert_eq!(
            per_algo.len(),
            st.algos.len(),
            "result snapshot algorithm count mismatch"
        );
        for (a, states) in st.algos.iter().zip(per_algo) {
            let n = states.len().min(a.tree.capacity());
            for (v, s) in states.iter().take(n).enumerate() {
                a.tree.restore(v as u64, *s);
            }
        }
    }

    fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Bulk-load edges and compute initial results for every algorithm,
    /// returning where the time went. The structure goes in through the
    /// store's bulk ingest ([`DynamicGraph::insert_edges`]) under the
    /// state write lock, order free: on the IA backends an O(E)
    /// counting-sort build whose layout does not depend on the thread
    /// count, on the others the per-edge loop split over the pool. The
    /// initial push that follows is pool-parallel.
    pub fn load_edges(&self, edges: &[(VertexId, VertexId, u64)]) -> LoadTiming {
        let t0 = Instant::now();
        let max_v = edges
            .iter()
            .map(|&(s, d, _)| s.max(d) + 1)
            .max()
            .unwrap_or(0);
        self.ensure_capacity(max_v as usize);
        let edge = |i: usize| {
            let (s, d, w) = edges[i];
            Edge::new(s, d, w)
        };
        let rejected =
            self.state
                .write()
                .store
                .insert_edges(edges.len(), &edge, &*self.pool, false);
        assert_eq!(rejected, 0, "capacity ensured");
        let ingest = t0.elapsed();
        let t1 = Instant::now();
        self.recompute_all();
        LoadTiming {
            ingest,
            compute: t1.elapsed(),
        }
    }

    /// Recompute every algorithm from scratch (initial load; also the
    /// recovery path after WAL replay).
    pub fn recompute_all(&self) {
        let st = self.state.read();
        let mut seeds = Vec::new();
        st.store.for_each_vertex(&mut |v| seeds.push(v));
        let epoch = self.next_epoch();
        for a in &st.algos {
            // Reset to initial values first so recompute is idempotent.
            for &v in &seeds {
                a.tree.reset(v, epoch);
            }
            let ctx = PushCtx {
                store: &st.store,
                alg: a.alg.as_ref(),
                tree: &a.tree,
                pool: &self.pool,
                config: &self.config.push,
                epoch,
            };
            ctx.propagate(seeds.clone());
        }
    }

    // ------------------------------------------------------------------
    // Classification (§4)
    // ------------------------------------------------------------------

    fn insert_is_safe(a: &AlgoState, e: Edge) -> bool {
        let cand = a.alg.gen_next(e, a.tree.value(e.src));
        if a.alg.need_upd(e.dst, a.tree.value(e.dst), cand) {
            return false;
        }
        if a.alg.undirected() {
            let r = e.reversed();
            let cand = a.alg.gen_next(r, a.tree.value(r.src));
            if a.alg.need_upd(r.dst, a.tree.value(r.dst), cand) {
                return false;
            }
        }
        true
    }

    fn delete_touches_tree(a: &AlgoState, e: Edge) -> bool {
        a.tree.is_tree_edge(e) || (a.alg.undirected() && a.tree.is_tree_edge(e.reversed()))
    }

    /// Classify an update per §4: vertex ops are safe; a deletion is
    /// safe when a duplicate remains or the edge is off-tree for every
    /// algorithm; an insertion is safe when it improves no destination
    /// under any algorithm. O(#algorithms), no scanning.
    pub fn classify(&self, u: &Update) -> Safety {
        let t0 = std::time::Instant::now();
        let st = self.state.read();
        let safety = match u {
            Update::InsVertex(_) | Update::DelVertex(_) => Safety::Safe,
            Update::InsEdge(e) => {
                if e.src as usize >= st.store.capacity() || e.dst as usize >= st.store.capacity() {
                    // Will be executed after a capacity grow; values of
                    // fresh vertices are initial, so insertion safety
                    // must be judged then. Conservatively unsafe.
                    Safety::Unsafe
                } else if st.algos.iter().all(|a| Self::insert_is_safe(a, *e)) {
                    Safety::Safe
                } else {
                    Safety::Unsafe
                }
            }
            Update::DelEdge(e) => {
                if e.src as usize >= st.store.capacity() || e.dst as usize >= st.store.capacity() {
                    Safety::Safe // nonexistent edge: fails fast, no results touched
                } else {
                    let count = st.store.edge_count(*e);
                    if count == 0 || count > 1 {
                        Safety::Safe
                    } else if st.algos.iter().any(|a| Self::delete_touches_tree(a, *e)) {
                        Safety::Unsafe
                    } else {
                        Safety::Safe
                    }
                }
            }
        };
        EngineStats::add(&self.stats.classify_ns, t0.elapsed().as_nanos() as u64);
        safety
    }

    /// Classify a write-only transaction: safe iff every constituent
    /// update is safe (§4 "Supporting Transactions").
    pub fn classify_txn(&self, updates: &[Update]) -> Safety {
        if updates.iter().all(|u| self.classify(u) == Safety::Safe) {
            Safety::Safe
        } else {
            Safety::Unsafe
        }
    }

    // ------------------------------------------------------------------
    // Safe path (parallel phase)
    // ------------------------------------------------------------------

    /// Apply a safe-classified update, revalidating under the adjacency
    /// locks. May be called concurrently from many threads — this is
    /// the safe-path entry point the epoch loop's shard executors drive
    /// over `&G` during the parallel phase. Returns
    /// [`SafeApply::Demoted`] when the update can no longer be proven
    /// safe and must be retried on the unsafe path.
    pub fn try_apply_safe(&self, u: &Update) -> Result<SafeApply> {
        let scratch = AtomicU64::new(0);
        self.try_apply_safe_seq(u, &scratch).map(|(o, _)| o)
    }

    /// [`Self::try_apply_safe`] that additionally draws a WAL sequence
    /// stamp from `seq` for applied updates — *inside* the store
    /// synchronization that serializes same-edge operations for edge
    /// updates (see [`DynamicGraph::insert_edge_seq`]), and under the
    /// vertex-lifecycle reservation for vertex updates (see
    /// [`DynamicGraph::insert_vertex_seq`]). The epoch loop orders
    /// its merged per-epoch WAL record by these stamps so replay
    /// reproduces the cross-shard application order exactly, closing
    /// the same-edge count-race linearization caveat. Returns the stamp
    /// (`None` when nothing was applied).
    pub fn try_apply_safe_seq(
        &self,
        u: &Update,
        seq: &AtomicU64,
    ) -> Result<(SafeApply, Option<u64>)> {
        let t0 = std::time::Instant::now();
        let st = self.state.read();
        let (outcome, stamp) = match u {
            Update::InsVertex(v) => {
                let stamp = st.store.insert_vertex_seq(*v, seq)?;
                (SafeApply::Applied, Some(stamp))
            }
            Update::DelVertex(v) => {
                let stamp = st.store.delete_vertex_seq(*v, seq)?;
                (SafeApply::Applied, Some(stamp))
            }
            Update::InsEdge(e) => {
                // Values are frozen during the safe phase, so the
                // improvement check is stable; only re-check it in case
                // classification happened in an earlier epoch.
                if st.algos.iter().all(|a| Self::insert_is_safe(a, *e)) {
                    let (_, stamp) = st.store.insert_edge_seq(*e, seq)?;
                    (SafeApply::Applied, Some(stamp))
                } else {
                    (SafeApply::Demoted, None)
                }
            }
            Update::DelEdge(e) => {
                // Count-dependent safety must be revalidated atomically:
                // a concurrent safe delete may consume the last
                // duplicate.
                let algos = &st.algos;
                match st.store.delete_edge_if_seq(
                    *e,
                    &mut |count| {
                        count > 1 || !algos.iter().any(|a| Self::delete_touches_tree(a, *e))
                    },
                    seq,
                )? {
                    Some((_, stamp)) => (SafeApply::Applied, Some(stamp)),
                    None => (SafeApply::Demoted, None),
                }
            }
        };
        match outcome {
            SafeApply::Applied => EngineStats::add(&self.stats.safe_applied, 1),
            SafeApply::Demoted => EngineStats::add(&self.stats.demoted, 1),
        }
        EngineStats::add(&self.stats.update_ns, t0.elapsed().as_nanos() as u64);
        Ok((outcome, stamp))
    }

    // ------------------------------------------------------------------
    // Unsafe path (serial phase, intra-update parallel)
    // ------------------------------------------------------------------

    /// Apply any update with full incremental recomputation, using the
    /// configured (possibly pool-parallel) push propagation. Must not
    /// run concurrently with other applications (single-writer phase).
    pub fn apply_unsafe(&self, u: &Update) -> Result<ChangeSet> {
        self.apply_unsafe_inner(u, &self.config.push)
    }

    /// [`Self::apply_unsafe`] with strictly sequential propagation:
    /// the push config is pinned so push propagation never enters
    /// pull mode or the shared worker pool. Unlike
    /// `apply_unsafe`, concurrent calls are permitted **iff** their
    /// affected areas (see [`crate::affected::footprint`]) are
    /// pairwise-disjoint vertex sets: per-vertex tree slots, store
    /// stripes and atomic epoch/stat counters make disjoint-vertex
    /// execution race-free. The server's parallel unsafe phase is the
    /// caller that discharges that obligation.
    pub fn apply_unsafe_sequential(&self, u: &Update) -> Result<ChangeSet> {
        let push = PushConfig {
            sequential_grain: usize::MAX,
            pull_threshold: 1.0,
            forced_mode: None,
            ..self.config.push.clone()
        };
        self.apply_unsafe_inner(u, &push)
    }

    fn apply_unsafe_inner(&self, u: &Update, push: &PushConfig) -> Result<ChangeSet> {
        let st = self.state.read();
        let epoch = self.next_epoch();
        let t0 = std::time::Instant::now();
        let mut changes = ChangeSet {
            per_algo: vec![Vec::new(); st.algos.len()],
        };
        match u {
            Update::InsVertex(v) => {
                st.store.insert_vertex(*v)?;
                EngineStats::add(&self.stats.update_ns, t0.elapsed().as_nanos() as u64);
            }
            Update::DelVertex(v) => {
                st.store.delete_vertex(*v)?;
                EngineStats::add(&self.stats.update_ns, t0.elapsed().as_nanos() as u64);
            }
            Update::InsEdge(e) => {
                st.store.insert_edge(*e)?;
                EngineStats::add(&self.stats.update_ns, t0.elapsed().as_nanos() as u64);
                let tc = std::time::Instant::now();
                for (i, a) in st.algos.iter().enumerate() {
                    changes.per_algo[i] = self.algo_on_insert(&st, a, *e, epoch, push);
                }
                EngineStats::add(&self.stats.compute_ns, tc.elapsed().as_nanos() as u64);
            }
            Update::DelEdge(e) => {
                let outcome = st.store.delete_edge(*e)?;
                EngineStats::add(&self.stats.update_ns, t0.elapsed().as_nanos() as u64);
                if outcome == DeleteOutcome::Removed {
                    let tc = std::time::Instant::now();
                    for (i, a) in st.algos.iter().enumerate() {
                        changes.per_algo[i] = self.algo_on_delete(&st, a, *e, epoch, push);
                    }
                    EngineStats::add(&self.stats.compute_ns, tc.elapsed().as_nanos() as u64);
                }
            }
        }
        EngineStats::add(&self.stats.unsafe_applied, 1);
        Ok(changes)
    }

    /// Apply one update to the graph structure only, without touching
    /// any algorithm state (the replica's live safe updates and its
    /// reset use it; whole batches go through
    /// [`Self::apply_structure_batch`]). Takes the state read lock, so
    /// it may run alongside other `&self` operations.
    pub fn apply_structure(&self, u: &Update) -> Result<()> {
        Self::structure_op(&self.state.read().store, u)
    }

    fn structure_op(store: &G, u: &Update) -> Result<()> {
        match u {
            Update::InsVertex(v) => store.insert_vertex(*v),
            Update::DelVertex(v) => store.delete_vertex(*v),
            Update::InsEdge(e) => store.insert_edge(*e).map(|_| ()),
            Update::DelEdge(e) => store.delete_edge(*e).map(|_| ()),
        }
    }

    /// Apply a batch of structural updates in order, without touching
    /// any algorithm state, and return how many failed (each is skipped,
    /// as [`Self::apply_structure`] would fail it). Runs of consecutive
    /// `InsEdge` go through the store's bulk ingest
    /// ([`DynamicGraph::insert_edges`]: an O(E) counting-sort build on
    /// the IA stores, split over the worker pool); every other update
    /// through the per-update path. Holds the state **write** lock
    /// throughout, so no reader sees an out-list without its transpose.
    /// Capacity must already cover the batch. Checkpoint restore, WAL
    /// replay and a follower's snapshot and bootstrap records all load
    /// through it ([`Self::load_edges`] calls the bulk ingest directly).
    pub fn apply_structure_batch(&self, batch: &[Update]) -> usize {
        let mut st = self.state.write();
        let mut failed = 0;
        let mut rest = batch;
        while let Some(first) = rest.first() {
            let run = rest
                .iter()
                .take_while(|u| matches!(u, Update::InsEdge(_)))
                .count();
            if run == 0 {
                failed += Self::structure_op(&st.store, first).is_err() as usize;
                rest = &rest[1..];
                continue;
            }
            let inserts = &rest[..run];
            let edge = |i: usize| match inserts[i] {
                Update::InsEdge(e) => e,
                other => unreachable!("insertion run holds {other:?}"),
            };
            failed += st.store.insert_edges(run, &edge, &*self.pool, true);
            rest = &rest[run..];
        }
        failed
    }

    /// Convenience entry point: grow capacity as needed, classify, and
    /// run the matching path. Returns the classification and changes.
    /// Not for concurrent use — the epoch loop drives the two paths
    /// explicitly.
    pub fn apply(&self, u: &Update) -> Result<(Safety, ChangeSet)> {
        let need = match u {
            Update::InsEdge(e) | Update::DelEdge(e) => e.src.max(e.dst) + 1,
            Update::InsVertex(v) | Update::DelVertex(v) => v + 1,
        };
        if need as usize > self.capacity() {
            self.ensure_capacity(need as usize);
        }
        match self.classify(u) {
            Safety::Safe => match self.try_apply_safe(u)? {
                SafeApply::Applied => Ok((
                    Safety::Safe,
                    ChangeSet {
                        per_algo: vec![Vec::new(); self.num_algorithms()],
                    },
                )),
                SafeApply::Demoted => Ok((Safety::Unsafe, self.apply_unsafe(u)?)),
            },
            Safety::Unsafe => Ok((Safety::Unsafe, self.apply_unsafe(u)?)),
        }
    }

    fn push_ctx<'a>(
        &'a self,
        st: &'a CoreState<G>,
        a: &'a AlgoState,
        epoch: u64,
        push: &'a PushConfig,
    ) -> PushCtx<'a, G> {
        PushCtx {
            store: &st.store,
            alg: a.alg.as_ref(),
            tree: &a.tree,
            pool: &self.pool,
            config: push,
            epoch,
        }
    }

    fn collect_changes(a: &AlgoState, raw: Vec<(VertexId, VertexState)>) -> Vec<ChangeRecord> {
        raw.into_iter()
            .filter_map(|(v, old)| {
                let new = a.tree.get(v);
                let rec = ChangeRecord {
                    vertex: v,
                    old: old.value,
                    new: new.value,
                    old_parent: old.parent_edge(v),
                    new_parent: new.parent_edge(v),
                };
                (rec.old != rec.new || rec.old_parent != rec.new_parent).then_some(rec)
            })
            .collect()
    }

    /// Insertion repair: relax the new edge; on improvement, propagate.
    fn algo_on_insert(
        &self,
        st: &CoreState<G>,
        a: &AlgoState,
        e: Edge,
        epoch: u64,
        push: &PushConfig,
    ) -> Vec<ChangeRecord> {
        let ctx = self.push_ctx(st, a, epoch, push);
        let mut result = PushResult::default();
        let mut frontier = Vec::new();
        for edge in Self::orientations(a, e) {
            let cand = a.alg.gen_next(edge, a.tree.value(edge.src));
            if let Some((old, first)) =
                a.tree
                    .try_update(edge.dst, Some((edge.src, edge.data)), epoch, |cur| {
                        a.alg.need_upd(edge.dst, cur, cand).then_some(cand)
                    })
            {
                if first {
                    result.changed.push((edge.dst, old));
                }
                frontier.push(edge.dst);
            }
        }
        ctx.propagate_into(frontier, &mut result);
        EngineStats::add(&self.stats.edges_relaxed, result.edges_relaxed);
        Self::collect_changes(a, result.changed)
    }

    fn orientations(a: &AlgoState, e: Edge) -> Vec<Edge> {
        if a.alg.undirected() && e.src != e.dst {
            vec![e, e.reversed()]
        } else {
            vec![e]
        }
    }

    /// Deletion repair (§2): if the deleted edge was a dependency-tree
    /// edge, invalidate the subtree below it, re-seed invalidated
    /// vertices from their unaffected in-neighbours (trimmed
    /// approximation), and propagate to fixpoint.
    fn algo_on_delete(
        &self,
        st: &CoreState<G>,
        a: &AlgoState,
        e: Edge,
        epoch: u64,
        push: &PushConfig,
    ) -> Vec<ChangeRecord> {
        let mut roots = Vec::new();
        if a.tree.is_tree_edge(e) {
            roots.push(e.dst);
        }
        if a.alg.undirected() && a.tree.is_tree_edge(e.reversed()) {
            roots.push(e.src);
        }
        if roots.is_empty() {
            return Vec::new(); // §4 rule 2: off-tree deletions change nothing
        }

        // 1. Collect the invalidated subtree. Children of `v` are exactly
        //    the adjacent vertices whose parent pointer is (v, weight) —
        //    discoverable from v's own adjacency, keeping this localized.
        let undirected = a.alg.undirected();
        let mut in_sub: FxHashSet<VertexId> = FxHashSet::default();
        let mut stack = roots.clone();
        let mut sub = Vec::new();
        for &r in &roots {
            in_sub.insert(r);
        }
        while let Some(v) = stack.pop() {
            sub.push(v);
            {
                let (stack_ref, in_sub_ref) = (&mut stack, &mut in_sub);
                st.store.scan_out(v, &mut |d, w, _| {
                    if a.tree.is_tree_edge(Edge::new(v, d, w)) && in_sub_ref.insert(d) {
                        stack_ref.push(d);
                    }
                });
            }
            if undirected {
                let (stack_ref, in_sub_ref) = (&mut stack, &mut in_sub);
                st.store.scan_in(v, &mut |d, w, _| {
                    if a.tree.is_tree_edge(Edge::new(v, d, w)) && in_sub_ref.insert(d) {
                        stack_ref.push(d);
                    }
                });
            }
        }

        // 2. Reset the subtree to initial values (recording pre-update
        //    states exactly once per vertex via the epoch stamp).
        let mut result = PushResult::default();
        for &v in &sub {
            let (old, first) = a.tree.reset(v, epoch);
            if first {
                result.changed.push((v, old));
            }
        }

        // 3. Trimmed approximation: seed each invalidated vertex with its
        //    best candidate from current neighbour values (unaffected
        //    neighbours hold correct values; affected ones hold inits and
        //    simply produce non-improving candidates).
        for &v in &sub {
            st.store.scan_in(v, &mut |x, w, _| {
                // stored edge x → v
                let cand = a.alg.gen_next(Edge::new(x, v, w), a.tree.value(x));
                a.tree.try_update(v, Some((x, w)), epoch, |cur| {
                    a.alg.need_upd(v, cur, cand).then_some(cand)
                });
            });
            if undirected {
                st.store.scan_out(v, &mut |x, w, _| {
                    let cand = a.alg.gen_next(Edge::new(x, v, w), a.tree.value(x));
                    a.tree.try_update(v, Some((x, w)), epoch, |cur| {
                        a.alg.need_upd(v, cur, cand).then_some(cand)
                    });
                });
            }
        }

        // 4. Propagate to fixpoint, seeding the whole invalidated set:
        //    even a vertex still at its initial value can be a
        //    propagation source (WCC — a reset vertex's own label may be
        //    the new component minimum), and any vertex improved later
        //    re-enters the frontier through `try_update`.
        let frontier = sub.clone();
        let ctx = self.push_ctx(st, a, epoch, push);
        ctx.propagate_into(frontier, &mut result);
        EngineStats::add(&self.stats.edges_relaxed, result.edges_relaxed);
        Self::collect_changes(a, result.changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_algorithms::{reference, Bfs, Reachability, Sssp, Sswp, Wcc};
    use risgraph_common::ids::Edge as E;

    fn eng<A: Monotonic<Value = u64>>(alg: A, cap: usize) -> Engine {
        let mut config = EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        };
        config.push.sequential_grain = 32; // force parallel paths in tests
        config.push.parallel_grain = 8;
        Engine::new(vec![Arc::new(alg)], cap, config)
    }

    #[test]
    fn insert_updates_results_incrementally() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0)]);
        assert_eq!(e.value(0, 1), 1);
        let (safety, ch) = e.apply(&Update::InsEdge(E::new(1, 2, 0))).unwrap();
        assert_eq!(safety, Safety::Unsafe);
        assert_eq!(ch.per_algo[0].len(), 1);
        assert_eq!(
            ch.per_algo[0][0],
            ChangeRecord {
                vertex: 2,
                old: u64::MAX,
                new: 2,
                old_parent: None,
                new_parent: Some(E::new(1, 2, 0)),
            }
        );
        assert_eq!(e.value(0, 2), 2);
    }

    #[test]
    fn non_improving_insert_is_safe_and_changes_nothing() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0), (1, 2, 0)]);
        // 0→2 would give dist 1 (better) → unsafe; 2→1 gives 3 (worse) → safe.
        assert_eq!(e.classify(&Update::InsEdge(E::new(2, 1, 0))), Safety::Safe);
        assert_eq!(
            e.classify(&Update::InsEdge(E::new(0, 2, 0))),
            Safety::Unsafe
        );
        let (safety, ch) = e.apply(&Update::InsEdge(E::new(2, 1, 0))).unwrap();
        assert_eq!(safety, Safety::Safe);
        assert!(ch.is_empty());
        assert_eq!(e.value(0, 1), 1);
    }

    #[test]
    fn non_tree_deletion_is_safe() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0), (0, 2, 0), (2, 1, 0)]);
        // 2→1 cannot be the tree edge of 1 (0→1 is shorter).
        assert_eq!(e.classify(&Update::DelEdge(E::new(2, 1, 0))), Safety::Safe);
        let (s, ch) = e.apply(&Update::DelEdge(E::new(2, 1, 0))).unwrap();
        assert_eq!(s, Safety::Safe);
        assert!(ch.is_empty());
        assert_eq!(e.value(0, 1), 1);
    }

    #[test]
    fn tree_edge_deletion_invalidates_and_recovers() {
        let e = eng(Bfs::new(0), 8);
        // 0→1→2 plus alternate 0→3→3→2 path of length 3.
        e.load_edges(&[(0, 1, 0), (1, 2, 0), (0, 3, 0), (3, 4, 0), (4, 2, 0)]);
        assert_eq!(e.value(0, 2), 2);
        assert_eq!(
            e.classify(&Update::DelEdge(E::new(1, 2, 0))),
            Safety::Unsafe
        );
        let (_, ch) = e.apply(&Update::DelEdge(E::new(1, 2, 0))).unwrap();
        assert_eq!(e.value(0, 2), 3, "recovered via 0→3→4→2");
        assert_eq!(
            ch.per_algo[0],
            vec![ChangeRecord {
                vertex: 2,
                old: 2,
                new: 3,
                old_parent: Some(E::new(1, 2, 0)),
                new_parent: Some(E::new(4, 2, 0)),
            }]
        );
    }

    #[test]
    fn deletion_disconnects_subtree() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0), (1, 2, 0), (2, 3, 0)]);
        e.apply(&Update::DelEdge(E::new(0, 1, 0))).unwrap();
        assert_eq!(e.value(0, 1), u64::MAX);
        assert_eq!(e.value(0, 2), u64::MAX);
        assert_eq!(e.value(0, 3), u64::MAX);
        assert_eq!(e.value(0, 0), 0);
        assert_eq!(e.parent(0, 1), None);
    }

    #[test]
    fn duplicate_tree_edge_deletion_is_safe() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0), (0, 1, 0)]);
        assert_eq!(e.value(0, 1), 1);
        assert_eq!(e.classify(&Update::DelEdge(E::new(0, 1, 0))), Safety::Safe);
        let (s, _) = e.apply(&Update::DelEdge(E::new(0, 1, 0))).unwrap();
        assert_eq!(s, Safety::Safe);
        assert_eq!(e.value(0, 1), 1, "one copy remains");
        // Second deletion removes the tree edge → unsafe.
        assert_eq!(
            e.classify(&Update::DelEdge(E::new(0, 1, 0))),
            Safety::Unsafe
        );
        e.apply(&Update::DelEdge(E::new(0, 1, 0))).unwrap();
        assert_eq!(e.value(0, 1), u64::MAX);
    }

    #[test]
    fn wcc_undirected_insert_and_delete() {
        let e = eng(Wcc::new(), 8);
        e.load_edges(&[(1, 2, 0), (3, 4, 0)]);
        assert_eq!(e.value(0, 2), 1);
        assert_eq!(e.value(0, 4), 3);
        // Directed edge 4→1 merges the components (undirected semantics).
        e.apply(&Update::InsEdge(E::new(4, 1, 0))).unwrap();
        for v in [1, 2, 3, 4] {
            assert_eq!(e.value(0, v), 1, "vertex {v}");
        }
        // Remove it again: components split back.
        e.apply(&Update::DelEdge(E::new(4, 1, 0))).unwrap();
        assert_eq!(e.value(0, 2), 1);
        assert_eq!(e.value(0, 3), 3);
        assert_eq!(e.value(0, 4), 3);
    }

    #[test]
    fn vertex_ops_are_safe_and_isolated_only() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0)]);
        assert_eq!(e.classify(&Update::InsVertex(5)), Safety::Safe);
        let (s, ch) = e.apply(&Update::InsVertex(5)).unwrap();
        assert_eq!(s, Safety::Safe);
        assert!(ch.is_empty());
        assert!(e.apply(&Update::DelVertex(1)).is_err(), "not isolated");
        e.apply(&Update::DelEdge(E::new(0, 1, 0))).unwrap();
        e.apply(&Update::DelVertex(1)).unwrap();
    }

    #[test]
    fn txn_classification_requires_all_safe() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0), (1, 2, 0)]);
        let safe = Update::InsEdge(E::new(2, 1, 0));
        let unsafe_u = Update::InsEdge(E::new(0, 2, 0));
        assert_eq!(e.classify_txn(&[safe, safe]), Safety::Safe);
        assert_eq!(e.classify_txn(&[safe, unsafe_u]), Safety::Unsafe);
        assert_eq!(e.classify_txn(&[]), Safety::Safe);
    }

    #[test]
    fn multi_algorithm_classification_is_conjunctive() {
        let config = EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        };
        let e: Engine = Engine::new(
            vec![Arc::new(Bfs::new(0)), Arc::new(Sswp::new(0))],
            8,
            config,
        );
        e.load_edges(&[(0, 1, 5), (1, 2, 5)]);
        assert_eq!(e.num_algorithms(), 2);
        // A wider 0→2 edge improves SSWP but BFS too (dist 1 < 2) → unsafe.
        assert_eq!(
            e.classify(&Update::InsEdge(E::new(0, 2, 9))),
            Safety::Unsafe
        );
        // 2→1 with tiny capacity: improves neither.
        assert_eq!(e.classify(&Update::InsEdge(E::new(2, 1, 1))), Safety::Safe);
        e.apply(&Update::InsEdge(E::new(0, 2, 9))).unwrap();
        assert_eq!(e.value(0, 2), 1, "BFS updated");
        assert_eq!(e.value(1, 2), 9, "SSWP updated");
    }

    #[test]
    fn safe_apply_demotes_when_classification_goes_stale() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0), (0, 1, 0)]); // duplicate tree edge
        let del = Update::DelEdge(E::new(0, 1, 0));
        assert_eq!(e.classify(&del), Safety::Safe);
        // Consume the duplicate through the unsafe path (simulating a
        // concurrent session), then revalidate the stale-safe delete.
        e.apply_unsafe(&del).unwrap();
        assert_eq!(e.try_apply_safe(&del).unwrap(), SafeApply::Demoted);
        assert_eq!(e.value(0, 1), 1, "nothing applied on demotion");
        assert_eq!(e.stats().demoted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn capacity_grows_transparently_through_apply() {
        let e = eng(Bfs::new(0), 4);
        e.load_edges(&[(0, 1, 0)]);
        e.apply(&Update::InsEdge(E::new(1, 1000, 0))).unwrap();
        assert_eq!(e.value(0, 1000), 2);
    }

    /// The big one: random interleaved insert/delete streams, engine vs
    /// reference oracle, all five algorithms.
    #[test]
    fn randomized_differential_all_algorithms() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        fn run<A: Monotonic<Value = u64> + Copy>(alg: A, seed: u64) {
            let n: u64 = 60;
            let mut rng = StdRng::seed_from_u64(seed);
            let e = eng(alg, n as usize);
            // Weighted initial graph.
            let mut live: Vec<(u64, u64, u64)> = (0..150)
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(1..8u64),
                    )
                })
                .collect();
            e.load_edges(&live);
            for step in 0..400 {
                if !live.is_empty() && rng.gen_bool(0.45) {
                    let i = rng.gen_range(0..live.len());
                    let (s, d, w) = live.swap_remove(i);
                    e.apply(&Update::DelEdge(E::new(s, d, w))).unwrap();
                } else {
                    let t = (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(1..8u64),
                    );
                    live.push(t);
                    e.apply(&Update::InsEdge(E::new(t.0, t.1, t.2))).unwrap();
                }
                if step % 50 == 49 {
                    let want = reference::compute(&alg, n as usize, &live);
                    for v in 0..n {
                        assert_eq!(
                            e.value(0, v),
                            want[v as usize],
                            "{} seed {seed} step {step} vertex {v}",
                            alg.name()
                        );
                    }
                }
            }
            let want = reference::compute(&alg, n as usize, &live);
            for v in 0..n {
                assert_eq!(e.value(0, v), want[v as usize]);
            }
        }

        for seed in [1u64, 2, 3] {
            run(Bfs::new(0), seed);
            run(Sssp::new(0), seed);
            run(Sswp::new(0), seed);
            run(Wcc::new(), seed * 7);
            run(Reachability::new(0), seed * 13);
        }
    }

    /// Safe updates must never change any value (checked exhaustively on
    /// a random stream by snapshotting).
    #[test]
    fn safe_updates_never_change_results() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n: u64 = 40;
        let mut rng = StdRng::seed_from_u64(99);
        let alg = Sssp::new(0);
        let e = eng(alg, n as usize);
        let mut live: Vec<(u64, u64, u64)> = (0..120)
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(1..6),
                )
            })
            .collect();
        e.load_edges(&live);
        let mut checked_safe = 0;
        for _ in 0..300 {
            let del = !live.is_empty() && rng.gen_bool(0.5);
            let u = if del {
                let i = rng.gen_range(0..live.len());
                let t = live[i];
                Update::DelEdge(E::new(t.0, t.1, t.2))
            } else {
                let t = (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(1..6),
                );
                Update::InsEdge(E::new(t.0, t.1, t.2))
            };
            if e.classify(&u) == Safety::Safe {
                let before = e.values_snapshot(0, n as usize);
                let (_, ch) = e.apply(&u).unwrap();
                let after = e.values_snapshot(0, n as usize);
                assert_eq!(before, after, "safe update {u:?} changed values");
                assert!(ch.is_empty());
                checked_safe += 1;
            } else {
                e.apply(&u).unwrap();
            }
            match u {
                Update::DelEdge(d) => {
                    if let Some(p) = live
                        .iter()
                        .position(|&(s, dd, w)| s == d.src && dd == d.dst && w == d.data)
                    {
                        live.swap_remove(p);
                    }
                }
                Update::InsEdge(i) => live.push((i.src, i.dst, i.data)),
                _ => {}
            }
        }
        assert!(
            checked_safe > 20,
            "exercised only {checked_safe} safe updates"
        );
        let want = reference::compute(&alg, n as usize, &live);
        for v in 0..n {
            assert_eq!(e.value(0, v), want[v as usize]);
        }
    }

    /// Table 4's phenomenon: on power-law-ish graphs most random updates
    /// are safe.
    #[test]
    fn most_updates_are_safe_on_skewed_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n: u64 = 500;
        let mut rng = StdRng::seed_from_u64(5);
        // Zipf-ish: half the edges attach to low-id hubs.
        let pick = |rng: &mut StdRng| -> u64 {
            if rng.gen_bool(0.5) {
                rng.gen_range(0..10)
            } else {
                rng.gen_range(0..n)
            }
        };
        let edges: Vec<(u64, u64, u64)> = (0..5000)
            .map(|_| (pick(&mut rng), pick(&mut rng), 0))
            .collect();
        let e = eng(Bfs::new(0), n as usize);
        e.load_edges(&edges);
        let mut safe = 0;
        let total = 500;
        for _ in 0..total {
            let u = Update::InsEdge(E::new(pick(&mut rng), pick(&mut rng), 0));
            if e.classify(&u) == Safety::Safe {
                safe += 1;
            }
            e.apply(&u).unwrap();
        }
        assert!(
            safe * 10 >= total * 5,
            "expected most inserts safe, got {safe}/{total}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let e = eng(Bfs::new(0), 8);
        e.load_edges(&[(0, 1, 0)]);
        e.apply(&Update::InsEdge(E::new(1, 2, 0))).unwrap();
        e.apply(&Update::InsEdge(E::new(2, 1, 0))).unwrap(); // safe
        let s = e.stats();
        assert!(s.unsafe_applied.load(Ordering::Relaxed) >= 1);
        assert!(s.safe_applied.load(Ordering::Relaxed) >= 1);
        assert!(s.update_ns.load(Ordering::Relaxed) > 0);
        assert!(s.compute_ns.load(Ordering::Relaxed) > 0);
        assert!(s.classify_ns.load(Ordering::Relaxed) > 0);
    }
}
