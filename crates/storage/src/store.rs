//! The Indexed Adjacency Lists graph store (§3.1, §5).
//!
//! [`GraphStore`] keeps, per vertex, an out-adjacency [`AdjacencyList`]
//! and (for the incremental model, which needs reverse traversal during
//! deletion recovery) a transpose in-adjacency list — "RisGraph also
//! stores a transpose graph required by the incremental model" (§5).
//!
//! Concurrency model: every adjacency list sits behind its own
//! `parking_lot::RwLock`, so the epoch loop's *parallel safe phase* can
//! mutate disjoint vertices concurrently while classification reads
//! others. Edge operations always acquire the out-lock before the
//! in-lock, which makes the two-lock acquisition deadlock-free (no thread
//! ever waits on an out-lock while holding an in-lock). Vertex-table
//! *growth* requires `&mut self`; the engine grows capacity at epoch
//! boundaries where it has exclusive access.
//!
//! Bulk path: [`GraphStore::insert_edges`] loads a batch of insertions
//! in O(E) — preload, checkpoint restore, WAL replay and follower
//! bootstrap all go through it. A counting pass admits the edges and
//! counts each list's share of the batch; then, one direction at a
//! time, a counting sort orders the admitted edges' positions by owner
//! (4 B per edge, input order kept within an owner), and the lists are
//! filled over owner ranges split across a [`RangeExecutor`]
//! ([`AdjacencyList::insert_batch`]: one pass per list, duplicates
//! merged through a transient `(dst, weight) → offset` map or the
//! index, the index built at most once). Precondition: exclusive
//! access, which the `&mut self` receiver enforces — no reader can see
//! an out-list without its transpose. Contract: the store ends byte for
//! byte as in-order [`GraphStore::insert_edge`] calls over the same
//! edges leave it — slot arrays and their allocations in both
//! directions, index presence, `num_edges` and the vertex table —
//! whatever the executor's thread count.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{RwLock, RwLockReadGuard};
use risgraph_common::hash::FxHashMap;
use risgraph_common::ids::{Edge, VertexId, Weight};
use risgraph_common::{Error, Result};

use crate::adjacency::{AdjacencyList, DeleteOutcome, InsertOutcome};
use crate::graph::{DynamicGraph, RangeExecutor, VertexTable};
use crate::index::EdgeIndex;
use crate::DEFAULT_INDEX_THRESHOLD;

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Degree above which a per-vertex edge index is built (§5: 512).
    pub index_threshold: usize,
    /// Create endpoints implicitly on edge insertion. Convenient for
    /// bulk-loading datasets; the interactive engine keeps it on too,
    /// matching the evaluation workloads where vertices appear with
    /// their first edge.
    pub auto_create_vertices: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            index_threshold: DEFAULT_INDEX_THRESHOLD,
            auto_create_vertices: true,
        }
    }
}

/// Aggregate statistics for reporting and the Table 9 memory experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (existing) vertices.
    pub vertices: u64,
    /// Live directed edges, counting duplicates.
    pub edges: u64,
    /// Distinct live `(src, dst, weight)` slots in out-lists.
    pub distinct_edges: u64,
    /// Tombstoned out-slots awaiting recycling.
    pub tombstones: u64,
    /// Vertices that currently carry an out-index.
    pub indexed_vertices: u64,
    /// Approximate heap bytes (slot arrays + indexes, both directions).
    pub memory_bytes: usize,
}

/// The Indexed Adjacency Lists store, generic over the index family
/// (Hash is the paper's default; BTree and ART reproduce Table 8/9).
pub struct GraphStore<I: EdgeIndex> {
    out: Vec<RwLock<AdjacencyList<I>>>,
    inn: Vec<RwLock<AdjacencyList<I>>>,
    vertices: VertexTable,
    live_edges: AtomicU64,
    config: StoreConfig,
}

impl<I: EdgeIndex> GraphStore<I> {
    /// An empty store that can address vertices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(capacity, StoreConfig::default())
    }

    /// An empty store with explicit configuration.
    pub fn with_config(capacity: usize, config: StoreConfig) -> Self {
        let mut s = GraphStore {
            out: Vec::new(),
            inn: Vec::new(),
            vertices: VertexTable::with_capacity(0),
            live_edges: AtomicU64::new(0),
            config,
        };
        s.ensure_capacity(capacity);
        s
    }

    /// Addressable vertex range.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.out.len()
    }

    /// Grow the vertex table so ids `0..n` are addressable. Requires
    /// exclusive access; the engine calls this at epoch boundaries.
    pub fn ensure_capacity(&mut self, n: usize) {
        if n <= self.out.len() {
            return;
        }
        let n = n.next_power_of_two().max(16);
        self.out
            .resize_with(n, || RwLock::new(AdjacencyList::new()));
        self.inn
            .resize_with(n, || RwLock::new(AdjacencyList::new()));
        self.vertices.ensure_capacity(n);
    }

    /// The configured index threshold.
    #[inline]
    pub fn index_threshold(&self) -> usize {
        self.config.index_threshold
    }

    /// Highest vertex id ever allocated plus one (ids below this may be
    /// dead; use [`Self::vertex_exists`] to check).
    #[inline]
    pub fn vertex_upper_bound(&self) -> u64 {
        self.vertices.upper_bound()
    }

    /// Count of live vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.vertices.live()
    }

    /// Count of live directed edges (duplicates included).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.live_edges.load(Ordering::Acquire)
    }

    /// Whether `v` currently exists.
    #[inline]
    pub fn vertex_exists(&self, v: VertexId) -> bool {
        self.vertices.exists(v)
    }

    /// Insert a vertex with a caller-chosen id (`ins_vertex` in Table 1).
    pub fn insert_vertex(&self, v: VertexId) -> Result<()> {
        self.vertices.insert(v)
    }

    /// Allocate a fresh vertex id, reusing the recycling pool first
    /// (§5: "RisGraph recycles the vertex IDs of deleted vertices into a
    /// pool").
    pub fn create_vertex(&self) -> Result<VertexId> {
        self.vertices.create()
    }

    /// Delete an isolated vertex (`del_vertex`); fails with
    /// [`Error::VertexNotIsolated`] if any live edge touches it (§4).
    /// Atomic against concurrent edge insertions on `v`: the vertex
    /// table's reservation drains in-flight insert pins before the
    /// degree check runs (see [`VertexTable::remove_isolated`]).
    pub fn delete_vertex(&self, v: VertexId) -> Result<()> {
        let scratch = AtomicU64::new(0);
        self.delete_vertex_stamped(v, &scratch).map(|_| ())
    }

    /// [`Self::delete_vertex`] with an in-reservation WAL stamp (the
    /// single implementation both trait entry points share).
    fn delete_vertex_stamped(&self, v: VertexId, seq: &AtomicU64) -> Result<u64> {
        if (v as usize) >= self.capacity() {
            return Err(Error::VertexNotFound(v));
        }
        self.vertices.remove_isolated_seq(
            v,
            || {
                self.out[v as usize].read().degree() == 0
                    && self.inn[v as usize].read().degree() == 0
            },
            seq,
        )
    }

    /// Insert one copy of a directed edge. O(1) average with the hash
    /// index. Lock order: out before in (deadlock-free, see module docs).
    pub fn insert_edge(&self, e: Edge) -> Result<InsertOutcome> {
        self.insert_edge_stamped(e, None).map(|(o, _)| o)
    }

    /// [`Self::insert_edge`], drawing a WAL sequence stamp from `seq`
    /// while the out-adjacency write lock is held — same-edge operations
    /// serialize on that lock, so stamp order equals application order
    /// (the epoch loop's byte-exact replay contract).
    fn insert_edge_stamped(
        &self,
        e: Edge,
        seq: Option<&AtomicU64>,
    ) -> Result<(InsertOutcome, u64)> {
        let cap = self.capacity() as u64;
        if e.src >= cap {
            return Err(Error::VertexNotFound(e.src));
        }
        if e.dst >= cap {
            return Err(Error::VertexNotFound(e.dst));
        }
        // Pin both endpoints across the mark and the structural change
        // so a concurrent delete_vertex cannot pass its isolation check
        // mid-insert (nor recycle an id this insert just revived).
        let _pin = self.vertices.pin(e.src, e.dst);
        if self.config.auto_create_vertices {
            self.vertices.mark(e.src);
            self.vertices.mark(e.dst);
        } else if !self.vertex_exists(e.src) {
            return Err(Error::VertexNotFound(e.src));
        } else if !self.vertex_exists(e.dst) {
            return Err(Error::VertexNotFound(e.dst));
        }
        let t = self.config.index_threshold;
        let out = &mut self.out[e.src as usize].write();
        let outcome = out.insert(e.dst, e.data, t);
        let stamp = seq.map_or(0, |s| s.fetch_add(1, Ordering::Relaxed));
        // Mirror into the transpose while still holding the out lock
        // (out→in order, deadlock-free like delete_edge_if): releasing
        // it first would let a concurrent same-edge delete consume the
        // out record, miss the not-yet-written transpose, and leave the
        // two sides permanently desynced.
        {
            let mut inn = self.inn[e.dst as usize].write();
            inn.insert(e.src, e.data, t);
        }
        self.live_edges.fetch_add(1, Ordering::AcqRel);
        Ok((outcome, stamp))
    }

    /// Whether [`Self::insert_edge`] would accept `e` (endpoint
    /// creation aside).
    #[inline]
    fn admits(&self, e: Edge) -> bool {
        let cap = self.capacity() as u64;
        e.src < cap
            && e.dst < cap
            && (self.config.auto_create_vertices
                || (self.vertex_exists(e.src) && self.vertex_exists(e.dst)))
    }

    /// Insert `edge(0), …, edge(n - 1)` as one batch in O(E), returning
    /// how many were rejected; see the module docs for the counting-sort
    /// build and its equivalence with in-order [`Self::insert_edge`].
    pub fn insert_edges(
        &mut self,
        n: usize,
        edge: &(dyn Fn(usize) -> Edge + Sync),
        exec: &dyn RangeExecutor,
    ) -> usize {
        assert!(n < u32::MAX as usize, "bulk batch of {n} edges");
        // Owners lie in 0..span, and the build below costs O(span) on
        // top of O(E). A batch sparse in that range (a short replayed
        // run, say) goes edge by edge, so a replay of many small records
        // does not pay O(V) per record.
        let span = (0..n)
            .map(|i| {
                let e = edge(i);
                e.src.max(e.dst).saturating_add(1)
            })
            .max()
            .unwrap_or(0)
            .min(self.capacity() as u64) as usize;
        if n * 4 < span {
            return (0..n)
                .filter(|&i| self.insert_edge(edge(i)).is_err())
                .count();
        }

        // Count pass: admit, create endpoints, count edges per owner.
        let mut out_deg = vec![0u32; span];
        let mut in_deg = vec![0u32; span];
        let mut rejected = 0;
        for i in 0..n {
            let e = edge(i);
            if !self.admits(e) {
                rejected += 1;
                continue;
            }
            if self.config.auto_create_vertices {
                for v in [e.src, e.dst] {
                    if !self.vertices.exists(v) {
                        self.vertices.mark(v);
                    }
                }
            }
            out_deg[e.src as usize] += 1;
            in_deg[e.dst as usize] += 1;
        }

        // One direction at a time: a counting sort orders the admitted
        // edges' positions by owner, then the lists are filled over
        // owner ranges on `exec`. Each list is written by one range
        // only, so the layout cannot depend on the thread count.
        let t = self.config.index_threshold;
        let mut pos = vec![0u32; n - rejected];
        for (forward, mut bound) in [(true, out_deg), (false, in_deg)] {
            // `bound[v]` becomes the end of owner v's run; the backward
            // pass then moves it to the run's start, so each run keeps
            // input order.
            let mut sum = 0;
            for b in &mut bound {
                sum += *b;
                *b = sum;
            }
            for i in (0..n).rev() {
                let e = edge(i);
                if self.admits(e) {
                    let b = &mut bound[if forward { e.src } else { e.dst } as usize];
                    *b -= 1;
                    pos[*b as usize] = i as u32;
                }
            }
            let lists = if forward { &self.out } else { &self.inn };
            exec.run_ranges(span, (span / 128).max(64), &|owners| {
                let (mut keys, mut scratch) = (Vec::new(), FxHashMap::default());
                for v in owners {
                    let end = bound.get(v + 1).map_or(pos.len(), |&b| b as usize);
                    let run = &pos[bound[v] as usize..end];
                    if run.is_empty() {
                        continue;
                    }
                    keys.clear();
                    keys.extend(run.iter().map(|&i| {
                        let e = edge(i as usize);
                        if forward {
                            (e.dst, e.data)
                        } else {
                            (e.src, e.data)
                        }
                    }));
                    lists[v].write().insert_batch(&keys, t, &mut scratch);
                }
            });
        }
        self.live_edges
            .fetch_add((n - rejected) as u64, Ordering::AcqRel);
        rejected
    }

    /// Delete one copy of a directed edge.
    pub fn delete_edge(&self, e: Edge) -> Result<DeleteOutcome> {
        if e.src >= self.capacity() as u64 || e.dst >= self.capacity() as u64 {
            return Err(Error::EdgeNotFound(e));
        }
        let outcome = {
            let mut out = self.out[e.src as usize].write();
            out.delete(e.dst, e.data).ok_or(Error::EdgeNotFound(e))?
        };
        {
            let mut inn = self.inn[e.dst as usize].write();
            let mirror = inn.delete(e.src, e.data);
            debug_assert!(mirror.is_some(), "out/in lists out of sync for {e:?}");
        }
        self.live_edges.fetch_sub(1, Ordering::AcqRel);
        Ok(outcome)
    }

    /// Delete one copy of `e` only if `pred(current_count)` holds,
    /// atomically with respect to other edge operations on `e.src`.
    ///
    /// This is the revalidation primitive for the epoch loop's parallel
    /// safe phase (§4): a deletion classified *safe* earlier must
    /// re-check — under the adjacency lock — that the edge still has
    /// duplicates or is still a non-tree edge, because a concurrent safe
    /// deletion may have consumed the last duplicate. Returns `Ok(None)`
    /// when the predicate rejects (caller demotes the update).
    pub fn delete_edge_if(
        &self,
        e: Edge,
        pred: impl FnOnce(u32) -> bool,
    ) -> Result<Option<DeleteOutcome>> {
        self.delete_edge_if_stamped(e, pred, None)
            .map(|r| r.map(|(o, _)| o))
    }

    /// [`Self::delete_edge_if`] with an in-lock WAL sequence stamp (see
    /// [`Self::insert_edge_stamped`]).
    fn delete_edge_if_stamped(
        &self,
        e: Edge,
        pred: impl FnOnce(u32) -> bool,
        seq: Option<&AtomicU64>,
    ) -> Result<Option<(DeleteOutcome, u64)>> {
        if e.src >= self.capacity() as u64 || e.dst >= self.capacity() as u64 {
            return Err(Error::EdgeNotFound(e));
        }
        let mut out = self.out[e.src as usize].write();
        let count = out.edge_count(e.dst, e.data);
        if count == 0 {
            return Err(Error::EdgeNotFound(e));
        }
        if !pred(count) {
            return Ok(None);
        }
        let outcome = out.delete(e.dst, e.data).expect("count checked above");
        let stamp = seq.map_or(0, |s| s.fetch_add(1, Ordering::Relaxed));
        // Mirror into the transpose while still holding the out lock
        // (out→in ordering is deadlock-free, see module docs).
        {
            let mut inn = self.inn[e.dst as usize].write();
            let mirror = inn.delete(e.src, e.data);
            debug_assert!(mirror.is_some(), "out/in lists out of sync for {e:?}");
        }
        drop(out);
        self.live_edges.fetch_sub(1, Ordering::AcqRel);
        Ok(Some((outcome, stamp)))
    }

    /// Current multiplicity of `e` (0 when absent).
    pub fn edge_count(&self, e: Edge) -> u32 {
        if e.src as usize >= self.capacity() {
            return 0;
        }
        self.out[e.src as usize].read().edge_count(e.dst, e.data)
    }

    /// Whether at least one copy of `e` exists.
    pub fn contains_edge(&self, e: Edge) -> bool {
        self.edge_count(e) > 0
    }

    /// Read-lock the out-adjacency of `v` for analytical scans.
    #[inline]
    pub fn out(&self, v: VertexId) -> RwLockReadGuard<'_, AdjacencyList<I>> {
        self.out[v as usize].read()
    }

    /// Read-lock the transpose (in-) adjacency of `v`.
    #[inline]
    pub fn inn(&self, v: VertexId) -> RwLockReadGuard<'_, AdjacencyList<I>> {
        self.inn[v as usize].read()
    }

    /// Live out-degree of `v` (distinct edges).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        if v as usize >= self.capacity() {
            return 0;
        }
        self.out[v as usize].read().degree()
    }

    /// Live in-degree of `v` (distinct edges).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        if v as usize >= self.capacity() {
            return 0;
        }
        self.inn[v as usize].read().degree()
    }

    /// Total degree (in + out), the `d_k` of the paper's §7 AFF bounds.
    #[inline]
    pub fn total_degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Visit every live vertex id.
    pub fn for_each_vertex(&self, mut f: impl FnMut(VertexId)) {
        self.vertices.for_each_live(&mut f);
    }

    /// Collect aggregate statistics (walks all vertices; not hot-path).
    pub fn stats(&self) -> StoreStats {
        let mut distinct = 0u64;
        let mut tombs = 0u64;
        let mut indexed = 0u64;
        let mut mem = 0usize;
        let hi = self.vertex_upper_bound() as usize;
        for v in 0..hi {
            let out = self.out[v].read();
            distinct += out.degree() as u64;
            tombs += out.tombstones() as u64;
            indexed += out.has_index() as u64;
            mem += out.memory_bytes();
            mem += self.inn[v].read().memory_bytes();
        }
        StoreStats {
            vertices: self.num_vertices(),
            edges: self.num_edges(),
            distinct_edges: distinct,
            tombstones: tombs,
            indexed_vertices: indexed,
            memory_bytes: mem,
        }
    }
}

/// The canonical implementation: Indexed Adjacency Lists expose every
/// [`DynamicGraph`] operation at its native cost — O(1) average
/// mutation via the per-vertex index, contiguous slot arrays for scans.
impl<I: EdgeIndex> DynamicGraph for GraphStore<I> {
    fn backend_name(&self) -> &'static str {
        match I::NAME {
            "Hash" => "IA_Hash",
            "BTree" => "IA_BTree",
            "ART" => "IA_ART",
            _ => "IA",
        }
    }

    fn capacity(&self) -> usize {
        GraphStore::capacity(self)
    }

    fn ensure_capacity(&mut self, n: usize) {
        GraphStore::ensure_capacity(self, n);
    }

    fn vertex_upper_bound(&self) -> u64 {
        GraphStore::vertex_upper_bound(self)
    }

    fn num_vertices(&self) -> u64 {
        GraphStore::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        GraphStore::num_edges(self)
    }

    fn vertex_exists(&self, v: VertexId) -> bool {
        GraphStore::vertex_exists(self, v)
    }

    fn insert_vertex(&self, v: VertexId) -> Result<()> {
        GraphStore::insert_vertex(self, v)
    }

    fn create_vertex(&self) -> Result<VertexId> {
        GraphStore::create_vertex(self)
    }

    fn delete_vertex(&self, v: VertexId) -> Result<()> {
        GraphStore::delete_vertex(self, v)
    }

    fn insert_vertex_seq(&self, v: VertexId, seq: &AtomicU64) -> Result<u64> {
        self.vertices.insert_seq(v, seq)
    }

    fn delete_vertex_seq(&self, v: VertexId, seq: &AtomicU64) -> Result<u64> {
        GraphStore::delete_vertex_stamped(self, v, seq)
    }

    fn insert_edge(&self, e: Edge) -> Result<InsertOutcome> {
        GraphStore::insert_edge(self, e)
    }

    fn delete_edge(&self, e: Edge) -> Result<DeleteOutcome> {
        GraphStore::delete_edge(self, e)
    }

    fn insert_edges(
        &mut self,
        n: usize,
        edge: &(dyn Fn(usize) -> Edge + Sync),
        exec: &dyn RangeExecutor,
        _in_order: bool,
    ) -> usize {
        // Always the in-order state, whatever the executor.
        GraphStore::insert_edges(self, n, edge, exec)
    }

    fn delete_edge_if(
        &self,
        e: Edge,
        pred: &mut dyn FnMut(u32) -> bool,
    ) -> Result<Option<DeleteOutcome>> {
        GraphStore::delete_edge_if(self, e, pred)
    }

    fn insert_edge_seq(&self, e: Edge, seq: &AtomicU64) -> Result<(InsertOutcome, u64)> {
        GraphStore::insert_edge_stamped(self, e, Some(seq))
    }

    fn delete_edge_if_seq(
        &self,
        e: Edge,
        pred: &mut dyn FnMut(u32) -> bool,
        seq: &AtomicU64,
    ) -> Result<Option<(DeleteOutcome, u64)>> {
        GraphStore::delete_edge_if_stamped(self, e, pred, Some(seq))
    }

    fn edge_count(&self, e: Edge) -> u32 {
        GraphStore::edge_count(self, e)
    }

    fn scan_out(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32)) {
        if (v as usize) >= self.capacity() {
            return;
        }
        for s in self.out(v).iter_live() {
            f(s.dst, s.data, s.count);
        }
    }

    fn scan_in(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32)) {
        if (v as usize) >= self.capacity() {
            return;
        }
        for s in self.inn(v).iter_live() {
            f(s.dst, s.data, s.count);
        }
    }

    fn out_degree(&self, v: VertexId) -> usize {
        GraphStore::out_degree(self, v)
    }

    fn in_degree(&self, v: VertexId) -> usize {
        GraphStore::in_degree(self, v)
    }

    fn has_positional_scans(&self) -> bool {
        true // contiguous slot arrays: O(range) sub-range scans
    }

    fn out_slots(&self, v: VertexId) -> usize {
        if (v as usize) >= self.capacity() {
            return 0;
        }
        self.out(v).slots().len()
    }

    fn in_slots(&self, v: VertexId) -> usize {
        if (v as usize) >= self.capacity() {
            return 0;
        }
        self.inn(v).slots().len()
    }

    fn scan_out_range(
        &self,
        v: VertexId,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(VertexId, Weight, u32),
    ) {
        if (v as usize) >= self.capacity() {
            return;
        }
        let out = self.out(v);
        let slots = out.slots();
        let hi = hi.min(slots.len());
        for s in &slots[lo.min(hi)..hi] {
            if s.count > 0 {
                f(s.dst, s.data, s.count);
            }
        }
    }

    fn scan_in_range(
        &self,
        v: VertexId,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(VertexId, Weight, u32),
    ) {
        if (v as usize) >= self.capacity() {
            return;
        }
        let inn = self.inn(v);
        let slots = inn.slots();
        let hi = hi.min(slots.len());
        for s in &slots[lo.min(hi)..hi] {
            if s.count > 0 {
                f(s.dst, s.data, s.count);
            }
        }
    }

    fn for_each_vertex(&self, f: &mut dyn FnMut(VertexId)) {
        GraphStore::for_each_vertex(self, f)
    }

    fn stats(&self) -> StoreStats {
        GraphStore::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::hash::HashIndex;

    fn store(cap: usize) -> GraphStore<HashIndex> {
        GraphStore::with_capacity(cap)
    }

    #[test]
    fn edge_insert_updates_both_directions() {
        let s = store(8);
        s.insert_edge(Edge::new(1, 2, 5)).unwrap();
        assert!(s.contains_edge(Edge::new(1, 2, 5)));
        assert_eq!(s.out_degree(1), 1);
        assert_eq!(s.in_degree(2), 1);
        assert_eq!(s.out_degree(2), 0);
        assert_eq!(s.num_edges(), 1);
        // Transpose list carries the reversed key.
        assert!(s.inn(2).contains(1, 5));
    }

    #[test]
    fn delete_edge_roundtrip() {
        let s = store(8);
        let e = Edge::new(1, 2, 5);
        s.insert_edge(e).unwrap();
        assert_eq!(s.delete_edge(e).unwrap(), DeleteOutcome::Removed);
        assert!(!s.contains_edge(e));
        assert_eq!(s.num_edges(), 0);
        assert!(matches!(s.delete_edge(e), Err(Error::EdgeNotFound(_))));
    }

    #[test]
    fn duplicate_edge_counting() {
        let s = store(8);
        let e = Edge::new(1, 2, 5);
        s.insert_edge(e).unwrap();
        assert!(matches!(
            s.insert_edge(e).unwrap(),
            InsertOutcome::Duplicate { new_count: 2 }
        ));
        assert_eq!(s.edge_count(e), 2);
        assert_eq!(s.num_edges(), 2);
        assert!(matches!(
            s.delete_edge(e).unwrap(),
            DeleteOutcome::Decremented { new_count: 1 }
        ));
        assert!(s.contains_edge(e));
    }

    #[test]
    fn vertex_lifecycle_and_recycling() {
        let s = store(8);
        let a = s.create_vertex().unwrap();
        let b = s.create_vertex().unwrap();
        assert_ne!(a, b);
        assert_eq!(s.num_vertices(), 2);
        s.delete_vertex(a).unwrap();
        assert!(!s.vertex_exists(a));
        let c = s.create_vertex().unwrap();
        assert_eq!(c, a, "recycled id should be reused");
        assert_eq!(s.num_vertices(), 2);
    }

    #[test]
    fn delete_vertex_requires_isolation() {
        let s = store(8);
        s.insert_edge(Edge::new(1, 2, 0)).unwrap();
        assert!(matches!(
            s.delete_vertex(1),
            Err(Error::VertexNotIsolated(1))
        ));
        assert!(matches!(
            s.delete_vertex(2),
            Err(Error::VertexNotIsolated(2))
        ));
        s.delete_edge(Edge::new(1, 2, 0)).unwrap();
        s.delete_vertex(1).unwrap();
        s.delete_vertex(2).unwrap();
        assert_eq!(s.num_vertices(), 0);
    }

    #[test]
    fn explicit_insert_vertex() {
        let s = store(8);
        s.insert_vertex(5).unwrap();
        assert!(s.vertex_exists(5));
        assert!(matches!(s.insert_vertex(5), Err(Error::VertexExists(5))));
        // create_vertex must not hand out 0..5 ids below the high-water
        // mark unless recycled — next fresh id is 6.
        assert_eq!(s.create_vertex().unwrap(), 6);
    }

    #[test]
    fn strict_mode_rejects_unknown_endpoints() {
        let s: GraphStore<HashIndex> = GraphStore::with_config(
            8,
            StoreConfig {
                auto_create_vertices: false,
                ..StoreConfig::default()
            },
        );
        assert!(s.insert_edge(Edge::new(0, 1, 0)).is_err());
        s.insert_vertex(0).unwrap();
        s.insert_vertex(1).unwrap();
        s.insert_edge(Edge::new(0, 1, 0)).unwrap();
    }

    #[test]
    fn capacity_grows_on_demand() {
        let mut s = store(4);
        assert!(s.insert_edge(Edge::new(100, 2, 0)).is_err());
        s.ensure_capacity(128);
        s.insert_edge(Edge::new(100, 2, 0)).unwrap();
        assert!(s.contains_edge(Edge::new(100, 2, 0)));
    }

    #[test]
    fn stats_reflect_contents() {
        let s = store(16);
        for i in 0..10 {
            s.insert_edge(Edge::new(0, i, 0)).unwrap();
        }
        s.delete_edge(Edge::new(0, 3, 0)).unwrap();
        let st = s.stats();
        assert_eq!(st.vertices, 10); // 0..10 exist (0 is src, 1..10 dsts; 3 still exists)
        assert_eq!(st.edges, 9);
        assert_eq!(st.distinct_edges, 9);
        assert_eq!(st.tombstones, 1);
        assert!(st.memory_bytes > 0);
    }

    #[test]
    fn concurrent_disjoint_edge_inserts() {
        use std::sync::Arc;
        let s = Arc::new(store(1 << 12));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    s.insert_edge(Edge::new(t * 500 + i, (i * 7) % 4096, i))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.num_edges(), 4000);
    }

    #[test]
    fn concurrent_inserts_same_hub() {
        use std::sync::Arc;
        let s = Arc::new(store(1 << 12));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                // All threads hammer the same source hub with distinct dsts.
                for i in 0..500u64 {
                    s.insert_edge(Edge::new(0, 1 + t * 500 + i, 0)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.out_degree(0), 4000);
        // Hub exceeded the 512 threshold: index must exist and be sound.
        assert!(s.out(0).has_index());
        for t in 0..8u64 {
            for i in 0..500u64 {
                assert!(s.contains_edge(Edge::new(0, 1 + t * 500 + i, 0)));
            }
        }
    }

    #[test]
    fn racing_insert_edge_vs_delete_vertex_never_strands_edges() {
        use std::sync::{Arc, Barrier};
        // The lifecycle race from ROADMAP: delete_vertex's isolation
        // check must be atomic with a concurrent auto-create edge
        // insert on the same vertex. Without the vertex-table
        // reservation the deleter could pass the degree check, the
        // inserter add an edge, and the deleter then remove the vertex
        // — leaving a live edge on a dead endpoint.
        for round in 0..300 {
            let s = Arc::new(store(16));
            s.insert_vertex(1).unwrap();
            let barrier = Arc::new(Barrier::new(2));
            let ins = {
                let (s, b) = (Arc::clone(&s), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    b.wait();
                    s.insert_edge(Edge::new(1, 2, 0)).unwrap();
                })
            };
            let del = {
                let (s, b) = (Arc::clone(&s), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    b.wait();
                    s.delete_vertex(1)
                })
            };
            ins.join().unwrap();
            let deleted = del.join().unwrap();
            let deg = s.out_degree(1) + s.in_degree(1);
            match deleted {
                // Deletion won the race: the insert then revived the
                // vertex with its edge — it must exist with degree 1.
                Ok(()) => assert!(
                    s.vertex_exists(1) && deg == 1,
                    "round {round}: exists={} degree={deg} after delete-then-insert",
                    s.vertex_exists(1)
                ),
                // Insert won: deletion must have failed NotIsolated.
                Err(Error::VertexNotIsolated(1)) => {
                    assert!(s.vertex_exists(1) && deg == 1, "round {round}")
                }
                other => panic!("round {round}: unexpected outcome {other:?}"),
            }
            assert_eq!(s.num_edges(), 1, "round {round}");
        }
    }

    #[test]
    fn delete_edge_if_respects_predicate() {
        let s = store(8);
        let e = Edge::new(1, 2, 0);
        s.insert_edge(e).unwrap();
        s.insert_edge(e).unwrap();
        // Predicate rejecting: nothing happens.
        assert_eq!(s.delete_edge_if(e, |_| false).unwrap(), None);
        assert_eq!(s.edge_count(e), 2);
        // Only delete while duplicates remain.
        assert!(matches!(
            s.delete_edge_if(e, |c| c > 1).unwrap(),
            Some(DeleteOutcome::Decremented { new_count: 1 })
        ));
        assert_eq!(s.delete_edge_if(e, |c| c > 1).unwrap(), None);
        assert_eq!(s.edge_count(e), 1);
        // Missing edge errors regardless of predicate.
        assert!(s.delete_edge_if(Edge::new(1, 9, 0), |_| true).is_err());
        // Transpose stays in sync.
        assert!(s.inn(2).contains(1, 0));
        assert!(matches!(
            s.delete_edge_if(e, |_| true).unwrap(),
            Some(DeleteOutcome::Removed)
        ));
        assert!(!s.inn(2).contains(1, 0));
    }

    #[test]
    fn concurrent_conditional_deletes_never_oversell() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let s = Arc::new(store(8));
        let e = Edge::new(1, 2, 0);
        for _ in 0..4 {
            s.insert_edge(e).unwrap();
        }
        // 8 threads race to delete "only while duplicates remain":
        // exactly 3 may succeed (4 copies, keep the last).
        let wins = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            let wins = Arc::clone(&wins);
            handles.push(std::thread::spawn(move || {
                if let Ok(Some(_)) = s.delete_edge_if(e, |c| c > 1) {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 3);
        assert_eq!(s.edge_count(e), 1);
    }

    #[test]
    fn bidirectional_stress_no_deadlock() {
        use std::sync::Arc;
        let s = Arc::new(store(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let (a, b) = ((i + t) % 32, (i * 3 + t) % 32);
                    let e = Edge::new(a, b, 0);
                    s.insert_edge(e).unwrap();
                    let _ = s.delete_edge(e);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

#[cfg(test)]
mod bulk_proptests {
    use super::*;
    use crate::index::{art::ArtIndex, btree::BTreeIndex, hash::HashIndex};
    use proptest::prelude::*;
    use std::ops::Range;
    use std::sync::atomic::AtomicUsize;

    /// A [`RangeExecutor`] on `n` scoped threads pulling `grain`-sized
    /// ranges from a shared cursor, so with more than one thread ranges
    /// land on threads nondeterministically.
    struct Threads(usize);

    impl RangeExecutor for Threads {
        fn run_ranges(&self, total: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..self.0 {
                    s.spawn(|| loop {
                        let lo = cursor.fetch_add(grain, Ordering::Relaxed);
                        if lo >= total {
                            break;
                        }
                        f(lo..(lo + grain).min(total));
                    });
                }
            });
        }
    }

    const CAP: usize = 64;

    /// Everything the bulk ≡ sequential contract covers, plus the
    /// allocation sizes that decide later compactions.
    fn assert_same<I: EdgeIndex>(a: &GraphStore<I>, b: &GraphStore<I>, keys: &[Edge]) {
        assert_eq!(a.num_edges(), b.num_edges(), "num_edges");
        assert_eq!(a.num_vertices(), b.num_vertices(), "num_vertices");
        assert_eq!(
            a.vertex_upper_bound(),
            b.vertex_upper_bound(),
            "upper bound"
        );
        for v in 0..CAP as u64 {
            assert_eq!(a.vertex_exists(v), b.vertex_exists(v), "vertex {v}");
            for (x, y, dir) in [(a.out(v), b.out(v), "out"), (a.inn(v), b.inn(v), "in")] {
                assert_eq!(x.slots(), y.slots(), "{dir}-slots of {v}");
                assert_eq!(x.has_index(), y.has_index(), "{dir}-index of {v}");
                assert_eq!(x.memory_bytes(), y.memory_bytes(), "{dir}-memory of {v}");
                assert_eq!(
                    x.degree_with_duplicates(),
                    y.degree_with_duplicates(),
                    "{dir}-degree of {v}"
                );
            }
        }
        for &e in keys {
            assert_eq!(a.edge_count(e), b.edge_count(e), "count of {e:?}");
        }
    }

    /// Prepare a store with `pre` inserted and `dels` deleted (leaving
    /// tombstones), per edge.
    fn seeded<I: EdgeIndex>(config: &StoreConfig, pre: &[Edge], dels: &[usize]) -> GraphStore<I> {
        let s = GraphStore::with_config(CAP, config.clone());
        let auto = config.auto_create_vertices;
        if !auto {
            for v in 0..CAP as u64 / 2 {
                s.insert_vertex(v).unwrap();
            }
        }
        for &e in pre {
            let _ = s.insert_edge(e);
        }
        for &d in dels {
            if let Some(&e) = pre.get(d) {
                let _ = s.delete_edge(e);
            }
        }
        s
    }

    fn check<I: EdgeIndex>(
        config: &StoreConfig,
        pre: &[Edge],
        dels: &[usize],
        batch: &[Edge],
        exec: &dyn RangeExecutor,
    ) {
        let seq: GraphStore<I> = seeded(config, pre, dels);
        let mut bulk: GraphStore<I> = seeded(config, pre, dels);
        let want = batch
            .iter()
            .filter(|&&e| seq.insert_edge(e).is_err())
            .count();
        let got = bulk.insert_edges(batch.len(), &|i| batch[i], exec);
        assert_eq!(got, want, "rejected count");
        let keys: Vec<Edge> = pre.iter().chain(batch).copied().collect();
        assert_same(&seq, &bulk, &keys);
        // Equal allocations mean equal futures: replay deletes and
        // re-inserts on both and compare again.
        for &e in keys.iter().step_by(3) {
            let _ = (seq.delete_edge(e), bulk.delete_edge(e));
        }
        for &e in keys.iter().step_by(5) {
            let _ = (seq.insert_edge(e), bulk.insert_edge(e));
        }
        assert_same(&seq, &bulk, &keys);
    }

    fn edges(raw: &[(u64, u64, u64)]) -> Vec<Edge> {
        raw.iter().map(|&(s, d, w)| Edge::new(s, d, w)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Bulk ingest ends byte for byte where in-order `insert_edge`
        /// does, for every IA index family: random multigraphs with
        /// duplicates (heavy ones when `narrow` folds the destinations
        /// onto 8 vertices), index thresholds of 4 (index builds and
        /// indexed appends), 20 and 40 (lists filled through the
        /// scratch map, crossing the threshold, or kept under it by
        /// duplicates), lists pre-filled with live edges and tombstones
        /// (the non-empty and fallback paths), out-of-range and, in
        /// strict mode, unknown endpoints (rejections), and one to three
        /// threads.
        #[test]
        fn bulk_ingest_matches_sequential_insert(
            pre in proptest::collection::vec((0..10u64, 0..40u64, 0..3u64), 0..200),
            dels in proptest::collection::vec(0..200usize, 0..80),
            batch in proptest::collection::vec((0..10u64, 0..70u64, 0..3u64), 0..900),
            mode in (1..4usize, proptest::bool::ANY, 0..3usize, proptest::bool::ANY)
        ) {
            let (threads, auto, threshold_sel, narrow) = mode;
            let mut batch = edges(&batch);
            if narrow {
                for e in &mut batch {
                    e.dst %= 8;
                }
            }
            let pre = edges(&pre);
            let config = StoreConfig {
                index_threshold: [4, 20, 40][threshold_sel],
                auto_create_vertices: auto,
            };
            let exec = &Threads(threads);
            check::<HashIndex>(&config, &pre, &dels, &batch, exec);
            check::<BTreeIndex>(&config, &pre, &dels, &batch, exec);
            check::<ArtIndex>(&config, &pre, &dels, &batch, exec);
        }
    }

    #[test]
    fn bulk_ingest_builds_hub_index_once_over_a_fresh_store() {
        // One hub past the default threshold plus many short lists.
        let batch: Vec<Edge> = (0..8000u64)
            .map(|i| Edge::new(i % 7, (i * 13) % 1000, i % 2))
            .collect();
        let seq: GraphStore<HashIndex> = GraphStore::with_capacity(1024);
        let mut bulk: GraphStore<HashIndex> = GraphStore::with_capacity(1024);
        for &e in &batch {
            seq.insert_edge(e).unwrap();
        }
        assert_eq!(
            bulk.insert_edges(batch.len(), &|i| batch[i], &Threads(2)),
            0
        );
        assert!(bulk.out(0).has_index());
        for v in 0..1024 {
            assert_eq!(seq.out(v).slots(), bulk.out(v).slots());
            assert_eq!(seq.inn(v).slots(), bulk.inn(v).slots());
        }
        assert_eq!(seq.num_edges(), bulk.num_edges());
    }
}
