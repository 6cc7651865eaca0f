//! Leader → follower WAL-shipping replication.
//!
//! PR 3 made the merged epoch WAL record **byte-exact** under
//! cross-shard races: every applied update draws a global
//! application-order stamp inside the store lock that serializes
//! same-edge operations, and the record is sorted by it. That is
//! precisely the property that makes log shipping correct — a follower
//! replaying the records in order reproduces the leader's store
//! byte-for-byte. This module adds the two halves that turn the record
//! stream into read replicas:
//!
//! * [`ReplicationFeed`] — the leader's in-memory, index-addressed
//!   retention of every published [`FeedRecord`]. The coordinator
//!   appends one record (or, for oversized epochs, a chunked run of
//!   records split at version-group boundaries) per epoch *after* the
//!   WAL append, and a recovered WAL prefix is re-published as
//!   `bootstrap` records so a fresh follower can always catch up from
//!   index 0. Appending never blocks on followers: a slow follower
//!   lags behind the feed, it cannot wedge the epoch loop (its
//!   connection throttles on its own bounded writer budget in
//!   `crates/net`).
//! * [`Replica`] — the follower-side state: an [`Engine`] over any
//!   backend plus its own [`HistoryStore`]s and version counter,
//!   applying records through the *existing* replay primitives —
//!   [`Engine::apply_structure`] for the commuting safe phase (which
//!   provably changed no results on the leader) and
//!   [`Engine::apply_unsafe`] for each serial version group (which
//!   recomputes the same incremental change sets the leader recorded).
//!   Because every safe version precedes every unsafe version within an
//!   epoch (the shard barrier orders the `fetch_add`s), the replica's
//!   version numbering — and therefore every `get_value` /
//!   `get_parent` / `get_modified_vertices` answer at every version —
//!   matches the leader's exactly. `tests/replication_differential.rs`
//!   proves it on IA_Hash and ooc-mmap at shards 1 and 4, under
//!   injected frame faults.
//!
//! Record application is **idempotent by index**: a duplicate record
//! (index below the applied watermark) is skipped, a gap is a protocol
//! error that makes the follower resubscribe from its watermark — the
//! two properties that make kill-and-reconnect catch-up safe.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use risgraph_common::ids::{Update, VersionId, VertexId};
use risgraph_common::metrics::{Gauge, Registry};
use risgraph_common::protocol::FeedRecord;
use risgraph_common::{Error, Result};
use risgraph_storage::{AnyStore, BackendKind, StoreConfig};

use crate::engine::{ChangeSet, DynAlgorithm, Engine, EngineConfig};
use crate::history::HistoryStore;
use crate::server::merge_changesets;
use crate::tree::Value;

/// Upper bound on updates per published record: epochs above it are
/// chunked (at version-group boundaries) so every record encodes far
/// below the response frame limit.
pub const MAX_RECORD_UPDATES: usize = 16_384;

/// Retained records plus the retention bookkeeping, under one lock:
/// eviction decisions must see a consistent (records, watermarks,
/// checkpoint-cut) triple.
struct FeedBuf {
    /// Feed index of `records.front()` — the retention floor. Indexes
    /// below it have been evicted (covered by the checkpoint snapshot
    /// and already streamed to every registered follower).
    base: u64,
    records: VecDeque<std::sync::Arc<FeedRecord>>,
    /// Per-registered-follower next-needed index; a record below every
    /// watermark has been delivered everywhere.
    watermarks: HashMap<u64, u64>,
    next_slot: u64,
    /// The latest checkpoint cut `(feed index, leader version)`: the
    /// on-disk snapshot covers all records below the index, so they
    /// may be evicted once every follower has passed them. `None`
    /// until the first checkpoint ⇒ nothing is ever evicted.
    cut: Option<(u64, u64)>,
}

impl FeedBuf {
    fn len(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// Drop every record below the checkpoint cut that all registered
    /// followers have already passed.
    fn evict(&mut self) {
        let Some((cut, _)) = self.cut else { return };
        let floor = self.watermarks.values().copied().fold(cut, u64::min);
        while self.base < floor {
            self.records.pop_front();
            self.base += 1;
        }
    }
}

/// The leader's replication feed: the published [`FeedRecord`]s,
/// addressed by dense index and retained until a checkpoint covers
/// them *and* every registered follower's watermark has passed them,
/// plus the follower registration slots (`max_followers`).
pub struct ReplicationFeed {
    buf: StdMutex<FeedBuf>,
    grew: Condvar,
    max_followers: usize,
    metrics: std::sync::OnceLock<FeedGauges>,
}

/// The feed's registered gauges, published after every mutation while
/// the buffer lock is still held (three relaxed stores).
struct FeedGauges {
    records: std::sync::Arc<Gauge>,
    resident: std::sync::Arc<Gauge>,
    followers: std::sync::Arc<Gauge>,
}

impl ReplicationFeed {
    /// An empty feed admitting at most `max_followers` subscribers.
    pub fn new(max_followers: usize) -> Self {
        ReplicationFeed {
            buf: StdMutex::new(FeedBuf {
                base: 0,
                records: VecDeque::new(),
                watermarks: HashMap::new(),
                next_slot: 0,
                cut: None,
            }),
            grew: Condvar::new(),
            max_followers,
            metrics: std::sync::OnceLock::new(),
        }
    }

    /// Self-register the feed's gauges (`replication.feed.records` /
    /// `.resident` / `.followers`) in `registry`; they track every
    /// mutation from then on. Idempotent — a second call is a no-op.
    pub fn register_metrics(&self, registry: &Registry) {
        let gauges = FeedGauges {
            records: registry.gauge("replication.feed.records"),
            resident: registry.gauge("replication.feed.resident"),
            followers: registry.gauge("replication.feed.followers"),
        };
        let _ = self.metrics.set(gauges);
        self.publish_gauges(&self.buf.lock().unwrap());
    }

    fn publish_gauges(&self, buf: &FeedBuf) {
        if let Some(g) = self.metrics.get() {
            g.records.store(buf.len(), Ordering::Relaxed);
            g.resident
                .store(buf.records.len() as u64, Ordering::Relaxed);
            g.followers
                .store(buf.watermarks.len() as u64, Ordering::Relaxed);
        }
    }

    /// The configured follower limit.
    pub fn max_followers(&self) -> usize {
        self.max_followers
    }

    /// Currently registered followers.
    pub fn followers(&self) -> usize {
        self.buf.lock().unwrap().watermarks.len()
    }

    /// Claim a follower slot whose first needed record is `from`;
    /// `None` when the limit is reached. The slot's watermark pins the
    /// retention floor at `from` until advanced via
    /// [`ReplicationFeed::set_watermark`].
    pub fn try_register(&self, from: u64) -> Option<u64> {
        let mut buf = self.buf.lock().unwrap();
        if buf.watermarks.len() >= self.max_followers {
            return None;
        }
        let slot = buf.next_slot;
        buf.next_slot += 1;
        buf.watermarks.insert(slot, from);
        self.publish_gauges(&buf);
        Some(slot)
    }

    /// Release a slot claimed by [`ReplicationFeed::try_register`],
    /// evicting whatever only it was pinning.
    pub fn unregister(&self, slot: u64) {
        let mut buf = self.buf.lock().unwrap();
        buf.watermarks.remove(&slot);
        buf.evict();
        self.publish_gauges(&buf);
    }

    /// Advance a follower's watermark to `next` (the index it needs
    /// next — everything below has been delivered), evicting records
    /// every follower and the checkpoint have passed. Watermarks are
    /// monotone; stale values are ignored.
    pub fn set_watermark(&self, slot: u64, next: u64) {
        let mut buf = self.buf.lock().unwrap();
        if let Some(w) = buf.watermarks.get_mut(&slot) {
            if next > *w {
                *w = next;
                buf.evict();
                self.publish_gauges(&buf);
            }
        }
    }

    /// Record a checkpoint cut: the durable snapshot now covers every
    /// record below `index`, captured at leader version `version` —
    /// the resume coordinates a snapshot-bootstrapped follower starts
    /// from. Unblocks eviction up to the cut.
    pub fn set_checkpoint(&self, index: u64, version: u64) {
        let mut buf = self.buf.lock().unwrap();
        buf.cut = Some((index, version));
        buf.evict();
        self.publish_gauges(&buf);
    }

    /// The latest checkpoint cut `(feed index, leader version)`.
    pub fn checkpoint_cut(&self) -> Option<(u64, u64)> {
        self.buf.lock().unwrap().cut
    }

    /// Records published so far (including evicted ones — indexes are
    /// dense over the feed's whole history).
    pub fn len(&self) -> u64 {
        self.buf.lock().unwrap().len()
    }

    /// First retained index — the retention floor. A subscribe below
    /// it must bootstrap from the checkpoint snapshot.
    pub fn base(&self) -> u64 {
        self.buf.lock().unwrap().base
    }

    /// Records currently resident in memory (the soak-test bound).
    pub fn resident(&self) -> u64 {
        self.buf.lock().unwrap().records.len() as u64
    }

    /// `true` when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record at `index`: `None` when not yet published *or*
    /// already evicted (callers distinguish via
    /// [`ReplicationFeed::base`]).
    pub fn get(&self, index: u64) -> Option<std::sync::Arc<FeedRecord>> {
        let buf = self.buf.lock().unwrap();
        index
            .checked_sub(buf.base)
            .and_then(|i| buf.records.get(i as usize))
            .cloned()
    }

    /// Block until the feed holds a record at `index` (returning the new
    /// length) or `timeout` elapses (returning the current length).
    pub fn wait_beyond(&self, index: u64, timeout: Duration) -> u64 {
        let guard = self.buf.lock().unwrap();
        if guard.len() > index {
            return guard.len();
        }
        let (guard, _) = self
            .grew
            .wait_timeout_while(guard, timeout, |b| b.len() <= index)
            .unwrap();
        guard.len()
    }

    fn push_all(&self, mut records: Vec<FeedRecord>) {
        if records.is_empty() {
            return;
        }
        let mut guard = self.buf.lock().unwrap();
        for mut rec in records.drain(..) {
            rec.index = guard.len();
            guard.records.push_back(std::sync::Arc::new(rec));
        }
        self.publish_gauges(&guard);
        drop(guard);
        self.grew.notify_all();
    }

    /// Publish a recovered WAL prefix as structure-only bootstrap
    /// records (the leader restarts at version 0 after recovery, so
    /// they carry no version bumps; a follower recomputes results once
    /// the bootstrap prefix ends).
    pub fn append_bootstrap(&self, updates: Vec<Update>) {
        let records = updates
            .chunks(MAX_RECORD_UPDATES)
            .map(|chunk| FeedRecord {
                index: 0, // assigned at push
                bootstrap: true,
                safe_versions: 0,
                safe_updates: chunk.to_vec(),
                unsafe_groups: Vec::new(),
            })
            .collect();
        self.push_all(records);
    }

    /// Publish one epoch: the stamp-sorted safe updates with their
    /// version-bump count, then the serial unsafe version groups in
    /// order. Oversized epochs are split at version-group boundaries
    /// into consecutive records; the safe version bumps ride the last
    /// safe chunk so a follower's numbering advances only after all the
    /// epoch's safe structure is in place.
    pub fn append_epoch(
        &self,
        safe_updates: Vec<Update>,
        safe_versions: u64,
        unsafe_groups: Vec<Vec<Update>>,
    ) {
        if safe_versions == 0 && safe_updates.is_empty() && unsafe_groups.is_empty() {
            return;
        }
        let mut records: Vec<FeedRecord> = Vec::new();
        let blank = |bootstrap: bool| FeedRecord {
            index: 0,
            bootstrap,
            safe_versions: 0,
            safe_updates: Vec::new(),
            unsafe_groups: Vec::new(),
        };
        // Safe chunks.
        if safe_updates.len() > MAX_RECORD_UPDATES {
            for chunk in safe_updates.chunks(MAX_RECORD_UPDATES) {
                let mut rec = blank(false);
                rec.safe_updates = chunk.to_vec();
                records.push(rec);
            }
        } else {
            let mut rec = blank(false);
            rec.safe_updates = safe_updates;
            records.push(rec);
        }
        records
            .last_mut()
            .expect("at least one safe chunk")
            .safe_versions = safe_versions;
        // Unsafe groups, greedily packed onto the tail record. A group
        // is never split (it is one atomic version bump); a group above
        // the chunk limit simply becomes its own oversized record —
        // still far below the response frame limit for any transaction
        // that fit in a request frame.
        for group in unsafe_groups {
            let tail = records.last_mut().expect("non-empty");
            if tail.update_count() + group.len() > MAX_RECORD_UPDATES && tail.update_count() > 0 {
                let mut rec = blank(false);
                rec.unsafe_groups.push(group);
                records.push(rec);
            } else {
                tail.unsafe_groups.push(group);
            }
        }
        self.push_all(records);
    }
}

/// Follower-side state: the engine, per-algorithm history, and the
/// version/record watermarks. See the module docs for the apply
/// contract; wire plumbing (subscribe, reconnect) lives in
/// `risgraph_net::ReplicaServer`.
pub struct Replica {
    engine: Engine<AnyStore>,
    history: Vec<Mutex<HistoryStore>>,
    version: AtomicU64,
    applied_records: AtomicU64,
    leader_version: AtomicU64,
    needs_recompute: AtomicBool,
    /// Held exclusively while a record is applied, so point-in-time
    /// queries never observe a half-applied version group — the
    /// follower twin of the leader's unsafe-phase query gate.
    gate: RwLock<()>,
    /// Growth ceiling, mirroring `ServerConfig::max_capacity`: a feed
    /// record naming a vertex beyond it is corrupt/hostile and is
    /// rejected instead of driving `ensure_capacity` into an
    /// allocation the process cannot survive.
    max_capacity: usize,
}

impl Replica {
    /// A fresh replica maintaining `algorithms` over `backend`.
    /// `max_capacity` bounds on-demand growth exactly like
    /// `ServerConfig::max_capacity` does on the leader.
    pub fn new(
        algorithms: Vec<DynAlgorithm>,
        capacity: usize,
        backend: &BackendKind,
        engine_config: EngineConfig,
        max_capacity: usize,
    ) -> Result<Self> {
        let num_algos = algorithms.len();
        let store = AnyStore::open(
            backend,
            capacity,
            StoreConfig {
                index_threshold: engine_config.index_threshold,
                auto_create_vertices: true,
            },
        )?;
        let engine = Engine::from_store(store, algorithms, engine_config);
        Ok(Replica {
            engine,
            history: (0..num_algos)
                .map(|_| Mutex::new(HistoryStore::new(capacity)))
                .collect(),
            version: AtomicU64::new(0),
            applied_records: AtomicU64::new(0),
            leader_version: AtomicU64::new(0),
            needs_recompute: AtomicBool::new(false),
            gate: RwLock::new(()),
            max_capacity,
        })
    }

    /// Run the deferred post-bootstrap recomputation if one is
    /// pending. Bootstrap records (a leader's recovered WAL prefix)
    /// apply structure only; results are recomputed once — either here
    /// (first query) or when the first live record arrives — instead
    /// of once per bootstrap chunk.
    fn ensure_recomputed(&self) {
        if self.needs_recompute.load(Ordering::Acquire) {
            let _gate = self.gate.write();
            if self.needs_recompute.swap(false, Ordering::AcqRel) {
                self.engine.recompute_all();
            }
        }
    }

    /// The underlying engine (fingerprinting, diagnostics).
    pub fn engine(&self) -> &Engine<AnyStore> {
        &self.engine
    }

    /// Bulk-load the same dataset the leader loaded. Bulk loads are not
    /// WAL-logged on the leader (and therefore not fed), so preload
    /// parity is the deployer's contract — exactly as it is for the
    /// leader's own WAL recovery.
    pub fn load_edges(&self, edges: &[(VertexId, VertexId, u64)]) {
        let _gate = self.gate.write();
        self.engine.load_edges(edges);
    }

    /// Feed records applied so far — the index of the next record this
    /// replica needs, i.e. the `from` of its next subscribe.
    pub fn applied_records(&self) -> u64 {
        self.applied_records.load(Ordering::Acquire)
    }

    /// `get_current_version()` at the applied watermark.
    pub fn current_version(&self) -> VersionId {
        self.version.load(Ordering::Acquire)
    }

    /// Latest leader result version learned from the stream.
    pub fn leader_version(&self) -> u64 {
        self.leader_version.load(Ordering::Acquire)
    }

    /// Record a leader version watermark (heartbeats; monotone).
    pub fn note_leader_version(&self, v: u64) {
        self.leader_version.fetch_max(v, Ordering::AcqRel);
    }

    /// Replication lag in result versions: how far the applied
    /// watermark trails the last leader version heard of.
    pub fn lag(&self) -> u64 {
        self.leader_version().saturating_sub(self.current_version())
    }

    /// Apply one feed record. Returns `Ok(false)` for an
    /// already-applied duplicate (skipped idempotently), `Ok(true)`
    /// when applied; a record *ahead* of the watermark means frames
    /// were lost and surfaces as [`Error::Protocol`] so the follower
    /// resubscribes from [`Replica::applied_records`].
    pub fn apply_record(&self, rec: &FeedRecord) -> Result<bool> {
        let next = self.applied_records.load(Ordering::Acquire);
        if rec.index < next {
            return Ok(false);
        }
        if rec.index > next {
            return Err(Error::Protocol(format!(
                "replication feed gap: expected record {next}, got {}",
                rec.index
            )));
        }
        let _gate = self.gate.write();
        let need = record_capacity(rec);
        if need as usize > self.engine.capacity() {
            // The ceiling gates *growth*, not addressing — exactly the
            // leader's `max_capacity` rule. The leader never publishes
            // such a record (it rejects the update first), so hitting
            // this means the stream is corrupt or hostile.
            if need as usize > self.max_capacity {
                return Err(Error::Corruption(format!(
                    "feed record names vertex {} beyond the replica's max_capacity {}",
                    need - 1,
                    self.max_capacity
                )));
            }
            self.engine.ensure_capacity(need as usize);
        }
        if rec.bootstrap {
            // The leader's own recovery path: structure only, result
            // recomputation deferred to the end of the prefix.
            self.engine.apply_structure_batch(&rec.safe_updates);
            for group in &rec.unsafe_groups {
                self.engine.apply_structure_batch(group);
            }
            self.needs_recompute.store(true, Ordering::Release);
        } else {
            if self.needs_recompute.swap(false, Ordering::AcqRel) {
                self.engine.recompute_all();
            }
            for u in &rec.safe_updates {
                // The leader applied this exact update; failure here
                // means the replica diverged.
                self.engine.apply_structure(u).map_err(|e| {
                    Error::Corruption(format!("replica diverged applying safe {u:?}: {e}"))
                })?;
            }
            let mut version = self.version.load(Ordering::Acquire);
            version += rec.safe_versions;
            let num_algos = self.engine.num_algorithms();
            for group in &rec.unsafe_groups {
                let mut sets: Vec<ChangeSet> = Vec::with_capacity(group.len());
                for u in group {
                    sets.push(self.engine.apply_unsafe(u).map_err(|e| {
                        Error::Corruption(format!("replica diverged applying {u:?}: {e}"))
                    })?);
                }
                version += 1;
                let merged = merge_changesets(sets, num_algos);
                if !merged.is_empty() {
                    for (algo, changes) in merged.per_algo.iter().enumerate() {
                        if !changes.is_empty() {
                            self.history[algo].lock().record(version, changes);
                        }
                    }
                }
            }
            self.version.store(version, Ordering::Release);
        }
        self.applied_records.store(rec.index + 1, Ordering::Release);
        self.note_leader_version(self.version.load(Ordering::Acquire));
        Ok(true)
    }

    /// Install a leader checkpoint snapshot on a **fresh** replica: a
    /// cold follower whose subscribe offset fell below the feed's
    /// retention floor receives the snapshot's structure plus the
    /// resume coordinates `(resume_index, resume_version)` — the feed
    /// index and leader version the snapshot corresponds to — and
    /// continues live from there. The caller buffers the streamed
    /// chunks and installs them in one shot, so a connection lost
    /// mid-bootstrap leaves the replica untouched (still fresh, still
    /// able to resubscribe from 0). A non-fresh replica rejects the
    /// install: its state would double-apply under the snapshot.
    pub fn install_snapshot(
        &self,
        updates: &[Update],
        resume_index: u64,
        resume_version: u64,
    ) -> Result<()> {
        let _gate = self.gate.write();
        if self.applied_records.load(Ordering::Acquire) != 0 {
            return Err(Error::Protocol(
                "snapshot bootstrap on a non-fresh replica".into(),
            ));
        }
        let need = updates
            .iter()
            .map(|u| match u {
                Update::InsEdge(e) | Update::DelEdge(e) => e.src.max(e.dst),
                Update::InsVertex(v) | Update::DelVertex(v) => *v,
            })
            .max()
            .map_or(0, |v| v.saturating_add(1));
        if need as usize > self.engine.capacity() {
            if need as usize > self.max_capacity {
                return Err(Error::Corruption(format!(
                    "snapshot names vertex {} beyond the replica's max_capacity {}",
                    need - 1,
                    self.max_capacity
                )));
            }
            self.engine.ensure_capacity(need as usize);
        }
        self.engine.apply_structure_batch(updates);
        self.needs_recompute.store(true, Ordering::Release);
        self.version.store(resume_version, Ordering::Release);
        self.applied_records.store(resume_index, Ordering::Release);
        self.note_leader_version(resume_version);
        Ok(())
    }

    /// Reset this replica to **fresh** state: empty structure, empty
    /// history, version and applied-record watermarks back to 0 — as
    /// if it had just been constructed. The recovery path for a
    /// follower whose subscribe offset fell below the leader feed's
    /// retention floor (`Error::FeedTruncated`): nothing below the
    /// floor will ever be streamed again, so the only way forward is
    /// to re-subscribe at offset 0 and take the snapshot bootstrap —
    /// which [`Replica::install_snapshot`] only permits on a fresh
    /// replica. Edges are removed structure-only (fast path); vertices
    /// go through the incremental unsafe path so every algorithm's
    /// result state is reset alongside the structure.
    pub fn reset(&self) -> Result<()> {
        let _gate = self.gate.write();
        self.needs_recompute.store(false, Ordering::Release);
        // Export order is vertices-then-edges; undo in reverse so
        // every vertex is isolated by the time it is deleted.
        for u in self.engine.export_structure().iter().rev() {
            match u {
                Update::InsEdge(e) => {
                    self.engine.apply_structure(&Update::DelEdge(*e))?;
                }
                Update::InsVertex(v) => {
                    self.engine.apply_unsafe(&Update::DelVertex(*v))?;
                }
                other => {
                    return Err(Error::Corruption(format!(
                        "structure export produced a non-insert update {other:?}"
                    )));
                }
            }
        }
        let capacity = self.engine.capacity();
        for h in &self.history {
            *h.lock() = HistoryStore::new(capacity);
        }
        self.version.store(0, Ordering::Release);
        self.applied_records.store(0, Ordering::Release);
        Ok(())
    }

    fn check_version(&self, version: VersionId) -> Result<()> {
        if version > self.version.load(Ordering::Acquire) {
            return Err(Error::VersionNotFound(version));
        }
        Ok(())
    }

    fn check_vertex(&self, v: VertexId) -> Result<()> {
        if v as usize >= self.engine.capacity() {
            return Err(Error::VertexNotFound(v));
        }
        Ok(())
    }

    /// `get_value(version_id, vertex_id)` at the applied watermark.
    pub fn get_value(&self, algo: usize, version: VersionId, v: VertexId) -> Result<Value> {
        self.ensure_recomputed();
        let _gate = self.gate.read();
        self.check_vertex(v)?;
        self.check_version(version)?;
        let current = self.engine.value(algo, v);
        self.history[algo].lock().value_at(version, v, current)
    }

    /// `get_parent(version_id, vertex_id)` at the applied watermark.
    pub fn get_parent(
        &self,
        algo: usize,
        version: VersionId,
        v: VertexId,
    ) -> Result<Option<risgraph_common::ids::Edge>> {
        self.ensure_recomputed();
        let _gate = self.gate.read();
        self.check_vertex(v)?;
        self.check_version(version)?;
        let current = self.engine.parent(algo, v);
        self.history[algo].lock().parent_at(version, v, current)
    }

    /// `get_modified_vertices(version_id)` at the applied watermark.
    pub fn get_modified_vertices(&self, algo: usize, version: VersionId) -> Result<Vec<VertexId>> {
        self.ensure_recomputed();
        let _gate = self.gate.read();
        self.check_version(version)?;
        self.history[algo].lock().modified_vertices(version)
    }
}

/// One-past the highest vertex id a record touches.
fn record_capacity(rec: &FeedRecord) -> u64 {
    rec.safe_updates
        .iter()
        .chain(rec.unsafe_groups.iter().flatten())
        .map(|u| match u {
            Update::InsEdge(e) | Update::DelEdge(e) => e.src.max(e.dst),
            Update::InsVertex(v) | Update::DelVertex(v) => *v,
        })
        .max()
        .map_or(0, |v| v.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_algorithms::Bfs;
    use risgraph_common::ids::Edge;
    use std::sync::Arc;

    #[test]
    fn feed_indexes_are_dense_and_waitable() {
        let feed = ReplicationFeed::new(2);
        assert!(feed.is_empty());
        feed.append_epoch(vec![Update::InsVertex(1)], 1, vec![]);
        feed.append_epoch(vec![], 0, vec![vec![Update::InsVertex(2)]]);
        assert_eq!(feed.len(), 2);
        assert_eq!(feed.get(0).unwrap().index, 0);
        assert_eq!(feed.get(1).unwrap().index, 1);
        assert!(feed.get(2).is_none());
        assert_eq!(feed.wait_beyond(1, Duration::from_millis(1)), 2);
        assert_eq!(feed.wait_beyond(5, Duration::from_millis(1)), 2);
    }

    #[test]
    fn feed_skips_empty_epochs() {
        let feed = ReplicationFeed::new(1);
        feed.append_epoch(vec![], 0, vec![]);
        assert!(feed.is_empty());
        // An empty transaction still bumps the version and must ship.
        feed.append_epoch(vec![], 0, vec![vec![]]);
        assert_eq!(feed.len(), 1);
        assert_eq!(feed.get(0).unwrap().version_bumps(), 1);
    }

    #[test]
    fn follower_slots_are_bounded() {
        let feed = ReplicationFeed::new(2);
        let a = feed.try_register(0).unwrap();
        let _b = feed.try_register(0).unwrap();
        assert!(feed.try_register(0).is_none());
        feed.unregister(a);
        assert!(feed.try_register(0).is_some());
        assert_eq!(feed.followers(), 2);
    }

    /// Before the first checkpoint nothing is ever evicted (a cold
    /// follower must be able to catch up from index 0); after one,
    /// records below the cut go as soon as no follower pins them.
    #[test]
    fn checkpoint_cut_evicts_passed_records() {
        let feed = ReplicationFeed::new(2);
        for i in 0..4 {
            feed.append_epoch(vec![Update::InsVertex(i)], 1, vec![]);
        }
        assert_eq!((feed.len(), feed.base(), feed.resident()), (4, 0, 4));
        // No followers: the cut alone sets the retention floor.
        feed.set_checkpoint(3, 3);
        assert_eq!((feed.len(), feed.base(), feed.resident()), (4, 3, 1));
        assert!(feed.get(2).is_none(), "evicted");
        assert_eq!(feed.get(3).unwrap().index, 3, "post-cut record retained");
        assert_eq!(feed.checkpoint_cut(), Some((3, 3)));
        // Indexes stay dense across eviction.
        feed.append_epoch(vec![Update::InsVertex(9)], 1, vec![]);
        assert_eq!(feed.get(4).unwrap().index, 4);
    }

    #[test]
    fn follower_watermark_pins_retention() {
        let feed = ReplicationFeed::new(2);
        for i in 0..6 {
            feed.append_epoch(vec![Update::InsVertex(i)], 1, vec![]);
        }
        let slot = feed.try_register(0).unwrap();
        feed.set_checkpoint(5, 5);
        // The registered follower still needs record 0: nothing goes.
        assert_eq!((feed.base(), feed.resident()), (0, 6));
        feed.set_watermark(slot, 4);
        assert_eq!(
            (feed.base(), feed.resident()),
            (4, 2),
            "evicted to min(watermark, cut)"
        );
        // Watermarks are monotone: a stale value cannot resurrect.
        feed.set_watermark(slot, 2);
        assert_eq!(feed.base(), 4);
        // Dropping the follower releases its pin up to the cut.
        feed.unregister(slot);
        assert_eq!((feed.base(), feed.resident()), (5, 1));
    }

    #[test]
    fn oversized_epochs_chunk_at_group_boundaries() {
        let feed = ReplicationFeed::new(1);
        let safe: Vec<Update> = (0..MAX_RECORD_UPDATES as u64 + 10)
            .map(Update::InsVertex)
            .collect();
        let groups: Vec<Vec<Update>> = (0..3)
            .map(|g| vec![Update::InsEdge(Edge::new(g, g + 1, 0)); MAX_RECORD_UPDATES / 2])
            .collect();
        feed.append_epoch(safe.clone(), 7, groups.clone());
        let n = feed.len();
        assert!(n >= 3, "epoch must have been chunked, got {n} records");
        // Reassemble and verify nothing was lost or reordered.
        let mut got_safe = Vec::new();
        let mut got_groups = Vec::new();
        let mut got_versions = 0;
        for i in 0..n {
            let rec = feed.get(i).unwrap();
            assert_eq!(rec.index, i);
            assert!(!rec.bootstrap);
            assert!(
                rec.update_count() <= MAX_RECORD_UPDATES.max(groups[0].len()),
                "record {i} oversized: {}",
                rec.update_count()
            );
            // Safe chunks precede every unsafe group.
            if !rec.safe_updates.is_empty() {
                assert!(got_groups.is_empty(), "safe updates after an unsafe group");
            }
            got_safe.extend(rec.safe_updates.iter().copied());
            got_groups.extend(rec.unsafe_groups.iter().cloned());
            got_versions += rec.safe_versions;
        }
        assert_eq!(got_safe, safe);
        assert_eq!(got_groups, groups);
        assert_eq!(got_versions, 7);
    }

    /// Pump a leader's feed into a replica by hand (no sockets): the
    /// replica's versions, values and per-version history must match
    /// the leader's exactly, and re-applying records must be a no-op.
    #[test]
    fn replica_applies_feed_records_version_exactly() {
        let mut config = crate::server::ServerConfig::default();
        config.engine.threads = 1;
        config.shards = 1;
        config.backend = BackendKind::IaHash;
        config.max_followers = 1;
        let leader =
            crate::server::Server::start(vec![Arc::new(Bfs::new(0)) as DynAlgorithm], 32, config)
                .unwrap();
        let session = leader.session();
        let mut observed: Vec<u64> = Vec::new();
        for u in [
            Update::InsEdge(Edge::new(0, 1, 0)), // unsafe: extends the tree
            Update::InsEdge(Edge::new(1, 2, 0)), // unsafe
            Update::InsEdge(Edge::new(2, 0, 0)), // safe back edge
            Update::InsEdge(Edge::new(0, 2, 0)), // unsafe shortcut
            Update::DelEdge(Edge::new(1, 2, 0)), // unsafe tree delete
        ] {
            let r = session.submit_update(&u);
            assert!(r.outcome.is_ok(), "{u:?}");
            observed.push(r.version);
        }
        let r = session.txn_updates(vec![]);
        assert!(r.outcome.is_ok(), "empty txn bumps the version");
        observed.push(r.version);

        let replica = Replica::new(
            vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
            32,
            &BackendKind::IaHash,
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            1 << 26,
        )
        .unwrap();
        let feed = leader.feed().expect("feed enabled").clone();
        // Replies land before the epoch-end feed publish: wait until
        // the feed covers every version the sessions observed.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let bumps: u64 = (0..feed.len())
                .map(|i| feed.get(i).unwrap().version_bumps())
                .sum();
            if bumps == leader.current_version() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "feed never caught up: {bumps} of {}",
                leader.current_version()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..feed.len() {
            let rec = feed.get(i).unwrap();
            assert!(replica.apply_record(&rec).unwrap());
            assert!(!replica.apply_record(&rec).unwrap(), "duplicate skipped");
        }
        // A gap is a protocol error.
        let gap = FeedRecord {
            index: feed.len() + 5,
            ..FeedRecord::default()
        };
        assert!(matches!(
            replica.apply_record(&gap),
            Err(Error::Protocol(_))
        ));

        assert_eq!(replica.current_version(), leader.current_version());
        assert_eq!(replica.lag(), 0);
        let q = leader.session();
        for &ver in &observed {
            for v in 0..4u64 {
                assert_eq!(
                    replica.get_value(0, ver, v).unwrap(),
                    q.get_value(0, ver, v).unwrap(),
                    "value of {v} at version {ver}"
                );
                assert_eq!(
                    replica.get_parent(0, ver, v).unwrap(),
                    q.get_parent(0, ver, v).unwrap(),
                    "parent of {v} at version {ver}"
                );
            }
            let mut lm = q.get_modified_vertices(0, ver).unwrap();
            let mut rm = replica.get_modified_vertices(0, ver).unwrap();
            lm.sort_unstable();
            rm.sort_unstable();
            assert_eq!(lm, rm, "modified set at version {ver}");
        }
        assert!(matches!(
            replica.get_value(0, replica.current_version() + 1, 0),
            Err(Error::VersionNotFound(_))
        ));
        leader.shutdown();
    }

    /// A bootstrap-only prefix (a WAL-recovered idle leader) must still
    /// serve *recomputed* results: the deferred recompute fires on the
    /// first query, not only on the first live record.
    #[test]
    fn bootstrap_prefix_recomputes_on_first_query() {
        let replica = Replica::new(
            vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
            16,
            &BackendKind::IaHash,
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            1 << 26,
        )
        .unwrap();
        let rec = FeedRecord {
            index: 0,
            bootstrap: true,
            safe_versions: 0,
            safe_updates: vec![
                Update::InsEdge(Edge::new(0, 1, 0)),
                Update::InsEdge(Edge::new(1, 2, 0)),
            ],
            unsafe_groups: vec![],
        };
        assert!(replica.apply_record(&rec).unwrap());
        assert_eq!(replica.current_version(), 0, "bootstrap bumps nothing");
        // No live record ever arrives; the query itself must trigger
        // the recompute.
        assert_eq!(replica.get_value(0, 0, 2).unwrap(), 2, "BFS distance");
        assert_eq!(
            replica.get_parent(0, 0, 2).unwrap(),
            Some(Edge::new(1, 2, 0))
        );
    }

    /// A record naming an absurd vertex id must be rejected as
    /// corruption, not grow the engine into an unsurvivable allocation.
    #[test]
    fn absurd_record_capacity_is_corruption_not_growth() {
        let replica = Replica::new(
            vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
            16,
            &BackendKind::IaHash,
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            1 << 20,
        )
        .unwrap();
        let rec = FeedRecord {
            index: 0,
            bootstrap: false,
            safe_versions: 0,
            safe_updates: vec![],
            unsafe_groups: vec![vec![Update::InsEdge(Edge::new(1 << 60, 0, 0))]],
        };
        assert!(matches!(
            replica.apply_record(&rec),
            Err(Error::Corruption(_))
        ));
        assert_eq!(replica.applied_records(), 0, "nothing applied");
        assert!(replica.engine().capacity() <= 1 << 20, "no runaway growth");
    }
}
