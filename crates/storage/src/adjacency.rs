//! A single vertex's adjacency: the dynamic edge array plus its optional
//! index — one "row" of the Indexed Adjacency Lists (Figure 3).
//!
//! Per §5:
//! * edges carry `(dst, weight, duplicate-count)`;
//! * inserting an existing edge only bumps the count; deleting decrements
//!   it and leaves a tombstone at count zero;
//! * tombstones (and their index entries) are recycled when the array
//!   doubles;
//! * an index is created once the array length exceeds the threshold,
//!   trading memory for O(1) lookups on the hubs of power-law graphs.
//!
//! [`AdjacencyList::insert_batch`] is the bulk-load form of `insert`:
//! the same end state, without the linear duplicate scans below the
//! index threshold.

use std::collections::hash_map::Entry;

use risgraph_common::hash::FxHashMap;
use risgraph_common::ids::{VertexId, Weight};

use crate::index::EdgeIndex;

/// One slot of the dynamic edge array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSlot {
    /// Destination vertex id.
    pub dst: VertexId,
    /// Edge payload.
    pub data: Weight,
    /// Multiplicity; `0` marks a tombstone.
    pub count: u32,
}

/// Result of [`AdjacencyList::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The edge did not exist before (fresh slot or revived tombstone).
    New,
    /// The edge existed; its duplicate count was incremented.
    Duplicate { new_count: u32 },
}

/// Result of [`AdjacencyList::delete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The last copy was removed; the edge is now absent (tombstoned).
    Removed,
    /// A duplicate was removed; the edge still exists.
    Decremented { new_count: u32 },
}

/// The adjacency list of one vertex: dynamic slot array + optional index.
#[derive(Debug, Default)]
pub struct AdjacencyList<I: EdgeIndex> {
    slots: Vec<EdgeSlot>,
    index: Option<Box<I>>,
    /// Slots with `count > 0`.
    live_slots: u32,
    /// Sum of `count` over live slots (degree counting duplicates).
    live_edges: u64,
}

impl<I: EdgeIndex> AdjacencyList<I> {
    /// An empty list.
    pub fn new() -> Self {
        AdjacencyList {
            slots: Vec::new(),
            index: None,
            live_slots: 0,
            live_edges: 0,
        }
    }

    /// Number of distinct live edges (out-degree without duplicates).
    #[inline]
    pub fn degree(&self) -> usize {
        self.live_slots as usize
    }

    /// Out-degree counting duplicate edges.
    #[inline]
    pub fn degree_with_duplicates(&self) -> u64 {
        self.live_edges
    }

    /// Number of tombstoned slots awaiting recycling.
    #[inline]
    pub fn tombstones(&self) -> usize {
        self.slots.len() - self.live_slots as usize
    }

    /// Whether this vertex currently has an index.
    #[inline]
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Raw slot array including tombstones. Analytical scans iterate this
    /// directly — "the graph computing engine can directly access
    /// adjacency lists without involving indexes" (§3.1).
    #[inline]
    pub fn slots(&self) -> &[EdgeSlot] {
        &self.slots
    }

    /// Iterate live `(dst, data, count)` triples.
    #[inline]
    pub fn iter_live(&self) -> impl Iterator<Item = EdgeSlot> + '_ {
        self.slots.iter().copied().filter(|s| s.count > 0)
    }

    /// Locate the slot offset of `(dst, data)` via the index if present,
    /// falling back to a linear scan for low-degree vertices.
    #[inline]
    pub fn lookup(&self, dst: VertexId, data: Weight) -> Option<u32> {
        match &self.index {
            Some(idx) => idx.get(dst, data),
            None => self
                .slots
                .iter()
                .position(|s| s.dst == dst && s.data == data)
                .map(|p| p as u32),
        }
    }

    /// Current multiplicity of `(dst, data)`; 0 when absent/tombstoned.
    #[inline]
    pub fn edge_count(&self, dst: VertexId, data: Weight) -> u32 {
        self.lookup(dst, data)
            .map_or(0, |off| self.slots[off as usize].count)
    }

    /// True when at least one copy of `(dst, data)` exists.
    #[inline]
    pub fn contains(&self, dst: VertexId, data: Weight) -> bool {
        self.edge_count(dst, data) > 0
    }

    /// Insert one copy of `(dst, data)`.
    ///
    /// `threshold` is the degree above which an index is (re)built.
    pub fn insert(&mut self, dst: VertexId, data: Weight, threshold: usize) -> InsertOutcome {
        if let Some(off) = self.lookup(dst, data) {
            let slot = &mut self.slots[off as usize];
            debug_assert!(slot.dst == dst && slot.data == data);
            if slot.count > 0 {
                slot.count += 1;
                self.live_edges += 1;
                return InsertOutcome::Duplicate {
                    new_count: slot.count,
                };
            }
            // Revive a tombstone in place — its index entry (if any) was
            // kept alive for exactly this case.
            slot.count = 1;
            self.live_slots += 1;
            self.live_edges += 1;
            return InsertOutcome::New;
        }

        // Compact tombstones when appending would force a reallocation —
        // "RisGraph keeps tomb edges first, and recycles them and their
        // indexes when doubling the adjacency list" (§5).
        if self.slots.len() == self.slots.capacity() && self.tombstones() > 0 {
            self.compact(threshold);
        }

        let off = self.slots.len() as u32;
        self.slots.push(EdgeSlot {
            dst,
            data,
            count: 1,
        });
        self.live_slots += 1;
        self.live_edges += 1;

        match &mut self.index {
            Some(idx) => idx.insert(dst, data, off),
            None => {
                if self.slots.len() > threshold {
                    self.build_index();
                }
            }
        }
        InsertOutcome::New
    }

    /// Insert one copy of each `(dst, data)` of `edges`, in order,
    /// ending exactly as that sequence of [`Self::insert`] calls would:
    /// same slots (first-appearance order, counts), same `Vec` growth,
    /// same index presence. A tombstone-free list is filled in one pass
    /// that merges duplicates through its index, built at most once, or
    /// — while it stays within the threshold — through `scratch`, a
    /// reusable `(dst, data) → offset` map: O(n) instead of the O(n ·
    /// min(n, threshold)) of per-edge scans. Lists holding tombstones
    /// (whose revival and compaction depend on capacity) take the
    /// per-edge path.
    pub fn insert_batch(
        &mut self,
        edges: &[(VertexId, Weight)],
        threshold: usize,
        scratch: &mut FxHashMap<(VertexId, Weight), u32>,
    ) {
        if self.tombstones() > 0 {
            for &(dst, data) in edges {
                self.insert(dst, data, threshold);
            }
            return;
        }
        self.live_edges += edges.len() as u64;
        // A list that may pass the threshold dedups through a fresh index
        // over its current slots: per-edge inserts build the index when
        // the length first passes the threshold and then append in
        // offset order, the same insertion sequence. Duplicates may keep
        // it at or under the threshold, and then the index goes again.
        let fresh_index = self.index.is_none() && self.slots.len() + edges.len() > threshold;
        if fresh_index {
            self.build_index();
        }
        fn append(slots: &mut Vec<EdgeSlot>, dst: VertexId, data: Weight) -> u32 {
            slots.push(EdgeSlot {
                dst,
                data,
                count: 1,
            });
            slots.len() as u32 - 1
        }
        let slots = &mut self.slots;
        match &mut self.index {
            Some(idx) => {
                for &(dst, data) in edges {
                    match idx.get(dst, data) {
                        Some(off) => slots[off as usize].count += 1,
                        None => idx.insert(dst, data, append(slots, dst, data)),
                    }
                }
            }
            None => {
                scratch.clear();
                scratch.extend(
                    slots
                        .iter()
                        .enumerate()
                        .map(|(off, s)| ((s.dst, s.data), off as u32)),
                );
                for &(dst, data) in edges {
                    match scratch.entry((dst, data)) {
                        Entry::Occupied(o) => slots[*o.get() as usize].count += 1,
                        Entry::Vacant(v) => {
                            v.insert(append(slots, dst, data));
                        }
                    }
                }
            }
        }
        if fresh_index && self.slots.len() <= threshold {
            self.index = None;
        }
        // No tombstones: every slot is live.
        self.live_slots = self.slots.len() as u32;
    }

    /// Delete one copy of `(dst, data)`. Returns `None` when the edge is
    /// absent.
    pub fn delete(&mut self, dst: VertexId, data: Weight) -> Option<DeleteOutcome> {
        let off = self.lookup(dst, data)?;
        let slot = &mut self.slots[off as usize];
        if slot.count == 0 {
            return None;
        }
        slot.count -= 1;
        self.live_edges -= 1;
        if slot.count == 0 {
            self.live_slots -= 1;
            // Keep the slot and its index entry as a tombstone; both are
            // recycled on the next compaction (or revived by re-insert).
            Some(DeleteOutcome::Removed)
        } else {
            Some(DeleteOutcome::Decremented {
                new_count: slot.count,
            })
        }
    }

    /// Drop tombstones and rebuild the index (if the live degree still
    /// warrants one).
    pub fn compact(&mut self, threshold: usize) {
        self.slots.retain(|s| s.count > 0);
        debug_assert_eq!(self.slots.len(), self.live_slots as usize);
        if self.slots.len() > threshold {
            self.build_index();
        } else {
            self.index = None;
        }
    }

    fn build_index(&mut self) {
        let mut idx = Box::new(I::default());
        for (off, s) in self.slots.iter().enumerate() {
            idx.insert(s.dst, s.data, off as u32);
        }
        self.index = Some(idx);
    }

    /// Heap bytes used by the slot array and index (Table 9 accounting).
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<EdgeSlot>()
            + self.index.as_ref().map_or(0, |i| i.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::hash::HashIndex;

    type Adj = AdjacencyList<HashIndex>;
    const T: usize = 4; // tiny threshold so tests exercise the index path

    #[test]
    fn insert_and_lookup() {
        let mut a = Adj::new();
        assert_eq!(a.insert(1, 10, T), InsertOutcome::New);
        assert_eq!(a.insert(2, 20, T), InsertOutcome::New);
        assert!(a.contains(1, 10));
        assert!(!a.contains(1, 11));
        assert_eq!(a.degree(), 2);
        assert_eq!(a.degree_with_duplicates(), 2);
    }

    #[test]
    fn duplicate_edges_share_a_slot() {
        let mut a = Adj::new();
        a.insert(1, 10, T);
        assert_eq!(
            a.insert(1, 10, T),
            InsertOutcome::Duplicate { new_count: 2 }
        );
        assert_eq!(a.degree(), 1);
        assert_eq!(a.degree_with_duplicates(), 2);
        assert_eq!(a.edge_count(1, 10), 2);
    }

    #[test]
    fn same_dst_different_weight_is_distinct() {
        let mut a = Adj::new();
        a.insert(1, 10, T);
        assert_eq!(a.insert(1, 11, T), InsertOutcome::New);
        assert_eq!(a.degree(), 2);
    }

    #[test]
    fn delete_decrements_then_tombstones() {
        let mut a = Adj::new();
        a.insert(1, 10, T);
        a.insert(1, 10, T);
        assert_eq!(
            a.delete(1, 10),
            Some(DeleteOutcome::Decremented { new_count: 1 })
        );
        assert!(a.contains(1, 10));
        assert_eq!(a.delete(1, 10), Some(DeleteOutcome::Removed));
        assert!(!a.contains(1, 10));
        assert_eq!(a.delete(1, 10), None);
        assert_eq!(a.tombstones(), 1);
        assert_eq!(a.degree(), 0);
    }

    #[test]
    fn tombstone_revival_reuses_slot() {
        let mut a = Adj::new();
        a.insert(1, 10, T);
        a.insert(2, 20, T);
        a.delete(1, 10);
        let slots_before = a.slots().len();
        assert_eq!(a.insert(1, 10, T), InsertOutcome::New);
        assert_eq!(a.slots().len(), slots_before, "revive must not append");
        assert!(a.contains(1, 10));
    }

    #[test]
    fn index_builds_past_threshold_and_stays_consistent() {
        let mut a = Adj::new();
        for i in 0..3 {
            a.insert(i, 0, T);
        }
        assert!(!a.has_index());
        for i in 3..100 {
            a.insert(i, 0, T);
        }
        assert!(a.has_index());
        for i in 0..100 {
            assert_eq!(a.lookup(i, 0), Some(i as u32));
        }
    }

    #[test]
    fn compaction_recycles_tombstones_and_rebuilds_index() {
        let mut a = Adj::new();
        for i in 0..64u64 {
            a.insert(i, 0, T);
        }
        for i in (0..64u64).step_by(2) {
            a.delete(i, 0);
        }
        assert_eq!(a.tombstones(), 32);
        a.compact(T);
        assert_eq!(a.tombstones(), 0);
        assert_eq!(a.degree(), 32);
        for i in 0..64u64 {
            assert_eq!(a.contains(i, 0), i % 2 == 1, "edge {i}");
        }
        assert!(a.has_index());
    }

    #[test]
    fn compaction_drops_index_when_degree_falls_below_threshold() {
        let mut a = Adj::new();
        for i in 0..10u64 {
            a.insert(i, 0, T);
        }
        assert!(a.has_index());
        for i in 0..9u64 {
            a.delete(i, 0);
        }
        a.compact(T);
        assert!(!a.has_index());
        assert!(a.contains(9, 0));
    }

    #[test]
    fn growth_triggers_inline_compaction() {
        let mut a = Adj::new();
        // Fill, delete everything, then keep inserting fresh edges: the
        // array should recycle tombstones instead of growing unboundedly.
        for round in 0..8u64 {
            for i in 0..128u64 {
                a.insert(round * 1000 + i, 0, T);
            }
            for i in 0..128u64 {
                a.delete(round * 1000 + i, 0);
            }
        }
        assert_eq!(a.degree(), 0);
        assert!(
            a.slots().len() <= 1024,
            "tombstones never recycled: {} slots",
            a.slots().len()
        );
    }

    #[test]
    fn insert_batch_matches_insert_around_the_threshold() {
        // Lists ending just under, at and over the threshold, with and
        // without duplicates, from empty and from pre-filled lists.
        const T: usize = 20;
        for prefill in [0u64, 10] {
            for distinct in T as u64 - 2..=T as u64 + 2 {
                for dups in [0u64, 3] {
                    let keys: Vec<(u64, u64)> = (prefill..distinct)
                        .chain(prefill..prefill + dups)
                        .map(|d| (d, 7))
                        .collect();
                    let (mut seq, mut bulk) = (Adj::new(), Adj::new());
                    for d in 0..prefill {
                        seq.insert(d, 7, T);
                        bulk.insert(d, 7, T);
                    }
                    for &(d, w) in &keys {
                        seq.insert(d, w, T);
                    }
                    bulk.insert_batch(&keys, T, &mut FxHashMap::default());
                    let case = format!("prefill {prefill}, {distinct} distinct, {dups} dups");
                    assert_eq!(seq.slots(), bulk.slots(), "{case}");
                    assert_eq!(seq.has_index(), bulk.has_index(), "{case}");
                    assert_eq!(seq.memory_bytes(), bulk.memory_bytes(), "{case}");
                    assert_eq!(seq.degree(), bulk.degree(), "{case}");
                    assert_eq!(
                        seq.degree_with_duplicates(),
                        bulk.degree_with_duplicates(),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn iter_live_skips_tombstones() {
        let mut a = Adj::new();
        a.insert(1, 0, T);
        a.insert(2, 0, T);
        a.insert(3, 0, T);
        a.delete(2, 0);
        let live: Vec<_> = a.iter_live().map(|s| s.dst).collect();
        assert_eq!(live, vec![1, 3]);
    }

    #[test]
    fn memory_accounting_nonzero_after_inserts() {
        let mut a = Adj::new();
        assert_eq!(a.memory_bytes(), 0);
        for i in 0..100 {
            a.insert(i, 0, T);
        }
        let m = a.memory_bytes();
        assert!(m >= 100 * std::mem::size_of::<EdgeSlot>());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::index::hash::HashIndex;
    use proptest::prelude::*;

    proptest! {
        /// The adjacency list (with compaction, tombstones, revival and
        /// index maintenance) behaves exactly like a multiset, under a
        /// tiny threshold so the index path is always exercised.
        #[test]
        fn adjacency_matches_multiset(
            ops in proptest::collection::vec((0..12u64, 0..3u64, proptest::bool::ANY), 0..400)
        ) {
            let mut a: AdjacencyList<HashIndex> = AdjacencyList::new();
            let mut model: std::collections::HashMap<(u64, u64), u32> =
                std::collections::HashMap::new();
            for (dst, w, is_insert) in ops {
                if is_insert {
                    let outcome = a.insert(dst, w, 2);
                    let count = model.entry((dst, w)).or_insert(0);
                    if *count == 0 {
                        prop_assert_eq!(outcome, InsertOutcome::New);
                    } else {
                        prop_assert_eq!(
                            outcome,
                            InsertOutcome::Duplicate { new_count: *count + 1 }
                        );
                    }
                    *count += 1;
                } else {
                    let had = model.get(&(dst, w)).copied().unwrap_or(0);
                    let outcome = a.delete(dst, w);
                    match had {
                        0 => prop_assert_eq!(outcome, None),
                        1 => {
                            prop_assert_eq!(outcome, Some(DeleteOutcome::Removed));
                            model.remove(&(dst, w));
                        }
                        c => {
                            prop_assert_eq!(
                                outcome,
                                Some(DeleteOutcome::Decremented { new_count: c - 1 })
                            );
                            model.insert((dst, w), c - 1);
                        }
                    }
                }
                prop_assert_eq!(a.degree(), model.len());
                let total: u32 = model.values().sum();
                prop_assert_eq!(a.degree_with_duplicates(), total as u64);
            }
            // Final content equality through live iteration.
            let mut got: Vec<(u64, u64, u32)> =
                a.iter_live().map(|s| (s.dst, s.data, s.count)).collect();
            got.sort_unstable();
            let mut want: Vec<(u64, u64, u32)> =
                model.into_iter().map(|((d, w), c)| (d, w, c)).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
