//! A Differential-Dataflow-style generalized incremental engine.
//!
//! Differential Dataflow (CIDR'13) + Naiad execute iterative incremental
//! computations over *arrangements* — ordered, indexed collections —
//! with no graph-specific data layout. The paper's §6.4 measures a DD
//! BFS/SSSP implementation as its generalized-dataflow baseline.
//!
//! This stand-in reproduces the two properties the comparison targets:
//!
//! 1. **No graph-awareness**: edges live in ordered arrangement-style
//!    indexes (`BTreeMap` keyed by `(src, dst, weight)` ranges), values
//!    in a keyed collection; every operation goes through comparison-
//!    based index searches rather than O(1) array addressing.
//! 2. **Round-synchronous delta processing**: computation advances in
//!    synchronous rounds; each round joins the current delta collection
//!    against the edge arrangement, consolidates (sort + dedup), and
//!    applies the resulting changes — the dataflow join/reduce shape.
//!
//! Incrementality: insert-only batches reuse current values (monotonic
//! improvements are always sound). A batch containing an *effective*
//! deletion re-derives the fixpoint from initial values — real DD
//! instead retracts via multiversioned differences; our restart is the
//! conservative correct equivalent (PAPER.md "Substitutions"). For
//! the per-update and small-batch regimes Figure 14 focuses on, both
//! pay "not proportional to the affected area", which is the behaviour
//! under test.

use std::collections::BTreeMap;

use risgraph_algorithms::Monotonic;
use risgraph_common::ids::{Edge, Update, VertexId, Weight};

/// The generalized-dataflow baseline engine.
pub struct Differential<A: Monotonic<Value = u64>> {
    alg: A,
    n: usize,
    /// Edge arrangement: ordered multiset of (src, dst, weight).
    arrangement: BTreeMap<(VertexId, VertexId, Weight), u32>,
    /// Reverse arrangement for undirected algorithms.
    reverse: BTreeMap<(VertexId, VertexId, Weight), u32>,
    values: Vec<u64>,
    /// Diagnostics: rounds executed (the dataflow's iteration count).
    pub rounds: u64,
    /// Diagnostics: full restarts caused by deletions.
    pub restarts: u64,
}

impl<A: Monotonic<Value = u64>> Differential<A> {
    /// An empty engine over `n` vertices.
    pub fn new(alg: A, n: usize) -> Self {
        let values = (0..n as u64).map(|v| alg.init_val(v)).collect();
        Differential {
            alg,
            n,
            arrangement: BTreeMap::new(),
            reverse: BTreeMap::new(),
            values,
            rounds: 0,
            restarts: 0,
        }
    }

    /// Current values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Bulk-load and compute the initial fixpoint.
    pub fn load(&mut self, edges: &[(VertexId, VertexId, Weight)]) {
        for &(s, d, w) in edges {
            *self.arrangement.entry((s, d, w)).or_insert(0) += 1;
            *self.reverse.entry((d, s, w)).or_insert(0) += 1;
        }
        self.full_fixpoint();
    }

    fn out_edges<'a>(
        arrangement: &'a BTreeMap<(VertexId, VertexId, Weight), u32>,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, Weight)> + 'a {
        arrangement
            .range((v, 0, 0)..=(v, VertexId::MAX, Weight::MAX))
            .map(|(&(_, d, w), _)| (d, w))
    }

    /// Synchronous semi-naive iteration from the current values, seeded
    /// by `delta` (a consolidated collection of changed vertices).
    fn iterate(&mut self, mut delta: Vec<VertexId>) {
        while !delta.is_empty() {
            self.rounds += 1;
            // Consolidation: dataflow operators sort and deduplicate
            // their input collections every round.
            delta.sort_unstable();
            delta.dedup();
            let mut next: Vec<(VertexId, u64, VertexId, Weight)> = Vec::new();
            for &v in &delta {
                let vv = self.values[v as usize];
                for (d, w) in Self::out_edges(&self.arrangement, v) {
                    let cand = self.alg.gen_next(Edge::new(v, d, w), vv);
                    if self.alg.need_upd(d, self.values[d as usize], cand) {
                        next.push((d, cand, v, w));
                    }
                }
                if self.alg.undirected() {
                    for (d, w) in Self::out_edges(&self.reverse, v) {
                        let cand = self.alg.gen_next(Edge::new(v, d, w), vv);
                        if self.alg.need_upd(d, self.values[d as usize], cand) {
                            next.push((d, cand, v, w));
                        }
                    }
                }
            }
            // Reduce: keep the best candidate per key, apply, emit delta.
            next.sort_unstable_by_key(|&(d, _, _, _)| d);
            delta = Vec::new();
            for (d, cand, _, _) in next {
                if self.alg.need_upd(d, self.values[d as usize], cand) {
                    self.values[d as usize] = cand;
                    delta.push(d);
                }
            }
        }
    }

    fn full_fixpoint(&mut self) {
        self.values = (0..self.n as u64).map(|v| self.alg.init_val(v)).collect();
        let all: Vec<VertexId> = (0..self.n as u64).collect();
        self.iterate(all);
    }

    /// Apply one batch of updates and reconverge.
    pub fn apply_batch(&mut self, updates: &[Update]) {
        let mut deletion = false;
        let mut seeds: Vec<VertexId> = Vec::new();
        for u in updates {
            match u {
                Update::InsEdge(e) => {
                    *self.arrangement.entry((e.src, e.dst, e.data)).or_insert(0) += 1;
                    *self.reverse.entry((e.dst, e.src, e.data)).or_insert(0) += 1;
                    seeds.push(e.src);
                    if self.alg.undirected() {
                        seeds.push(e.dst);
                    }
                }
                Update::DelEdge(e) => {
                    if let Some(c) = self.arrangement.get_mut(&(e.src, e.dst, e.data)) {
                        *c -= 1;
                        let gone = *c == 0;
                        if gone {
                            self.arrangement.remove(&(e.src, e.dst, e.data));
                        }
                        if let Some(r) = self.reverse.get_mut(&(e.dst, e.src, e.data)) {
                            *r -= 1;
                            if *r == 0 {
                                self.reverse.remove(&(e.dst, e.src, e.data));
                            }
                        }
                        if gone {
                            deletion = true;
                        }
                    }
                }
                Update::InsVertex(_) | Update::DelVertex(_) => {}
            }
        }
        if deletion {
            // Retraction: re-derive from initial values (see module docs).
            self.restarts += 1;
            self.full_fixpoint();
        } else if !seeds.is_empty() {
            self.iterate(seeds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_algorithms::{reference, Bfs, Sssp, Sswp, Wcc};

    #[test]
    fn load_matches_oracle() {
        let edges = vec![(0, 1, 2u64), (1, 2, 3), (0, 2, 9)];
        let mut dd = Differential::new(Sssp::new(0), 3);
        dd.load(&edges);
        assert_eq!(dd.values(), &[0, 2, 5]);
    }

    #[test]
    fn insert_only_batches_are_incremental() {
        let mut dd = Differential::new(Bfs::new(0), 4);
        dd.load(&[(0, 1, 0)]);
        let restarts = dd.restarts;
        dd.apply_batch(&[Update::InsEdge(Edge::new(1, 2, 0))]);
        assert_eq!(dd.values()[2], 2);
        assert_eq!(dd.restarts, restarts, "insertion must not restart");
    }

    #[test]
    fn deletions_trigger_restart_and_stay_correct() {
        let mut dd = Differential::new(Bfs::new(0), 4);
        dd.load(&[(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
        dd.apply_batch(&[Update::DelEdge(Edge::new(0, 2, 0))]);
        assert_eq!(dd.restarts, 1);
        assert_eq!(dd.values(), &[0, 1, 2, u64::MAX]);
    }

    #[test]
    fn duplicate_edge_deletion_only_restarts_when_last_copy_goes() {
        let mut dd = Differential::new(Bfs::new(0), 3);
        dd.load(&[(0, 1, 0), (0, 1, 0)]);
        dd.apply_batch(&[Update::DelEdge(Edge::new(0, 1, 0))]);
        assert_eq!(dd.restarts, 0, "a copy remains: no retraction");
        assert_eq!(dd.values()[1], 1);
        dd.apply_batch(&[Update::DelEdge(Edge::new(0, 1, 0))]);
        assert_eq!(dd.restarts, 1);
        assert_eq!(dd.values()[1], u64::MAX);
    }

    #[test]
    fn randomized_differential_vs_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        fn run<A: Monotonic<Value = u64> + Copy>(alg: A, seed: u64) {
            let n = 40u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live: Vec<(u64, u64, u64)> = (0..100)
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(1..6),
                    )
                })
                .collect();
            let mut dd = Differential::new(alg, n as usize);
            dd.load(&live);
            for _ in 0..25 {
                let mut batch = Vec::new();
                for _ in 0..rng.gen_range(1..5) {
                    if !live.is_empty() && rng.gen_bool(0.5) {
                        let i = rng.gen_range(0..live.len());
                        let (s, d, w) = live.swap_remove(i);
                        batch.push(Update::DelEdge(Edge::new(s, d, w)));
                    } else {
                        let t = (
                            rng.gen_range(0..n),
                            rng.gen_range(0..n),
                            rng.gen_range(1..6),
                        );
                        live.push(t);
                        batch.push(Update::InsEdge(Edge::new(t.0, t.1, t.2)));
                    }
                }
                dd.apply_batch(&batch);
                let want = reference::compute(&alg, n as usize, &live);
                assert_eq!(dd.values(), &want[..], "{} seed {seed}", alg.name());
            }
        }
        for seed in [21u64, 22] {
            run(Bfs::new(0), seed);
            run(Sssp::new(0), seed);
            run(Sswp::new(0), seed);
            run(Wcc::new(), seed);
        }
    }
}
