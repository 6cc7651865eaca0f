//! Correctness checks, run outside the timed region: leader values
//! against the reference computation over the final edge multiset, and
//! the follower against the leader.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use risgraph_common::ids::Update;
use risgraph_core::engine::Engine;
use risgraph_storage::AnyStore;
use risgraph_testkit::differential::store_fingerprint;

use crate::workload::Inputs;

/// The edge multiset the leader should hold: the preload plus every
/// update that was acknowledged as applied.
pub struct Multiset {
    counts: HashMap<(u64, u64, u64), i64>,
}

impl Multiset {
    /// Start from the preload.
    pub fn of(preload: &[(u64, u64, u64)]) -> Multiset {
        let mut counts = HashMap::with_capacity(preload.len());
        for &e in preload {
            *counts.entry(e).or_insert(0) += 1;
        }
        Multiset { counts }
    }

    /// Fold in one applied update. Applied updates commute as counts,
    /// so the order they completed in does not matter.
    pub fn apply(&mut self, u: &Update) {
        match u {
            Update::InsEdge(e) => *self.counts.entry((e.src, e.dst, e.data)).or_insert(0) += 1,
            Update::DelEdge(e) => *self.counts.entry((e.src, e.dst, e.data)).or_insert(0) -= 1,
            Update::InsVertex(_) | Update::DelVertex(_) => {}
        }
    }

    /// Edges with their multiplicity, sorted; `None` if any count went
    /// negative (a delete applied to an edge that was not there).
    pub fn edges(&self) -> Option<Vec<(u64, u64, u64)>> {
        let mut out = Vec::new();
        for (&e, &c) in &self.counts {
            if c < 0 {
                return None;
            }
            out.extend(std::iter::repeat_n(e, c as usize));
        }
        out.sort_unstable();
        Some(out)
    }
}

/// Vertices whose value in `engine` differs from the reference fixpoint
/// over `expected` (every vertex, when the multiset is impossible).
pub fn oracle_mismatches(inputs: &Inputs, engine: &Engine<AnyStore>, expected: &Multiset) -> u64 {
    let n = inputs.capacity;
    let Some(edges) = expected.edges() else {
        return n as u64;
    };
    let want = inputs.algo.reference(n, &edges);
    let got = engine.values_snapshot(0, n);
    let mut bad = want.iter().zip(&got).filter(|(a, b)| a != b).count() as u64;
    if engine.num_edges() != edges.len() as u64 {
        bad += 1;
    }
    bad
}

/// Wait up to `timeout` for `current()` to reach `target`; returns the
/// wait, or `None` on timeout.
pub fn await_version(
    current: impl Fn() -> u64,
    target: u64,
    timeout: Duration,
) -> Option<Duration> {
    let t0 = Instant::now();
    while current() < target {
        if t0.elapsed() > timeout {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Some(t0.elapsed())
}

/// Mismatches between a caught-up follower and the leader: differing
/// values plus one for a differing store fingerprint.
pub fn follower_mismatches(
    n: usize,
    leader: &Engine<AnyStore>,
    follower: &Engine<AnyStore>,
) -> u64 {
    let a = leader.values_snapshot(0, n);
    let b = follower.values_snapshot(0, n);
    let mut bad = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
    if store_fingerprint(leader, n as u64) != store_fingerprint(follower, n as u64) {
        bad += 1;
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_common::ids::Edge;

    #[test]
    fn multiset_counts_and_flags_impossible_deletes() {
        let mut m = Multiset::of(&[(0, 1, 1), (0, 1, 1), (1, 2, 3)]);
        m.apply(&Update::DelEdge(Edge::new(0, 1, 1)));
        m.apply(&Update::InsEdge(Edge::new(2, 3, 1)));
        assert_eq!(m.edges().unwrap(), vec![(0, 1, 1), (1, 2, 3), (2, 3, 1)]);
        m.apply(&Update::DelEdge(Edge::new(5, 6, 1)));
        assert!(m.edges().is_none());
    }

    #[test]
    fn oracle_counts_a_wrong_value() {
        use crate::workload::{engine_config, Algo};
        use risgraph_algorithms::Sssp;
        use risgraph_storage::{BackendKind, StoreConfig, DEFAULT_INDEX_THRESHOLD};
        let preload = vec![(0, 1, 5), (1, 2, 5), (0, 2, 20)];
        let inputs = Inputs {
            workload: crate::workload::Workload::RoadSssp,
            capacity: 4,
            algo: Algo::Sssp(Sssp::new(0)),
            preload: preload.clone(),
            partitions: vec![],
            stream_len: 0,
            seed: 0,
        };
        let store = AnyStore::open(
            &BackendKind::IaHash,
            4,
            StoreConfig {
                index_threshold: DEFAULT_INDEX_THRESHOLD,
                auto_create_vertices: true,
            },
        )
        .unwrap();
        let engine = Engine::from_store(store, vec![inputs.algo.dyn_algorithm()], engine_config());
        engine.load_edges(&preload);
        let mut expected = Multiset::of(&preload);
        assert_eq!(oracle_mismatches(&inputs, &engine, &expected), 0);
        // Claim an update applied that the engine never saw: vertex 2's
        // distance (10 via 1) disagrees with the oracle's (7 via 3).
        expected.apply(&Update::InsEdge(Edge::new(0, 3, 1)));
        expected.apply(&Update::InsEdge(Edge::new(3, 2, 6)));
        assert!(oracle_mismatches(&inputs, &engine, &expected) >= 2);
    }
}
