//! Bulk load: `Engine::load_edges` builds the Indexed Adjacency Lists
//! through the store's O(E) counting-sort ingest. The layout must not
//! depend on the worker count, must equal what a sequential
//! `insert_edge` loop builds, and the initial computation over it must
//! match the reference fixpoint.

use std::sync::Arc;

use risgraph::algorithms::reference;
use risgraph::prelude::*;
use risgraph::storage::{EdgeIndex, EdgeSlot, HashIndex, StoreConfig};
use risgraph::workloads::rmat::RmatConfig;

/// Every vertex's out- and in-slot arrays (tombstones and counts
/// included) plus index presence: the layout two equal stores share.
type Layout = Vec<(Vec<EdgeSlot>, Vec<EdgeSlot>, bool, bool)>;

fn layout<I: EdgeIndex>(store: &GraphStore<I>) -> Layout {
    (0..store.capacity() as u64)
        .map(|v| {
            let (out, inn) = (store.out(v), store.inn(v));
            (
                out.slots().to_vec(),
                inn.slots().to_vec(),
                out.has_index(),
                inn.has_index(),
            )
        })
        .collect()
}

fn engine<A: Monotonic<Value = u64>>(alg: A, capacity: usize, threads: usize) -> Engine {
    Engine::new(
        vec![Arc::new(alg) as DynAlgorithm],
        capacity,
        EngineConfig {
            threads,
            // Small enough that plenty of lists build an index.
            index_threshold: 8,
            ..EngineConfig::default()
        },
    )
}

/// Load `edges` at 1, 2 and 4 threads: identical slot arrays in both
/// directions, and values equal to the reference fixpoint. Parents are
/// not compared — the parallel initial push breaks ties
/// nondeterministically.
fn check_thread_independence<A: Monotonic<Value = u64> + Copy>(alg: A, edges: &[(u64, u64, u64)]) {
    let n = 1usize << 10;
    let want_values = reference::compute(&alg, n, edges);
    let mut layouts = Vec::new();
    for threads in [1, 2, 4] {
        let e = engine(alg, n, threads);
        e.load_edges(edges);
        assert_eq!(e.values_snapshot(0, n), want_values, "{threads} threads");
        assert_eq!(e.num_edges(), edges.len() as u64);
        layouts.push(e.with_store(layout));
    }
    assert!(layouts[0] == layouts[1], "1 vs 2 threads: layouts differ");
    assert!(layouts[0] == layouts[2], "1 vs 4 threads: layouts differ");
}

fn rmat(scale: u32, max_weight: u64) -> Vec<(u64, u64, u64)> {
    RmatConfig {
        scale,
        edge_factor: 16.0,
        max_weight,
        seed: 7,
        ..RmatConfig::default()
    }
    .generate()
}

#[test]
fn load_layout_is_independent_of_thread_count_bfs() {
    check_thread_independence(Bfs::new(0), &rmat(10, 0));
}

#[test]
fn load_layout_is_independent_of_thread_count_sssp() {
    // Few weights, so duplicates of the same (src, dst, weight) abound.
    check_thread_independence(Sssp::new(0), &rmat(10, 3));
}

/// The gated preload (2^16 R-MAT, 2^20 edges) bulk-loaded through the
/// engine equals a sequential `insert_edge` loop over the same edges at
/// the default index threshold. Release only: run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn rmat16_bulk_load_equals_sequential_inserts() {
    let edges = rmat(16, 0);
    let n = 1usize << 16;
    let e: Engine = Engine::new(
        vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        n,
        EngineConfig::default(),
    );
    e.load_edges(&edges);
    let seq: GraphStore<HashIndex> = GraphStore::with_config(n, StoreConfig::default());
    for &(s, d, w) in &edges {
        seq.insert_edge(Edge::new(s, d, w)).unwrap();
    }
    e.with_store(|bulk| {
        assert_eq!(bulk.num_edges(), seq.num_edges());
        assert_eq!(bulk.num_vertices(), seq.num_vertices());
        assert_eq!(bulk.vertex_upper_bound(), seq.vertex_upper_bound());
        assert!(layout(bulk) == layout(&seq), "bulk layout differs");
        assert_eq!(bulk.stats(), seq.stats());
    });
    assert_eq!(
        e.values_snapshot(0, n),
        reference::compute(&Bfs::new(0), n, &edges)
    );
}
