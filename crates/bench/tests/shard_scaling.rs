//! Shard-scaling smoke test over the same driver the `shard_scaling`
//! harness binary uses. Ignored by default (it measures wall-clock
//! throughput); the slow CI job runs it with
//! `cargo test --release -- --ignored`, and again with
//! `RISGRAPH_STORE=ooc-mmap` so the same check covers the out-of-core
//! store (`ServerConfig::default` reads the variable).

use std::sync::Arc;

use risgraph_algorithms::Bfs;
use risgraph_bench::drivers::measure_shard_scaling;
use risgraph_core::engine::DynAlgorithm;
use risgraph_core::server::ServerConfig;
use risgraph_testkit::safe_churn;
use risgraph_workloads::rmat::RmatConfig;

/// Safe-phase throughput from 1 → 4 shards on an RMAT stream. On a
/// multi-core box the sharded safe phase must beat the serial
/// coordinator; on a single hardware thread true parallel speedup is
/// impossible, so the assertion degrades to "sharding must not
/// collapse throughput".
#[test]
#[ignore = "wall-clock measurement; run via `cargo test --release -- --ignored`"]
fn safe_phase_throughput_improves_with_shards() {
    let cfg = RmatConfig {
        scale: 11,
        edge_factor: 8.0,
        ..RmatConfig::default()
    };
    let preload = cfg.generate();
    // One stream per session: pairs must stay within a session to keep
    // the whole workload on the safe path (see testkit::safe_churn).
    let session_streams: Vec<Vec<_>> = (0..16)
        .map(|s| safe_churn(&preload, 1_000, 3 + s as u64))
        .collect();

    let mut base = ServerConfig {
        enable_history: false,
        ..ServerConfig::default()
    };
    base.engine.threads = 1; // isolate shard scaling from intra-update parallelism
    let results = measure_shard_scaling(
        || vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        &preload,
        &session_streams,
        cfg.num_vertices(),
        &base,
        &[1, 4],
    );
    let (serial, sharded) = (results[0].1.throughput, results[1].1.throughput);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "safe-phase throughput: 1 shard {serial:.0}/s, 4 shards {sharded:.0}/s \
         ({cores} cores)"
    );
    if cores >= 8 {
        // Cores comfortably exceed the 4 shards + coordinator: demand a
        // real speedup.
        assert!(
            sharded > serial * 1.2,
            "4 shards ({sharded:.0}/s) should beat the serial coordinator \
             ({serial:.0}/s) by ≥1.2x on {cores} cores"
        );
    } else {
        // Borderline boxes (shared 4-vCPU CI runners included): the
        // workload oversubscribes the cores, so only guard against
        // collapse.
        assert!(
            sharded > serial * 0.4,
            "sharding collapsed throughput on a {cores}-core box: \
             {sharded:.0}/s vs {serial:.0}/s"
        );
    }
}
