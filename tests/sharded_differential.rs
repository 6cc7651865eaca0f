//! The cross-shard differential suite: the sharded safe phase
//! (`ServerConfig::shards = N`) must be observably identical to the
//! serial coordinator (`shards = 1`) on the same update streams — same
//! reply outcomes and safety classes, same point-in-time query answers
//! at every returned version, same per-version modification sets, same
//! final values and store contents. This is the §4 commutativity claim
//! ("safe updates change no results, so they may execute in any
//! interleaving") as an executable property, checked on IA_Hash and on
//! the concurrent mmap-backed OOC store — which is also asserted
//! `≡ IA_Hash` across backends, at shards 1 and 4.
//!
//! Determinism protocol: each emulated session owns a disjoint vertex
//! region ([`risgraph_testkit::disjoint_session_streams`]), so its
//! classifications and effects cannot depend on how the server
//! interleaves sessions; servers run one engine worker thread so
//! intra-update propagation picks deterministic dependency-tree
//! parents. See `crates/testkit/src/differential.rs` for what exactly
//! is compared.
//!
//! The `*_big` cases are `#[ignore]`d and run in the dedicated slow CI
//! job (`cargo test --release -- --ignored`).

use std::sync::Arc;

use proptest::prelude::*;
use risgraph::algorithms::Wcc;
use risgraph::prelude::*;
use risgraph::storage::BackendKind;
use risgraph_testkit::{
    assert_servers_equivalent, disjoint_session_streams, drive_sessions, drive_sessions_pipelined,
    random_stream, server_config, unsafe_chain_streams_with_build, RegionStreamConfig,
    UnsafeChainConfig,
};

fn start(backend: BackendKind, shards: usize, capacity: usize) -> Arc<Server> {
    // Inherits `unsafe_workers` from the environment (the
    // RISGRAPH_UNSAFE_WORKERS CI legs re-run the whole suite with a
    // parallel unsafe phase); `start_workers` pins it explicitly.
    Arc::new(
        Server::start(
            vec![Arc::new(Wcc::new()) as DynAlgorithm],
            capacity,
            server_config(backend, shards),
        )
        .unwrap(),
    )
}

fn start_workers(
    backend: BackendKind,
    shards: usize,
    capacity: usize,
    unsafe_workers: usize,
) -> Arc<Server> {
    let mut config = server_config(backend, shards);
    config.unsafe_workers = unsafe_workers;
    Arc::new(Server::start(vec![Arc::new(Wcc::new()) as DynAlgorithm], capacity, config).unwrap())
}

/// Run the same per-session streams through `shards = 1` and
/// `shards = shards_b` servers on `backend` and assert equivalence.
fn differential(
    label: &str,
    backend_a: BackendKind,
    backend_b: BackendKind,
    shards_b: usize,
    streams: &[Vec<Update>],
    capacity: usize,
) {
    differential_pair(
        label,
        (backend_a, 1),
        (backend_b, shards_b),
        streams,
        capacity,
    )
}

/// Fully general pair: any backend and shard count on either side.
fn differential_pair(
    label: &str,
    (backend_a, shards_a): (BackendKind, usize),
    (backend_b, shards_b): (BackendKind, usize),
    streams: &[Vec<Update>],
    capacity: usize,
) {
    let serial = start(backend_a, shards_a, capacity);
    let sharded = start(backend_b, shards_b, capacity);
    let traces_serial = drive_sessions(&serial, streams);
    let traces_sharded = drive_sessions(&sharded, streams);
    assert_servers_equivalent(
        label,
        &serial,
        &traces_serial,
        &sharded,
        &traces_sharded,
        streams,
        Wcc::new(),
        capacity,
    );
    Arc::try_unwrap(serial).ok().unwrap().shutdown();
    Arc::try_unwrap(sharded).ok().unwrap().shutdown();
}

#[test]
fn sharded_equals_serial_on_ia_hash() {
    for seed in [1u64, 2, 3] {
        let cfg = RegionStreamConfig {
            sessions: 4,
            region: 20,
            steps: 120,
            seed,
            ..RegionStreamConfig::default()
        };
        differential(
            &format!("IA_Hash seed {seed}"),
            BackendKind::IaHash,
            BackendKind::IaHash,
            4,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
}

#[test]
fn sharded_equals_serial_on_ooc() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 80,
        seed: 9,
        ..RegionStreamConfig::default()
    };
    let (ooc_a, path_a) = risgraph_testkit::ooc_mmap_backend("shard-diff-serial");
    let (ooc_b, path_b) = risgraph_testkit::ooc_mmap_backend("shard-diff-sharded");
    differential(
        "OOC_MMAP",
        ooc_a,
        ooc_b,
        4,
        &disjoint_session_streams(&cfg),
        cfg.capacity(),
    );
    risgraph_testkit::remove_ooc_files(&path_a);
    risgraph_testkit::remove_ooc_files(&path_b);
}

/// The cross-backend check for the mmap OOC store: `ooc-mmap` must be
/// observably identical to IA_Hash at `shards = 1` and `shards = 4` —
/// same outcomes and safety classes, same point-in-time values against
/// the oracle, same modification sets, same final values and
/// count-annotated store contents.
#[test]
fn ooc_mmap_equals_ia_hash() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 80,
        seed: 31,
        ..RegionStreamConfig::default()
    };
    let streams = disjoint_session_streams(&cfg);
    let mut scratch = Vec::new();

    // IA_Hash serial vs ooc-mmap serial.
    let (mmap_s1, p) = risgraph_testkit::ooc_mmap_backend("mmap-diff-serial");
    scratch.push(p);
    differential_pair(
        "IA_Hash s1 vs OOC_MMAP s1",
        (BackendKind::IaHash, 1),
        (mmap_s1, 1),
        &streams,
        cfg.capacity(),
    );

    // IA_Hash serial vs ooc-mmap sharded: the striped locks must admit
    // real concurrency without changing anything observable.
    let (mmap_s4, p) = risgraph_testkit::ooc_mmap_backend("mmap-diff-sharded");
    scratch.push(p);
    differential_pair(
        "IA_Hash s1 vs OOC_MMAP s4",
        (BackendKind::IaHash, 1),
        (mmap_s4, 4),
        &streams,
        cfg.capacity(),
    );

    for p in scratch {
        risgraph_testkit::remove_ooc_files(&p);
    }
}

/// The parallel unsafe phase differential (§7): `unsafe_workers = 4`
/// must be observably identical to `unsafe_workers = 1` on an
/// all-unsafe workload — per-session chain churn under WCC, where
/// every update splits or merges its session's component. Sessions
/// pipeline their streams ([`drive_sessions_pipelined`]) so the unsafe
/// queue genuinely fills with concurrently pending updates, and the
/// `unsafe_parallel_groups` counter proves the parallel path (not its
/// serial fallback) did the work being compared. Checked at shards 1
/// and 4 on IA_Hash and on the mmap OOC store.
#[test]
fn parallel_unsafe_equals_serial() {
    let cfg = UnsafeChainConfig {
        sessions: 4,
        chain: 12,
        base: 1,
        pairs: 40,
    };
    let streams = unsafe_chain_streams_with_build(&cfg);
    let n = cfg.capacity();

    let unsafe_differential = |label: &str, serial: Arc<Server>, parallel: Arc<Server>| {
        let traces_serial = drive_sessions_pipelined(&serial, &streams);
        let traces_parallel = drive_sessions_pipelined(&parallel, &streams);
        assert_servers_equivalent(
            label,
            &serial,
            &traces_serial,
            &parallel,
            &traces_parallel,
            &streams,
            Wcc::new(),
            n,
        );
        let groups = parallel
            .stats()
            .unsafe_parallel_groups
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(groups > 0, "{label}: parallel unsafe phase never engaged");
        assert_eq!(
            serial
                .stats()
                .unsafe_parallel_groups
                .load(std::sync::atomic::Ordering::Relaxed),
            0,
            "{label}: unsafe_workers = 1 must never group"
        );
        Arc::try_unwrap(serial).ok().unwrap().shutdown();
        Arc::try_unwrap(parallel).ok().unwrap().shutdown();
    };

    for shards in [1usize, 4] {
        unsafe_differential(
            &format!("IA_Hash s{shards} w1 vs w4"),
            start_workers(BackendKind::IaHash, shards, n, 1),
            start_workers(BackendKind::IaHash, shards, n, 4),
        );

        let (mmap_a, pa) =
            risgraph_testkit::ooc_mmap_backend(&format!("unsafe-diff-s{shards}-serial"));
        let (mmap_b, pb) =
            risgraph_testkit::ooc_mmap_backend(&format!("unsafe-diff-s{shards}-parallel"));
        unsafe_differential(
            &format!("OOC_MMAP s{shards} w1 vs w4"),
            start_workers(mmap_a, shards, n, 1),
            start_workers(mmap_b, shards, n, 4),
        );
        risgraph_testkit::remove_ooc_files(&pa);
        risgraph_testkit::remove_ooc_files(&pb);
    }
}

/// A single synchronous session serializes everything, so the two
/// servers must agree *exactly* — version numbers included.
#[test]
fn single_session_versions_are_identical() {
    let n = 24usize;
    let stream = vec![random_stream(n as u64, 200, 5, 4)];
    let serial = start(BackendKind::IaHash, 1, n);
    let sharded = start(BackendKind::IaHash, 4, n);
    let ta = drive_sessions(&serial, &stream);
    let tb = drive_sessions(&sharded, &stream);
    assert_eq!(ta[0].steps, tb[0].steps, "version-exact trace equality");
    assert_servers_equivalent(
        "single session",
        &serial,
        &ta,
        &sharded,
        &tb,
        &stream,
        Wcc::new(),
        n,
    );
    Arc::try_unwrap(serial).ok().unwrap().shutdown();
    Arc::try_unwrap(sharded).ok().unwrap().shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized differential: arbitrary seeds, session counts and
    /// stream lengths, shards=1 vs shards=4 on IA_Hash.
    #[test]
    fn sharded_differential_prop(
        seed in 0u64..1000,
        sessions in 2usize..5,
        steps in 30usize..90,
    ) {
        let cfg = RegionStreamConfig {
            sessions,
            region: 16,
            steps,
            seed,
            ..RegionStreamConfig::default()
        };
        differential(
            &format!("prop seed {seed} sessions {sessions} steps {steps}"),
            BackendKind::IaHash,
            BackendKind::IaHash,
            4,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
}

#[test]
#[ignore = "slow: big differential, run via `cargo test --release -- --ignored`"]
fn sharded_equals_serial_big() {
    for (label, shards) in [("2 shards", 2), ("4 shards", 4), ("8 shards", 8)] {
        let cfg = RegionStreamConfig {
            sessions: 8,
            region: 32,
            steps: 500,
            seed: 42,
            ..RegionStreamConfig::default()
        };
        differential(
            &format!("big IA_Hash {label}"),
            BackendKind::IaHash,
            BackendKind::IaHash,
            shards,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
    let (mmap_a, path_a) = risgraph_testkit::ooc_mmap_backend("shard-diff-big-mmap-serial");
    let (mmap_b, path_b) = risgraph_testkit::ooc_mmap_backend("shard-diff-big-mmap-sharded");
    let cfg = RegionStreamConfig {
        sessions: 8,
        region: 32,
        steps: 500,
        seed: 44,
        ..RegionStreamConfig::default()
    };
    differential_pair(
        "big OOC_MMAP",
        (mmap_a, 1),
        (mmap_b, 8),
        &disjoint_session_streams(&cfg),
        cfg.capacity(),
    );
    risgraph_testkit::remove_ooc_files(&path_a);
    risgraph_testkit::remove_ooc_files(&path_b);
}
