//! Crash recovery through the epoch-merged WAL (§5), multi-shard path
//! included.
//!
//! [`Server::crash`] simulates power loss: the coordinator exits
//! without flushing the buffered log tail, so the on-disk WAL ends in a
//! clean prefix of merged epoch records, possibly followed by a torn
//! one. Recovery must restore exactly the state those replayable
//! records describe. The oracle is computed *independently* of the
//! engine's replay machinery: sessions use disjoint vertex regions, so
//! the live edge multiset reconstructed from the replayed records has
//! an order-independent meaning and a from-scratch recomputation over
//! it is ground truth.

use std::sync::Arc;

use risgraph::algorithms::Wcc;
use risgraph::core::wal::{replay, segment_path};
use risgraph::prelude::*;
use risgraph_testkit::{
    disjoint_session_streams, drive_sessions, oracle, remove_wal, server_config, store_fingerprint,
    temp_path, RegionStreamConfig,
};

/// Run a 4-shard WAL-logged server over disjoint-session streams, crash
/// it mid-buffer, and return `(wal_path, capacity, applied_count)`.
fn run_and_crash(tag: &str, cfg: &RegionStreamConfig) -> (std::path::PathBuf, usize, u64) {
    run_and_crash_on(tag, cfg, risgraph::storage::BackendKind::IaHash)
}

/// [`run_and_crash`] on an explicit storage backend.
fn run_and_crash_on(
    tag: &str,
    cfg: &RegionStreamConfig,
    backend: risgraph::storage::BackendKind,
) -> (std::path::PathBuf, usize, u64) {
    let path = temp_path(&format!("{tag}.wal"));
    let mut config = server_config(backend, 4);
    config.wal_path = Some(path.clone());
    // Group-commit pacing far beyond the test's runtime: everything
    // after the last buffer-sized flush stays in the writer's buffer
    // and dies with the crash.
    config.wal_sync_interval = std::time::Duration::from_secs(3600);
    // These tests assert the *un-checkpointed* prefix semantics (all
    // records in segment 0, replay length vs applied count), so pin
    // rotation and checkpointing off regardless of the
    // RISGRAPH_MAX_WAL_SEGMENT environment the CI matrix exports. The
    // checkpointed counterparts live in `checkpoint_mid_stream_crash_matrix`
    // and tests/wal_lifecycle.rs.
    config.max_wal_segment_bytes = 0;
    config.checkpoint_interval = None;
    let server = Arc::new(
        Server::start(
            vec![Arc::new(Wcc::new()) as DynAlgorithm],
            cfg.capacity(),
            config,
        )
        .unwrap(),
    );
    let streams = disjoint_session_streams(cfg);
    let traces = drive_sessions(&server, &streams);
    let applied: u64 = traces
        .iter()
        .flat_map(|t| &t.steps)
        .filter(|s| s.ok)
        .count() as u64;
    assert_eq!(
        applied,
        (cfg.sessions * cfg.steps) as u64,
        "disjoint-region updates must all succeed"
    );
    Arc::try_unwrap(server).ok().unwrap().crash();
    (path, cfg.capacity(), applied)
}

/// Recover a server from `path` and assert it matches the oracle built
/// from the log's own replayable prefix.
fn assert_recovery_matches_oracle(path: &std::path::Path, capacity: usize, ctx: &str) -> usize {
    assert_recovery_matches_oracle_on(path, capacity, ctx, risgraph::storage::BackendKind::IaHash)
}

/// [`assert_recovery_matches_oracle`] recovering onto an explicit
/// storage backend.
fn assert_recovery_matches_oracle_on(
    path: &std::path::Path,
    capacity: usize,
    ctx: &str,
    backend: risgraph::storage::BackendKind,
) -> usize {
    let batches = replay(path).unwrap();
    let replayed: Vec<Update> = batches.into_iter().flatten().collect();
    let mut live: Vec<oracle::LiveEdge> = Vec::new();
    oracle::apply_all(&mut live, &replayed);

    let mut config = server_config(backend, 4);
    config.wal_path = Some(path.to_path_buf());
    let recovered =
        Server::start(vec![Arc::new(Wcc::new()) as DynAlgorithm], capacity, config).unwrap();

    // Values: recovered incremental state == from-scratch recompute of
    // the replayed multiset.
    oracle::assert_engine_matches(recovered.engine(), 0, &Wcc::new(), capacity, &live, ctx);
    // Structure: count-annotated adjacency matches an engine bulk-built
    // from the same multiset.
    let reloaded: Engine = Engine::with_algorithm(Wcc::new(), capacity);
    reloaded.load_edges(&live);
    assert_eq!(
        store_fingerprint(recovered.engine(), capacity as u64),
        store_fingerprint(&reloaded, capacity as u64),
        "{ctx}: store contents after recovery"
    );
    recovered.shutdown();
    replayed.len()
}

#[test]
fn crash_mid_epoch_recovers_replayable_prefix() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 20,
        steps: 300,
        seed: 17,
        ..RegionStreamConfig::default()
    };
    let (path, capacity, applied) = run_and_crash("crash-recovery", &cfg);
    let replayed = assert_recovery_matches_oracle(&path, capacity, "crash recovery");
    // The log holds at most what was applied; with fsync pacing pushed
    // out, the buffered tail was genuinely lost (~8 KiB of records
    // survive only via incidental buffer-full flushes).
    assert!(replayed as u64 <= applied);
    assert!(
        replayed > 0,
        "enough volume must have overflowed the writer's buffer to test replay"
    );
    remove_wal(&path);
}

/// The same power-loss contract with `--store ooc-mmap` on both sides
/// of the crash: a server whose adjacency lives in an mmap'ed block
/// file must recover from the WAL's replayable prefix exactly like the
/// in-memory backends (the block file itself is rebuilt by replay; its
/// durability is the WAL's, not the mapping's).
#[test]
fn crash_mid_epoch_recovers_on_ooc_mmap() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 20,
        steps: 300,
        seed: 19,
        ..RegionStreamConfig::default()
    };
    let (path, capacity, applied) = run_and_crash_on(
        "crash-recovery-mmap",
        &cfg,
        risgraph::storage::BackendKind::OocMmap { path: None },
    );
    let replayed = assert_recovery_matches_oracle_on(
        &path,
        capacity,
        "crash recovery (ooc-mmap)",
        risgraph::storage::BackendKind::OocMmap { path: None },
    );
    assert!(replayed as u64 <= applied);
    assert!(
        replayed > 0,
        "enough volume must have overflowed the writer's buffer to test replay"
    );
    remove_wal(&path);
}

/// The PR 2 "WAL linearization caveat", now closed: same-edge
/// count-races across sessions within one epoch must replay
/// **byte-exactly**. Four sessions (one per shard) burst-insert then
/// burst-delete the *same* edges, so an epoch's log routinely holds
/// cross-session ins/del sequences of one edge whose per-session
/// concatenation is NOT the execution order — replaying that
/// concatenation can hit count 0 early, skip a delete, and recover a
/// different multiplicity than the live store had. With the global
/// application-order stamp (drawn inside the store's per-edge lock and
/// used to sort the merged record), recovery must reproduce the live
/// count-annotated store exactly.
#[test]
fn same_edge_cross_session_races_replay_byte_exactly() {
    for backend in [
        risgraph::storage::BackendKind::IaHash,
        risgraph::storage::BackendKind::OocMmap { path: None },
    ] {
        let label = format!("{backend:?}");
        let path = temp_path("same-edge.wal");
        remove_wal(&path);
        let mut config = server_config(backend, 4);
        config.wal_path = Some(path.clone());
        let n = 8usize;
        let server = Arc::new(
            Server::start(
                vec![Arc::new(Wcc::new()) as DynAlgorithm],
                n,
                config.clone(),
            )
            .unwrap(),
        );
        // Per-epoch the merged record concatenates session groups in
        // session order, so the damning shape is: a *low* session id
        // deleting an edge while a *high* session id inserts it. When
        // the insert executed first but the log lists the delete first,
        // an unstamped replay hits count 0, skips the delete, and
        // resurrects a copy the live store didn't have. Sessions 0–1
        // are pure deleters of the edges sessions 2–3 keep inserting.
        let edges = [Edge::new(1, 2, 0), Edge::new(2, 3, 0)];
        let streams: Vec<Vec<Update>> = (0..4u64)
            .map(|s| {
                (0..240)
                    .map(|round| {
                        let e = edges[(round % 2) as usize];
                        if s < 2 {
                            Update::DelEdge(e)
                        } else {
                            Update::InsEdge(e)
                        }
                    })
                    .collect()
            })
            .collect();
        // Outcomes are allowed to include errors (a delete can find the
        // edge drained by another session) — errored updates are not
        // logged, so they don't participate in the replay contract.
        drive_sessions(&server, &streams);
        let live_fp = store_fingerprint(server.engine(), n as u64);
        let live_vals = server.engine().values_snapshot(0, n);
        // Graceful shutdown: the full log reaches disk.
        Arc::try_unwrap(server).ok().unwrap().shutdown();

        let recovered =
            Server::start(vec![Arc::new(Wcc::new()) as DynAlgorithm], n, config).unwrap();
        assert_eq!(
            store_fingerprint(recovered.engine(), n as u64),
            live_fp,
            "{label}: same-edge cross-session races must replay byte-exactly"
        );
        assert_eq!(
            recovered.engine().values_snapshot(0, n),
            live_vals,
            "{label}: recovered values"
        );
        recovered.shutdown();
        remove_wal(&path);
    }
}

/// Tearing the log deep inside its valid prefix (a crash during the
/// physical write itself) must truncate to the last clean epoch
/// boundary before the tear — and recovery must match the oracle of
/// that shorter prefix.
#[test]
fn torn_record_after_crash_truncates_to_epoch_boundary() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 250,
        seed: 23,
        ..RegionStreamConfig::default()
    };
    let (path, capacity, _) = run_and_crash("crash-torn", &cfg);
    let before = replay(&path).unwrap().len();
    assert!(before > 1, "need at least two epoch records to tear one");
    // Cut the segment mid-prefix: whatever record straddles the cut is
    // torn, and everything after it is gone. (The path itself is the
    // manifest; with rotation off all records live in segment 0.)
    let seg = segment_path(&path, 0);
    let data = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &data[..data.len() * 3 / 5]).unwrap();
    let after = replay(&path).unwrap().len();
    assert!(
        after < before,
        "cutting 40% of the log must drop records ({after} vs {before})"
    );
    assert_recovery_matches_oracle(&path, capacity, "torn tail");
    remove_wal(&path);
}

/// The headline data-loss regression: `replay` used to stop at a torn
/// tail without physically truncating the file while the writer
/// reopened in append mode, so records written *after* a
/// crash-recovery landed behind the garbage and were silently lost on
/// the next restart. Recovery now `set_len()`s the torn segment before
/// reopening, so the sequence crash-with-torn-tail → recover → write →
/// recover again must keep the second write — on every backend.
#[test]
fn appends_after_torn_tail_recovery_survive_second_recovery_on_every_backend() {
    use risgraph::storage::BackendKind;
    let backends = [
        BackendKind::IaHash,
        BackendKind::IaBtree,
        BackendKind::IaArt,
        BackendKind::IoHash,
        BackendKind::IoBtree,
        BackendKind::IoArt,
        BackendKind::OocMmap { path: None },
    ];
    for backend in backends {
        let label = format!("{backend:?}");
        let path = temp_path("torn-append.wal");
        let n = 64usize;
        let mut config = server_config(backend.clone(), 1);
        config.wal_path = Some(path.clone());

        // Build a log, then tear the final record mid-write.
        {
            let server = Server::start(
                vec![Arc::new(Wcc::new()) as DynAlgorithm],
                n,
                config.clone(),
            )
            .unwrap();
            let s = server.session();
            for i in 0..16u64 {
                assert!(
                    s.ins_edge(Edge::new(i, i + 1, 1)).outcome.is_ok(),
                    "{label}"
                );
            }
            drop(s);
            server.shutdown();
        }
        let seg = segment_path(&path, 0);
        let data = std::fs::read(&seg).unwrap();
        assert!(data.len() > 16, "{label}: log too small to tear");
        std::fs::write(&seg, &data[..data.len() - 5]).unwrap();
        let clean_prefix = replay(&path).unwrap().len();

        // First recovery over the torn log, then fresh appends.
        {
            let server = Server::start(
                vec![Arc::new(Wcc::new()) as DynAlgorithm],
                n,
                config.clone(),
            )
            .unwrap();
            let s = server.session();
            for i in 30..40u64 {
                assert!(
                    s.ins_edge(Edge::new(i, i + 1, 7)).outcome.is_ok(),
                    "{label}"
                );
            }
            drop(s);
            // Graceful: the appended records reach disk.
            server.shutdown();
        }

        // Second recovery: the post-recovery appends must replay. With
        // the old append-behind-garbage bug, replay stopped at the torn
        // record and everything after it was lost.
        let replayed: Vec<Update> = replay(&path).unwrap().into_iter().flatten().collect();
        assert!(
            replayed.len() > clean_prefix,
            "{label}: nothing appended after the torn prefix replays"
        );
        for i in 30..40u64 {
            assert!(
                replayed.contains(&Update::InsEdge(Edge::new(i, i + 1, 7))),
                "{label}: record appended after crash-recovery was lost by the next recovery"
            );
        }
        assert_recovery_matches_oracle_on(&path, n, &label, backend);
        remove_wal(&path);
    }
}

/// Checkpoint-mid-stream crash matrix (tentpole coverage): crash the
/// server before any checkpoint, during checkpointed churn, and right
/// after a checkpoint — on IA_Hash and ooc-mmap, at shards 1 and 4.
/// The recovered server must fingerprint-match the no-crash oracle of
/// the log's replayable content, and once a checkpoint exists replay
/// must read only post-checkpoint segments — witnessed by
/// `ServerStats::wal_replayed_records`.
#[test]
fn checkpoint_mid_stream_crash_matrix() {
    use risgraph::core::wal::{read_manifest, read_snapshot};
    use risgraph::storage::BackendKind;

    #[derive(Clone, Copy, Debug)]
    enum Crash {
        /// Checkpointing armed (rotation on) but never triggered.
        Before,
        /// Pressure checkpoints fire repeatedly mid-churn; the crash
        /// lands between two of them with a buffered tail in flight.
        During,
        /// A time-triggered checkpoint covers the whole log just
        /// before the crash: recovery must replay zero records.
        After,
    }

    for backend in [BackendKind::IaHash, BackendKind::OocMmap { path: None }] {
        for shards in [1usize, 4] {
            for scenario in [Crash::Before, Crash::During, Crash::After] {
                let ctx = format!("{backend:?}/shards={shards}/{scenario:?}");
                let cfg = RegionStreamConfig {
                    sessions: 4,
                    region: 12,
                    steps: if matches!(scenario, Crash::During) {
                        600
                    } else {
                        150
                    },
                    seed: 29,
                    ..RegionStreamConfig::default()
                };
                let path = temp_path("ckpt-matrix.wal");
                let mut config = server_config(backend.clone(), shards);
                config.wal_path = Some(path.clone());
                // Tail-loss realism: group commit paced beyond the
                // test, so only rotation/checkpoint syncs persist.
                config.wal_sync_interval = std::time::Duration::from_secs(3600);
                config.max_wal_segment_bytes = match scenario {
                    Crash::Before => 8 << 20, // armed, never reached
                    _ => 2048,                // rotate constantly
                };
                if matches!(scenario, Crash::After) {
                    config.checkpoint_interval = Some(std::time::Duration::from_millis(50));
                }

                let server = Arc::new(
                    Server::start(
                        vec![Arc::new(Wcc::new()) as DynAlgorithm],
                        cfg.capacity(),
                        config.clone(),
                    )
                    .unwrap(),
                );
                drive_sessions(&server, &disjoint_session_streams(&cfg));
                if matches!(scenario, Crash::After) {
                    // Let the cadence lapse, then submit one more
                    // update: its epoch end takes a checkpoint covering
                    // the entire log, and the crash follows with
                    // nothing appended after it.
                    std::thread::sleep(std::time::Duration::from_millis(120));
                    let s = server.session();
                    assert!(s.ins_edge(Edge::new(0, 1, 1)).outcome.is_ok());
                    drop(s);
                    while server
                        .stats()
                        .wal_checkpoints
                        .load(std::sync::atomic::Ordering::Relaxed)
                        == 0
                    {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }
                Arc::try_unwrap(server).ok().unwrap().crash();

                // The no-crash oracle: everything the log can replay
                // (snapshot structure + retained records), recomputed
                // from scratch.
                let pre_batches = replay(&path).unwrap();
                let snapshot = read_snapshot(&path).unwrap();
                let snapshot_batches =
                    u64::from(snapshot.as_ref().is_some_and(|s| !s.updates.is_empty()));
                let expected_records = pre_batches.len() as u64 - snapshot_batches;
                match scenario {
                    Crash::Before => {
                        assert!(snapshot.is_none(), "{ctx}: no checkpoint may have fired");
                    }
                    Crash::During | Crash::After => {
                        assert!(snapshot.is_some(), "{ctx}: checkpoints must have fired");
                        let manifest = read_manifest(&path).unwrap().unwrap();
                        assert!(
                            manifest.first_seg > 0,
                            "{ctx}: pre-checkpoint segments must be truncated"
                        );
                    }
                }
                if matches!(scenario, Crash::After) {
                    assert_eq!(
                        expected_records, 0,
                        "{ctx}: the final checkpoint must cover the whole log"
                    );
                }

                let replayed_flat: Vec<Update> = pre_batches.into_iter().flatten().collect();
                let mut live: Vec<oracle::LiveEdge> = Vec::new();
                oracle::apply_all(&mut live, &replayed_flat);
                let recovered = Server::start(
                    vec![Arc::new(Wcc::new()) as DynAlgorithm],
                    cfg.capacity(),
                    config,
                )
                .unwrap();
                assert_eq!(
                    recovered
                        .stats()
                        .wal_replayed_records
                        .load(std::sync::atomic::Ordering::Relaxed),
                    expected_records,
                    "{ctx}: replay must read exactly the post-checkpoint records"
                );
                oracle::assert_engine_matches(
                    recovered.engine(),
                    0,
                    &Wcc::new(),
                    cfg.capacity(),
                    &live,
                    &ctx,
                );
                let reloaded: Engine = Engine::with_algorithm(Wcc::new(), cfg.capacity());
                reloaded.load_edges(&live);
                assert_eq!(
                    store_fingerprint(recovered.engine(), cfg.capacity() as u64),
                    store_fingerprint(&reloaded, cfg.capacity() as u64),
                    "{ctx}: recovered store contents"
                );
                recovered.shutdown();
                remove_wal(&path);
            }
        }
    }
}
