//! End-to-end observability: the metrics registry, the epoch-pipeline
//! tracer, and the `METRICS` wire opcode observed from a real client
//! against a real TCP server under load.
//!
//! The acceptance triangle for the observability layer:
//!  1. a loaded server reports per-phase epoch histograms (safe
//!     execute, barrier wait, WAL append, feed publish, …) over
//!     `METRICS`;
//!  2. with the slow-epoch threshold at zero every traced epoch is
//!     flagged, and a flagged trace carries its full phase breakdown;
//!  3. a protocol-v1 client that only speaks `STATS` still receives
//!     the fixed-field `StatsReport`, byte-for-byte — the registry is
//!     additive, never a migration.

use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph::algorithms::Wcc;
use risgraph::common::metrics::{MetricValue, Phase};
use risgraph::common::protocol::{read_frame, write_frame, Request, Response, MAX_RESPONSE_FRAME};
use risgraph::prelude::*;
use risgraph_net::{FollowerConfig, NetClient, NetConfig, NetServer, ReplicaServer};
use risgraph_testkit::{
    disjoint_session_streams, drive_net_sessions, server_config, RegionStreamConfig,
};

fn wcc_algorithms() -> Vec<DynAlgorithm> {
    vec![Arc::new(Wcc::new()) as DynAlgorithm]
}

/// A loaded leader with every epoch traced (threshold zero).
fn loaded_server() -> (NetServer, usize) {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 60,
        seed: 7_082_021,
        ..RegionStreamConfig::default()
    };
    let streams = disjoint_session_streams(&cfg);
    let mut server_cfg = server_config(BackendKind::IaHash, 2);
    server_cfg.trace_slow_epoch = Duration::ZERO;
    server_cfg.max_followers = 2;
    let net = NetServer::start(
        wcc_algorithms(),
        cfg.capacity(),
        server_cfg,
        NetConfig::default(),
    )
    .expect("leader");
    drive_net_sessions(net.local_addr(), &streams);
    (net, cfg.capacity())
}

/// Find a histogram by name in a snapshot.
fn histogram_count(snapshot: &[(String, MetricValue)], name: &str) -> Option<u64> {
    snapshot.iter().find_map(|(n, v)| match v {
        MetricValue::Histogram(h) if n == name => Some(h.count),
        _ => None,
    })
}

fn counter(snapshot: &[(String, MetricValue)], name: &str) -> Option<u64> {
    snapshot.iter().find_map(|(n, v)| match v {
        MetricValue::Counter(c) if n == name => Some(*c),
        _ => None,
    })
}

#[test]
fn metrics_opcode_reports_per_phase_epoch_histograms() {
    let (net, _) = loaded_server();
    let client = NetClient::connect(net.local_addr()).expect("connect");
    let snap = client.metrics().expect("METRICS");

    // The epoch pipeline's mandatory phases ran and were histogrammed.
    // (Rotation/checkpoint/unsafe phases are workload-dependent, so
    // only their registration — not a nonzero count — is guaranteed.)
    for phase in [Phase::SafeExecute, Phase::Finalize] {
        let name = format!("epoch.phase.{}_ns", phase.name());
        assert!(
            histogram_count(&snap, &name).expect(&name) > 0,
            "{name} should have samples after a load"
        );
    }
    let traced = counter(&snap, "epoch.traced").expect("epoch.traced");
    assert!(traced > 0, "no epochs traced");
    assert_eq!(
        counter(&snap, "epoch.flagged"),
        Some(traced),
        "threshold zero must flag every traced epoch"
    );
    assert!(
        histogram_count(&snap, "epoch.total_ns").expect("epoch.total_ns") >= traced,
        "every traced epoch records its total span"
    );

    // Core counters moved, and the reactor's per-worker gauges are
    // registered (the drive's connections are closed by now, so only
    // presence — not a level — is stable).
    assert!(counter(&snap, "core.epochs").expect("core.epochs") > 0);
    assert!(counter(&snap, "core.safe_executed").expect("core.safe_executed") > 0);
    assert!(
        snap.iter()
            .any(|(n, v)| n == "net.worker.0.connections" && matches!(v, MetricValue::Gauge(_))),
        "reactor worker gauges missing from the registry"
    );

    net.shutdown();
}

fn gauge(snapshot: &[(String, MetricValue)], name: &str) -> Option<u64> {
    snapshot.iter().find_map(|(n, v)| match v {
        MetricValue::Gauge(g) if n == name => Some(*g),
        _ => None,
    })
}

/// `Server::load_edges` splits its cost into the structure build and
/// the initial computation; both parts are measured and together fit
/// inside the wall time the caller sees.
#[test]
fn load_edges_reports_ingest_and_compute_split() {
    let server = Server::start(
        wcc_algorithms(),
        1 << 10,
        server_config(BackendKind::IaHash, 1),
    )
    .expect("server");
    let edges: Vec<(u64, u64, u64)> = (0..20_000u64)
        .map(|i| (i % 1000, (i * 7 + 1) % 1000, 0))
        .collect();
    let t = Instant::now();
    server.load_edges(&edges);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let snap = server.metrics().snapshot();
    let ingest = gauge(&snap, "core.load_ingest_ns").expect("core.load_ingest_ns");
    let compute = gauge(&snap, "core.load_compute_ns").expect("core.load_compute_ns");
    assert!(ingest > 0, "structure build not measured");
    assert!(compute > 0, "initial computation not measured");
    assert!(
        ingest + compute <= wall_ns,
        "split {ingest} + {compute} ns exceeds the {wall_ns} ns wall time"
    );
    server.shutdown();
}

#[test]
fn zero_threshold_flags_epochs_with_full_breakdown() {
    let (net, _) = loaded_server();
    let flagged = net.server().tracer().flagged(64);
    assert!(
        !flagged.is_empty(),
        "threshold zero under load must flag at least one epoch"
    );
    for trace in &flagged {
        assert!(trace.flagged);
        assert_eq!(
            trace.total_ns,
            trace.phase_ns.iter().sum::<u64>(),
            "epoch {}: breakdown must reassemble into the total",
            trace.epoch
        );
        assert!(
            trace.phase_ns[Phase::SafeExecute as usize] > 0
                || trace.phase_ns[Phase::UnsafeExecute as usize] > 0,
            "epoch {}: a traced epoch executed work in some phase",
            trace.epoch
        );
    }
    // Flagged epochs are a subset of the recent ring's view of history.
    let recent = net.server().tracer().recent(64);
    assert!(!recent.is_empty());
    net.shutdown();
}

/// A v1 client (no Hello, fixed-field STATS) against the instrumented
/// server: the reply must still be the exact `StatsReport` encoding —
/// decode cleanly AND re-encode to the identical bytes, proving no new
/// fields leaked into the legacy view.
#[test]
fn v1_stats_report_is_byte_compatible() {
    let (net, _) = loaded_server();

    let mut sock = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frame = Vec::new();
    write_frame(&mut frame, &Request::Stats.encode(42)).unwrap();
    use std::io::Write as _;
    sock.write_all(&frame).unwrap();

    let mut reader = std::io::BufReader::new(sock);
    let deadline = Instant::now() + Duration::from_secs(10);
    let payload = loop {
        match read_frame(&mut reader, MAX_RESPONSE_FRAME) {
            Ok(Some(p)) => break p,
            Ok(None) => {
                assert!(Instant::now() < deadline, "no STATS reply before deadline");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("frame error: {e}"),
        }
    };
    let (req_id, resp) = Response::decode(&payload).expect("decode STATS reply");
    assert_eq!(req_id, 42);
    let report = match &resp {
        Response::Stats(r) => *r,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert!(report.epochs > 0, "report should reflect the load");
    assert_eq!(
        resp.encode(42),
        payload,
        "StatsReport encoding must be byte-identical to the v1 shape"
    );

    // The same numbers are visible through the registry: the report is
    // a compatibility view, not a second set of books.
    let client = NetClient::connect(net.local_addr()).expect("connect");
    let snap = client.metrics().expect("METRICS");
    assert_eq!(counter(&snap, "core.epochs"), Some(report.epochs));
    assert_eq!(
        counter(&snap, "core.safe_executed"),
        Some(report.safe_executed)
    );
    net.shutdown();
}

#[test]
fn replica_serves_follower_stats_over_metrics() {
    let (net, capacity) = loaded_server();
    let follower = ReplicaServer::start(
        wcc_algorithms(),
        capacity,
        server_config(BackendKind::IaHash, 1),
        FollowerConfig {
            listen: Some("127.0.0.1:0".into()),
            ..FollowerConfig::to_leader(net.local_addr().to_string())
        },
    )
    .expect("follower");

    let leader_version = net.server().current_version();
    let deadline = Instant::now() + Duration::from_secs(60);
    while follower.replica().current_version() < leader_version || follower.lag() > 0 {
        assert!(Instant::now() < deadline, "replica never converged");
        std::thread::sleep(Duration::from_millis(2));
    }

    let client = NetClient::connect(follower.local_addr().expect("replica addr")).expect("connect");
    let snap = client.metrics().expect("replica METRICS");
    assert!(
        counter(&snap, "replica.records_applied").expect("replica.records_applied") > 0,
        "the follower applied records"
    );
    assert!(counter(&snap, "replica.connects").expect("replica.connects") >= 1);
    let lag = snap.iter().find_map(|(n, v)| match v {
        MetricValue::Gauge(g) if n == "replica.lag" => Some(*g),
        _ => None,
    });
    assert_eq!(lag, Some(0), "converged replica must report zero lag");

    follower.shutdown();
    net.shutdown();
}
