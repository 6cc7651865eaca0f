//! The three named workloads: their inputs (graph, per-partition update
//! streams, query vertices), the open-loop schedule, and the pinned
//! server configuration every run uses.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use risgraph_algorithms::{Bfs, Sssp};
use risgraph_common::ids::{Update, VertexId};
use risgraph_common::protocol::{MAX_FRAME, MAX_RESPONSE_FRAME};
use risgraph_core::classifier::LinearClassifier;
use risgraph_core::engine::{DynAlgorithm, EngineConfig};
use risgraph_core::push::PushConfig;
use risgraph_core::scheduler::SchedulerConfig;
use risgraph_core::server::ServerConfig;
use risgraph_net::{FollowerConfig, NetConfig};
use risgraph_storage::{BackendKind, DEFAULT_INDEX_THRESHOLD};
use risgraph_workloads::datasets::by_abbr;
use risgraph_workloads::{RmatConfig, StreamConfig};

use crate::json::Obj;

/// Wire sessions multiplexed over the generator's one TCP connection.
pub const SESSIONS: usize = 16;
/// Requests each session keeps in flight in the closed-loop phase
/// (`SESSIONS * WINDOW` equals the pinned `NetConfig::window`).
pub const WINDOW: usize = 16;
/// Update partitions. Every update of a partition is submitted on one
/// session at a time, so a partition's updates apply in stream order.
pub const PARTITIONS: usize = 16;

/// Edges per vertex of the R-MAT graphs (2^16 vertices, 1,048,576 edges).
const RMAT_SCALE: u32 = 16;
const RMAT_EDGE_FACTOR: f64 = 16.0;
/// Road grid scale: 2^14 vertices (128 x 128).
const ROAD_SCALE: u32 = 14;
/// Duplicate insert/delete pairs generated per `safe_churn` session
/// (the stream is cycled when a run needs more).
const CHURN_PAIRS: usize = 8192;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// R-MAT 2^16, BFS, duplicate insert/delete pairs: all safe work.
    SafeChurn,
    /// R-MAT 2^16 weighted, SSSP, the §6.1 stream with WAL, history
    /// queries and a follower: the paper's default deployment.
    PaperMix,
    /// `PaperMix` without the follower (WAL, history and queries kept).
    PaperMixLeader,
    /// Road grid 2^14, SSSP, the §6.1 stream: large affected areas.
    RoadSssp,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SafeChurn,
        Workload::PaperMix,
        Workload::PaperMixLeader,
        Workload::RoadSssp,
    ];

    /// Parse a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SafeChurn => "safe_churn",
            Workload::PaperMix => "paper_mix",
            Workload::PaperMixLeader => "paper_mix_leader",
            Workload::RoadSssp => "road_sssp",
        }
    }

    /// Open-loop update rate, updates per second.
    pub fn update_rate(self) -> f64 {
        match self {
            Workload::SafeChurn => 20_000.0,
            Workload::PaperMix | Workload::PaperMixLeader => 10_000.0,
            Workload::RoadSssp => 3_000.0,
        }
    }

    /// Open-loop query rate, queries per second (on their own sessions).
    pub fn query_rate(self) -> f64 {
        match self {
            Workload::PaperMix | Workload::PaperMixLeader => 10_000.0,
            _ => 0.0,
        }
    }

    /// Updates the closed-loop phase sends: its nominal capacity on a
    /// 2-vCPU host (updates/s) times `seconds`, so the phase takes about
    /// that long there.
    pub fn closed_loop_updates(self, seconds: f64) -> u64 {
        let nominal = match self {
            Workload::SafeChurn => 140_000.0,
            Workload::PaperMix | Workload::PaperMixLeader => 110_000.0,
            Workload::RoadSssp => 20_000.0,
        };
        (nominal * seconds) as u64
    }

    /// Whether the leader keeps a WAL.
    pub fn wal(self) -> bool {
        matches!(self, Workload::PaperMix | Workload::PaperMixLeader)
    }

    /// Whether a follower replicates the leader.
    pub fn follower(self) -> bool {
        self == Workload::PaperMix
    }

    /// Sessions that carry updates in the open loop; the rest carry
    /// queries.
    pub fn update_sessions(self) -> usize {
        if self.query_rate() > 0.0 {
            SESSIONS / 2
        } else {
            SESSIONS
        }
    }
}

/// The maintained algorithm, kept concrete so the oracle can run the
/// reference computation on it.
#[derive(Debug, Clone, Copy)]
pub enum Algo {
    /// Breadth-first search from the root.
    Bfs(Bfs),
    /// Single-source shortest paths from the root.
    Sssp(Sssp),
}

impl Algo {
    /// The algorithm as the engine takes it.
    pub fn dyn_algorithm(self) -> DynAlgorithm {
        match self {
            Algo::Bfs(a) => Arc::new(a),
            Algo::Sssp(a) => Arc::new(a),
        }
    }

    /// Fixpoint values over `edges` for vertices `0..n`.
    pub fn reference(self, n: usize, edges: &[(u64, u64, u64)]) -> Vec<u64> {
        match self {
            Algo::Bfs(a) => risgraph_algorithms::reference::compute(&a, n, edges),
            Algo::Sssp(a) => risgraph_algorithms::reference::compute(&a, n, edges),
        }
    }
}

/// Everything a run feeds the program, generated from the seed.
pub struct Inputs {
    /// Which workload these are.
    pub workload: Workload,
    /// Vertex capacity of the server.
    pub capacity: usize,
    /// The maintained algorithm.
    pub algo: Algo,
    /// Edges bulk-loaded before the first request.
    pub preload: Vec<(u64, u64, u64)>,
    /// One base update sequence per partition, cycled by [`cycled`].
    pub partitions: Vec<Vec<Update>>,
    /// Updates in the base stream (all partitions).
    pub stream_len: usize,
    /// Seed the generator used (queries draw from it too).
    pub seed: u64,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`. The graphs are
    /// fixed per workload; the seed selects the update stream and the
    /// queried vertices.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::SafeChurn => {
                let preload = RmatConfig {
                    scale: RMAT_SCALE,
                    edge_factor: RMAT_EDGE_FACTOR,
                    max_weight: 0,
                    ..RmatConfig::default()
                }
                .generate();
                let partitions: Vec<Vec<Update>> = (0..PARTITIONS as u64)
                    .map(|p| {
                        risgraph_testkit::streams::safe_churn(
                            &preload,
                            CHURN_PAIRS,
                            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ p,
                        )
                    })
                    .collect();
                Inputs {
                    workload,
                    capacity: 1 << RMAT_SCALE,
                    algo: Algo::Bfs(Bfs::new(0)),
                    preload,
                    stream_len: PARTITIONS * CHURN_PAIRS * 2,
                    partitions,
                    seed,
                }
            }
            Workload::PaperMix | Workload::PaperMixLeader => {
                let edges = RmatConfig {
                    scale: RMAT_SCALE,
                    edge_factor: RMAT_EDGE_FACTOR,
                    max_weight: 100,
                    ..RmatConfig::default()
                }
                .generate();
                Self::from_stream(workload, 1 << RMAT_SCALE, &edges, seed)
            }
            Workload::RoadSssp => {
                let d = by_abbr("RD")
                    .expect("the road dataset is registered")
                    .generate(ROAD_SCALE, 100);
                Self::from_stream(workload, d.num_vertices, &d.edges, seed)
            }
        }
    }

    /// A §6.1 stream (90 % preload, alternating insert/delete of the
    /// rest), striped round-robin over the partitions.
    fn from_stream(
        workload: Workload,
        capacity: usize,
        edges: &[(u64, u64, u64)],
        seed: u64,
    ) -> Inputs {
        let stream = StreamConfig {
            seed,
            ..StreamConfig::default()
        }
        .build(edges);
        let mut partitions = vec![Vec::new(); PARTITIONS];
        for (i, u) in stream.updates.iter().enumerate() {
            partitions[i % PARTITIONS].push(*u);
        }
        Inputs {
            workload,
            capacity,
            algo: Algo::Sssp(Sssp::new(0)),
            preload: stream.preload,
            stream_len: stream.updates.len(),
            partitions,
            seed,
        }
    }
}

/// The inverse of an edge update.
pub fn inverse(u: Update) -> Update {
    match u {
        Update::InsEdge(e) => Update::DelEdge(e),
        Update::DelEdge(e) => Update::InsEdge(e),
        other => panic!("workload streams carry edge updates only, got {other:?}"),
    }
}

/// Update number `pos` of a partition cycled without end: the base
/// sequence forward, then its inverse in reverse order (which undoes
/// it), then forward again. Each pass leaves the partition's edges as
/// the previous pass found them, so every update stays valid.
pub fn cycled(base: &[Update], pos: u64) -> Update {
    let n = base.len() as u64;
    let (pass, i) = (pos / n, pos % n);
    if pass % 2 == 0 {
        base[i as usize]
    } else {
        inverse(base[(n - 1 - i) as usize])
    }
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An update drawn from partition `partition`.
    Update {
        /// Source partition.
        partition: usize,
        /// The update.
        update: Update,
    },
    /// `get_value` of `vertex` at the latest acknowledged version.
    GetValue(VertexId),
    /// `get_modified_vertices` at the latest acknowledged version.
    GetModified,
}

/// A scheduled request: due `due_ns` after the schedule starts, on
/// wire session `sid` (1-based).
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Due time, nanoseconds after the schedule's start.
    pub due_ns: u64,
    /// Session the request travels on.
    pub sid: u64,
    /// What to send.
    pub op: Op,
}

impl Slot {
    /// Whether this slot is an update.
    pub fn is_update(&self) -> bool {
        matches!(self.op, Op::Update { .. })
    }
}

/// Per-partition positions in the cycled streams, shared by the
/// open-loop schedule and the closed-loop phase that follows it.
pub struct Traffic<'a> {
    inputs: &'a Inputs,
    cursors: Vec<u64>,
    next_partition: usize,
    rng: StdRng,
}

impl<'a> Traffic<'a> {
    /// Fresh cursors at the start of every partition.
    pub fn new(inputs: &'a Inputs) -> Self {
        Traffic {
            inputs,
            cursors: vec![0; PARTITIONS],
            next_partition: 0,
            rng: StdRng::seed_from_u64(inputs.seed ^ 0x5155_4552_5953),
        }
    }

    /// The next update of partition `p`.
    pub fn next_in(&mut self, p: usize) -> Update {
        let u = cycled(&self.inputs.partitions[p], self.cursors[p]);
        self.cursors[p] += 1;
        u
    }

    /// The open-loop schedule for `duration`: updates and queries at
    /// the workload's fixed rates, interleaved evenly. Updates take the
    /// partitions round-robin; partition `p` rides session
    /// `1 + p % update_sessions`, queries the sessions after those.
    pub fn open_loop(&mut self, duration: Duration) -> Vec<Slot> {
        let w = self.inputs.workload;
        let (ur, qr) = (w.update_rate(), w.query_rate());
        let total = ur + qr;
        let n = (duration.as_secs_f64() * total).round() as u64;
        let upd_sessions = w.update_sessions() as u64;
        let qry_sessions = SESSIONS as u64 - upd_sessions;
        let mut slots = Vec::with_capacity(n as usize);
        let mut queries = 0u64;
        for k in 0..n {
            let due_ns = (k as f64 * 1e9 / total) as u64;
            // Bresenham split: slot k is an update when the running
            // update quota crosses an integer.
            let is_update = ((k + 1) as f64 * ur / total).floor() > (k as f64 * ur / total).floor();
            let slot = if is_update {
                let p = self.next_partition;
                self.next_partition = (p + 1) % PARTITIONS;
                Slot {
                    due_ns,
                    sid: 1 + p as u64 % upd_sessions,
                    op: Op::Update {
                        partition: p,
                        update: self.next_in(p),
                    },
                }
            } else {
                let op = if queries.is_multiple_of(2) {
                    Op::GetValue(self.rng.gen_range(0..self.inputs.capacity as u64))
                } else {
                    Op::GetModified
                };
                let sid = 1 + upd_sessions + queries % qry_sessions;
                queries += 1;
                Slot { due_ns, sid, op }
            };
            slots.push(slot);
        }
        slots
    }
}

/// Pinned deployment: every field set here, none read from the
/// environment, so `RISGRAPH_*` variables cannot change what is
/// measured.
pub struct Deployment {
    /// The leader's configuration.
    pub server: ServerConfig,
    /// The serving tier's configuration.
    pub net: NetConfig,
    /// Whether a follower is attached.
    pub follower: bool,
}

/// Engine threads of every engine the benchmark builds.
pub const ENGINE_THREADS: usize = 2;

/// The pinned engine configuration.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: ENGINE_THREADS,
        index_threshold: DEFAULT_INDEX_THRESHOLD,
        push: PushConfig {
            sequential_grain: 4096,
            parallel_grain: 128,
            classifier: LinearClassifier {
                slope: 1.0,
                intercept: (32f64).ln(),
            },
            forced_mode: None,
            pull_threshold: 0.25,
        },
    }
}

impl Deployment {
    /// The deployment of `workload`; `wal_path` is used when the
    /// workload keeps a WAL.
    pub fn pinned(workload: Workload, wal_path: Option<PathBuf>) -> Deployment {
        let follower = workload.follower();
        let server = ServerConfig {
            engine: engine_config(),
            backend: BackendKind::IaHash,
            scheduler: SchedulerConfig {
                latency_limit: Duration::from_millis(20),
                target_fraction: 0.8,
                qualified_goal: 0.999,
                adjust_every: 3,
                increase: 1.01,
                decrease: 0.90,
                initial_threshold: 2,
                max_threshold: 4096,
            },
            shards: 2,
            wal_path: if workload.wal() { wal_path } else { None },
            enable_history: true,
            gc_interval: Duration::from_secs(1),
            history_release_interval: None,
            idle_poll: Duration::from_micros(200),
            wal_sync_interval: Duration::from_millis(2),
            max_epoch_updates: 1 << 16,
            max_capacity: 1 << 26,
            unsafe_workers: 1,
            unsafe_footprint_cap: 4096,
            max_followers: usize::from(follower),
            max_wal_segment_bytes: 0,
            checkpoint_interval: None,
            trace_slow_epoch: Duration::from_millis(1000),
        };
        let net = NetConfig {
            listen: "127.0.0.1:0".into(),
            max_frame: MAX_FRAME,
            window: SESSIONS * WINDOW,
            heartbeat_interval: Duration::from_millis(100),
            net_workers: 1,
            send_timeout: Duration::from_secs(10),
            reply_timeout: Duration::from_secs(30),
            max_sessions_per_conn: 1 << 16,
            inflight_budget: 0,
            session_quota: 0,
            accept_high_water: 4096,
        };
        Deployment {
            server,
            net,
            follower,
        }
    }

    /// The follower's configuration (the follower builds its engine
    /// from the leader's `ServerConfig`).
    pub fn follower_config(leader: String) -> FollowerConfig {
        FollowerConfig {
            leader,
            listen: None,
            reconnect_backoff: Duration::from_millis(50),
            read_timeout: Duration::from_secs(2),
            max_frame: MAX_RESPONSE_FRAME,
        }
    }

    /// Every resolved field, for the result header.
    pub fn describe(&self) -> Obj {
        let s = &self.server;
        let e = &s.engine;
        let sc = &s.scheduler;
        let n = &self.net;
        let f = Self::follower_config(String::new());
        Obj::new()
            .str("backend", &format!("{:?}", s.backend))
            .num("engine.threads", e.threads as f64)
            .num("engine.index_threshold", e.index_threshold as f64)
            .num(
                "engine.push.sequential_grain",
                e.push.sequential_grain as f64,
            )
            .num("engine.push.parallel_grain", e.push.parallel_grain as f64)
            .num("engine.push.classifier.slope", e.push.classifier.slope)
            .num(
                "engine.push.classifier.intercept",
                e.push.classifier.intercept,
            )
            .str(
                "engine.push.forced_mode",
                &format!("{:?}", e.push.forced_mode),
            )
            .num("engine.push.pull_threshold", e.push.pull_threshold)
            .num(
                "scheduler.latency_limit_ms",
                sc.latency_limit.as_secs_f64() * 1e3,
            )
            .num("scheduler.target_fraction", sc.target_fraction)
            .num("scheduler.qualified_goal", sc.qualified_goal)
            .num("scheduler.adjust_every", sc.adjust_every as f64)
            .num("scheduler.increase", sc.increase)
            .num("scheduler.decrease", sc.decrease)
            .num("scheduler.initial_threshold", sc.initial_threshold as f64)
            .num("scheduler.max_threshold", sc.max_threshold as f64)
            .num("shards", s.shards as f64)
            .bool("wal", s.wal_path.is_some())
            .bool("enable_history", s.enable_history)
            .num("gc_interval_ms", s.gc_interval.as_secs_f64() * 1e3)
            .str(
                "history_release_interval",
                &format!("{:?}", s.history_release_interval),
            )
            .num("idle_poll_us", s.idle_poll.as_secs_f64() * 1e6)
            .num(
                "wal_sync_interval_ms",
                s.wal_sync_interval.as_secs_f64() * 1e3,
            )
            .num("max_epoch_updates", s.max_epoch_updates as f64)
            .num("max_capacity", s.max_capacity as f64)
            .num("unsafe_workers", s.unsafe_workers as f64)
            .num("unsafe_footprint_cap", s.unsafe_footprint_cap as f64)
            .num("max_followers", s.max_followers as f64)
            .num("max_wal_segment_bytes", s.max_wal_segment_bytes as f64)
            .str(
                "checkpoint_interval",
                &format!("{:?}", s.checkpoint_interval),
            )
            .num(
                "trace_slow_epoch_ms",
                s.trace_slow_epoch.as_secs_f64() * 1e3,
            )
            .num("net.max_frame", n.max_frame as f64)
            .num("net.window", n.window as f64)
            .num(
                "net.heartbeat_interval_ms",
                n.heartbeat_interval.as_secs_f64() * 1e3,
            )
            .num("net.net_workers", n.net_workers as f64)
            .num("net.send_timeout_ms", n.send_timeout.as_secs_f64() * 1e3)
            .num("net.reply_timeout_ms", n.reply_timeout.as_secs_f64() * 1e3)
            .num("net.max_sessions_per_conn", n.max_sessions_per_conn as f64)
            .num("net.inflight_budget", n.inflight_budget as f64)
            .num("net.session_quota", n.session_quota as f64)
            .num("net.accept_high_water", n.accept_high_water as f64)
            .bool("follower", self.follower)
            .num(
                "follower.reconnect_backoff_ms",
                f.reconnect_backoff.as_secs_f64() * 1e3,
            )
            .num(
                "follower.read_timeout_ms",
                f.read_timeout.as_secs_f64() * 1e3,
            )
            .num("follower.max_frame", f.max_frame as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn environment_does_not_change_the_pinned_config() {
        let before: Vec<String> = Workload::ALL
            .iter()
            .map(|&w| {
                Deployment::pinned(w, Some("wal".into()))
                    .describe()
                    .render()
            })
            .collect();
        for (k, v) in [
            ("RISGRAPH_SHARDS", "4"),
            ("RISGRAPH_STORE", "ooc-mmap"),
            ("RISGRAPH_NET_INFLIGHT_BUDGET", "8"),
            ("RISGRAPH_NET_SESSION_QUOTA", "2"),
            ("RISGRAPH_TRACE_SLOW_EPOCH_MS", "0"),
            ("RISGRAPH_NET_WORKERS", "3"),
            ("RISGRAPH_UNSAFE_WORKERS", "2"),
        ] {
            std::env::set_var(k, v);
        }
        let after: Vec<String> = Workload::ALL
            .iter()
            .map(|&w| {
                Deployment::pinned(w, Some("wal".into()))
                    .describe()
                    .render()
            })
            .collect();
        assert_eq!(before, after);
        assert!(after[0].contains("\"backend\": \"IaHash\""), "{}", after[0]);
        assert!(after[0].contains("\"shards\": 2"), "{}", after[0]);
        assert!(
            after[0].contains("\"net.inflight_budget\": 0"),
            "{}",
            after[0]
        );
    }

    /// Apply `u` to a multiset, refusing deletes of absent edges.
    fn apply(live: &mut HashMap<(u64, u64, u64), u64>, u: Update) {
        match u {
            Update::InsEdge(e) => *live.entry((e.src, e.dst, e.data)).or_default() += 1,
            Update::DelEdge(e) => {
                let c = live
                    .get_mut(&(e.src, e.dst, e.data))
                    .expect("delete of an absent edge");
                assert!(*c > 0, "delete of an absent edge {e:?}");
                *c -= 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cycling_keeps_every_update_valid_and_returns_to_the_preload() {
        let inputs = Inputs::generate(Workload::RoadSssp, 3);
        let mut live = HashMap::new();
        for &(s, d, w) in &inputs.preload {
            *live.entry((s, d, w)).or_default() += 1;
        }
        let start = live.clone();
        // Two full passes per partition, partitions interleaved unevenly.
        for p in 0..PARTITIONS {
            let n = inputs.partitions[p].len() as u64;
            for pos in 0..2 * n {
                apply(&mut live, cycled(&inputs.partitions[p], pos));
            }
        }
        live.retain(|_, c| *c > 0);
        let mut start = start;
        start.retain(|_, c| *c > 0);
        assert_eq!(live, start);
    }

    #[test]
    fn open_loop_mixes_queries_at_the_configured_share() {
        let inputs = Inputs::generate(Workload::RoadSssp, 1);
        let slots = Traffic::new(&inputs).open_loop(Duration::from_secs(1));
        assert_eq!(slots.len(), 3000);
        assert!(slots.iter().all(Slot::is_update));
        assert!(slots.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
        assert!(slots.iter().all(|s| (1..=SESSIONS as u64).contains(&s.sid)));
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(Workload::RoadSssp, 9);
        let b = Inputs::generate(Workload::RoadSssp, 9);
        let c = Inputs::generate(Workload::RoadSssp, 10);
        assert_eq!(a.partitions, b.partitions);
        assert_ne!(a.partitions, c.partitions);
    }
}
