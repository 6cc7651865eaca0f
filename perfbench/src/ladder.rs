//! The traced run's lower rungs. Each replays the same inputs one layer
//! further in: `Session`s on an in-process server, a single-writer
//! `Engine`, a bare `AnyStore`, and the protocol codec. The difference
//! between adjacent rungs is the cost of the outer layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use risgraph_common::ids::Update;
use risgraph_common::protocol::{write_frame, Request, Response, FRAME_HEADER};
use risgraph_common::Result;
use risgraph_core::engine::{Engine, SafeApply, Safety};
use risgraph_core::server::{Server, Session};
use risgraph_storage::{AnyStore, BackendKind, DynamicGraph, StoreConfig, DEFAULT_INDEX_THRESHOLD};

use crate::check::Multiset;
use crate::openloop;
use crate::stats::Tally;
use crate::tcp::Verdict;
use crate::workload::{engine_config, Inputs, Op, Slot, SESSIONS};

/// What the in-process rung observed.
pub struct InProcessLog {
    /// Update latency from due time, per update slot (`u64::MAX` when
    /// it failed or never came back).
    pub update_ns: Vec<u64>,
    /// Query latency from due time, per query slot.
    pub query_ns: Vec<u64>,
    /// Requests and failures.
    pub tally: Tally,
    /// The acknowledged edge multiset.
    pub expected: Multiset,
    /// `Session::get_value` call times of the history probe.
    pub get_value_ns: Vec<u64>,
    /// `Session::get_modified_vertices` call times of the history probe.
    pub get_modified_ns: Vec<u64>,
}

/// Queries made by the history probe after the schedule.
const HISTORY_PROBES: usize = 20_000;

/// Rung 2: the same schedule through `Session::submit_update_tagged`
/// (a receiver thread drains the replies) and `Session::get_value` /
/// `get_modified_vertices` (called on the sender at their due time).
/// Afterwards a history probe times queries at random versions.
pub fn in_process(server: &Server, inputs: &Inputs, slots: &[Slot]) -> InProcessLog {
    let sessions: Vec<Session> = (0..SESSIONS).map(|_| server.session()).collect();
    let (wake_tx, wake_rx) = std::sync::mpsc::channel::<()>();
    for s in &sessions {
        let tx = std::sync::Mutex::new(wake_tx.clone());
        s.set_reply_waker(Some(Arc::new(move || {
            let _ = tx.lock().expect("waker lock").send(());
        })));
    }
    let updates = slots.iter().filter(|s| s.is_update()).count();
    let latest = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let mut tally = Tally::default();
    let mut expected = Multiset::of(&inputs.preload);
    let mut update_ns = vec![u64::MAX; slots.len()];
    let mut query_ns = Vec::new();

    let (sessions_ref, latest_ref) = (&sessions, &latest);
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut got: Vec<(usize, u64, Verdict)> = Vec::with_capacity(updates);
            let mut last = Instant::now();
            while got.len() < updates {
                if wake_rx.recv_timeout(Duration::from_millis(20)).is_err()
                    && last.elapsed() > crate::tcp::DRAIN_TIMEOUT
                {
                    break;
                }
                while wake_rx.try_recv().is_ok() {}
                for s in sessions_ref {
                    while let Some((tag, reply)) = s.try_recv_tagged() {
                        let at = Instant::now();
                        let k = tag as usize;
                        let v = match &reply.outcome {
                            Ok(a) if a.safety == Safety::Safe => Verdict::AppliedSafe,
                            Ok(_) => Verdict::AppliedUnsafe,
                            Err(e) if e.is_busy() => Verdict::Busy,
                            Err(_) => Verdict::Failed,
                        };
                        if v.ok() {
                            latest_ref.fetch_max(reply.version, Ordering::Relaxed);
                        }
                        got.push((k, openloop::latency_ns(start, slots[k].due_ns, at), v));
                        last = at;
                    }
                }
            }
            got
        });

        for (k, slot) in slots.iter().enumerate() {
            let due = openloop::due_at(start, slot.due_ns);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let s = &sessions[slot.sid as usize - 1];
            let version = latest.load(Ordering::Relaxed);
            let ok = match slot.op {
                Op::Update { update, .. } => {
                    if s.submit_update_tagged(&update, k as u64).is_err() {
                        Verdict::Failed.count(&mut tally);
                    }
                    continue;
                }
                Op::GetValue(v) => s.get_value(0, version, v).is_ok(),
                Op::GetModified => s.get_modified_vertices(0, version).is_ok(),
            };
            let v = if ok {
                Verdict::Answered
            } else {
                Verdict::Failed
            };
            v.count(&mut tally);
            query_ns.push(if ok {
                openloop::latency_ns(start, slot.due_ns, Instant::now())
            } else {
                u64::MAX
            });
        }
        let got = receiver.join().expect("in-process receiver panicked");
        let mut seen = 0;
        for (k, lat, v) in got {
            v.count(&mut tally);
            seen += 1;
            if v.ok() {
                update_ns[k] = lat;
                if let Op::Update { update, .. } = slots[k].op {
                    expected.apply(&update);
                }
            }
        }
        for _ in seen..updates {
            Verdict::Missing.count(&mut tally);
        }
    });
    let update_ns = slots
        .iter()
        .zip(update_ns)
        .filter(|(s, _)| s.is_update())
        .map(|(_, l)| l)
        .collect();

    // History probe: alternate value and modified-set reads at random
    // retained versions.
    let s = &sessions[0];
    let top = s.get_current_version().max(1);
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x4849_5354);
    let mut get_value_ns = Vec::with_capacity(HISTORY_PROBES / 2);
    let mut get_modified_ns = Vec::with_capacity(HISTORY_PROBES / 2);
    for i in 0..HISTORY_PROBES {
        let version = rng.gen_range(1..=top);
        let t = Instant::now();
        let ok = if i % 2 == 0 {
            let r = s.get_value(0, version, rng.gen_range(0..inputs.capacity as u64));
            get_value_ns.push(t.elapsed().as_nanos() as u64);
            r.is_ok()
        } else {
            let r = s.get_modified_vertices(0, version);
            get_modified_ns.push(t.elapsed().as_nanos() as u64);
            r.is_ok()
        };
        (if ok {
            Verdict::Answered
        } else {
            Verdict::Failed
        })
        .count(&mut tally);
    }
    InProcessLog {
        update_ns,
        query_ns,
        tally,
        expected,
        get_value_ns,
        get_modified_ns,
    }
}

/// The store configuration the server uses.
fn store_config() -> StoreConfig {
    StoreConfig {
        index_threshold: DEFAULT_INDEX_THRESHOLD,
        auto_create_vertices: true,
    }
}

/// What the single-writer engine rung observed.
pub struct EngineLog {
    /// `Engine::load_edges` wall time, ms.
    pub load_ms: f64,
    /// `Engine::classify` call times.
    pub classify_ns: Vec<u64>,
    /// `Engine::try_apply_safe` call times (applied).
    pub safe_ns: Vec<u64>,
    /// `Engine::apply_unsafe` call times (demotions included).
    pub unsafe_ns: Vec<u64>,
    /// Updates applied and the wall time they took.
    pub applied: u64,
    /// Wall time of the update loop.
    pub elapsed: Duration,
    /// Requests and failures (oracle mismatches included).
    pub tally: Tally,
}

/// The update sequence of a schedule.
pub fn updates_of(slots: &[Slot]) -> impl Iterator<Item = Update> + '_ {
    slots.iter().filter_map(|s| match s.op {
        Op::Update { update, .. } => Some(update),
        _ => None,
    })
}

/// Rung 3: one writer applies the schedule's updates in order through
/// `Engine::classify` then `try_apply_safe` or `apply_unsafe` (what
/// `Engine::apply` does), as fast as it can, for at most `budget`. This
/// is also the single-threaded baseline of the serving stack. Values
/// are checked against the oracle afterwards.
pub fn engine_rung(inputs: &Inputs, slots: &[Slot], budget: Duration) -> Result<EngineLog> {
    let store = AnyStore::open(&BackendKind::IaHash, inputs.capacity, store_config())?;
    let engine = Engine::from_store(store, vec![inputs.algo.dyn_algorithm()], engine_config());
    let t = Instant::now();
    engine.load_edges(&inputs.preload);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut log = EngineLog {
        load_ms,
        classify_ns: Vec::new(),
        safe_ns: Vec::new(),
        unsafe_ns: Vec::new(),
        applied: 0,
        elapsed: Duration::ZERO,
        tally: Tally::default(),
    };
    let mut expected = Multiset::of(&inputs.preload);
    let t0 = Instant::now();
    for u in updates_of(slots) {
        if t0.elapsed() > budget {
            break;
        }
        let t = Instant::now();
        let safety = engine.classify(&u);
        let t1 = Instant::now();
        log.classify_ns.push((t1 - t).as_nanos() as u64);
        let ok = match safety {
            Safety::Safe => match engine.try_apply_safe(&u) {
                Ok(SafeApply::Applied) => {
                    log.safe_ns.push(t1.elapsed().as_nanos() as u64);
                    true
                }
                Ok(SafeApply::Demoted) => {
                    let t2 = Instant::now();
                    let r = engine.apply_unsafe(&u);
                    log.unsafe_ns.push(t2.elapsed().as_nanos() as u64);
                    r.is_ok()
                }
                Err(_) => false,
            },
            Safety::Unsafe => {
                let r = engine.apply_unsafe(&u);
                log.unsafe_ns.push(t1.elapsed().as_nanos() as u64);
                r.is_ok()
            }
        };
        (if ok {
            Verdict::AppliedSafe
        } else {
            Verdict::Failed
        })
        .count(&mut log.tally);
        if ok {
            expected.apply(&u);
            log.applied += 1;
        }
    }
    log.elapsed = t0.elapsed();
    log.tally.mismatches += crate::check::oracle_mismatches(inputs, &engine, &expected);
    Ok(log)
}

/// What the store rung observed.
pub struct StoreLog {
    /// `insert_edge` call times.
    pub insert_ns: Vec<u64>,
    /// `delete_edge` call times.
    pub delete_ns: Vec<u64>,
    /// `scan_out` call times (whole adjacency of a random vertex).
    pub scan_ns: Vec<u64>,
    /// Requests and failures (an edge-count mismatch included).
    pub tally: Tally,
}

/// Rung 4: the schedule's structural updates straight into a bare
/// `AnyStore` (no classification, no results), with an out-scan of a
/// random vertex after every fourth update, for at most `budget`.
pub fn store_rung(inputs: &Inputs, slots: &[Slot], budget: Duration) -> Result<StoreLog> {
    let store = AnyStore::open(&BackendKind::IaHash, inputs.capacity, store_config())?;
    for &(s, d, w) in &inputs.preload {
        store.insert_edge(risgraph_common::ids::Edge::new(s, d, w))?;
    }
    let mut log = StoreLog {
        insert_ns: Vec::new(),
        delete_ns: Vec::new(),
        scan_ns: Vec::new(),
        tally: Tally::default(),
    };
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x5343_414E);
    let mut edges = inputs.preload.len() as i64;
    let mut sink = 0u64;
    let t0 = Instant::now();
    for (i, u) in updates_of(slots).enumerate() {
        if t0.elapsed() > budget {
            break;
        }
        let t = Instant::now();
        let ok = match u {
            Update::InsEdge(e) => {
                let r = store.insert_edge(e);
                log.insert_ns.push(t.elapsed().as_nanos() as u64);
                edges += 1;
                r.is_ok()
            }
            Update::DelEdge(e) => {
                let r = store.delete_edge(e);
                log.delete_ns.push(t.elapsed().as_nanos() as u64);
                edges -= 1;
                r.is_ok()
            }
            _ => false,
        };
        (if ok {
            Verdict::AppliedSafe
        } else {
            Verdict::Failed
        })
        .count(&mut log.tally);
        if i % 4 == 3 {
            let v = rng.gen_range(0..inputs.capacity as u64);
            let t = Instant::now();
            store.scan_out(v, &mut |d, w, c| sink = sink.wrapping_add(d ^ w ^ c as u64));
            log.scan_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    std::hint::black_box(sink);
    if store.num_edges() as i64 != edges {
        log.tally.mismatches += 1;
    }
    Ok(log)
}

/// What the protocol rung observed.
pub struct ProtocolLog {
    /// Per-request encode cost (request + its reply), ns, one sample
    /// per batch.
    pub encode_ns: Vec<f64>,
    /// Per-request decode cost (request + its reply), ns, per batch.
    pub decode_ns: Vec<f64>,
    /// Round trips checked (decoded equals encoded).
    pub tally: Tally,
}

/// Requests per timed protocol batch.
const PROTO_BATCH: usize = 256;

/// Rung 5: encode each scheduled request as the generator does
/// (`encode_in_session` + `write_frame`) and its reply as the server
/// does, then decode both, in timed batches, for at most `budget`.
pub fn protocol_rung(slots: &[Slot], budget: Duration) -> ProtocolLog {
    let mut log = ProtocolLog {
        encode_ns: Vec::new(),
        decode_ns: Vec::new(),
        tally: Tally::default(),
    };
    let reply = Response::Applied {
        version: 123_456,
        safe: true,
        result_changes: 0,
    };
    let t0 = Instant::now();
    let mut frames: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(PROTO_BATCH);
    'outer: while t0.elapsed() < budget {
        for batch in slots.chunks(PROTO_BATCH) {
            if t0.elapsed() > budget {
                break 'outer;
            }
            frames.clear();
            let t = Instant::now();
            for (i, s) in batch.iter().enumerate() {
                let req = crate::tcp::request_of(&s.op, 7);
                let mut framed = Vec::with_capacity(64);
                write_frame(&mut framed, &req.encode_in_session(i as u64, s.sid))
                    .expect("writing to a Vec cannot fail");
                frames.push((framed, reply.encode(i as u64)));
            }
            log.encode_ns
                .push(t.elapsed().as_nanos() as f64 / batch.len() as f64);
            let t = Instant::now();
            let decoded: Vec<_> = frames
                .iter()
                .map(|(req, resp)| {
                    (
                        Request::decode(&req[FRAME_HEADER..]),
                        Response::decode(resp),
                    )
                })
                .collect();
            log.decode_ns
                .push(t.elapsed().as_nanos() as f64 / batch.len() as f64);
            for ((i, s), (req, resp)) in batch.iter().enumerate().zip(decoded) {
                let want = Request::InSession {
                    sid: s.sid,
                    req: Box::new(crate::tcp::request_of(&s.op, 7)),
                };
                let ok = matches!(req, Ok((id, r)) if id == i as u64 && r == want)
                    && matches!(resp, Ok((id, ref r)) if id == i as u64 && *r == reply);
                (if ok {
                    Verdict::Answered
                } else {
                    Verdict::Wrong
                })
                .count(&mut log.tally);
            }
        }
    }
    log
}
