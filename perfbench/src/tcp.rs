//! The load generator's TCP side: the open loop over one connection
//! carrying 16 protocol-v2 sessions (a sender on schedule and a
//! receiver decoding replies), and the closed-loop capacity phase
//! through `NetClient` sessions.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use risgraph_common::ids::Update;
use risgraph_common::protocol::{read_frame, write_frame, Request, Response, MAX_RESPONSE_FRAME};
use risgraph_common::{Error, Result};
use risgraph_net::NetClient;

use crate::openloop::{self, Sink};
use crate::stats::Tally;
use crate::workload::{Op, Slot, Traffic, PARTITIONS, SESSIONS, WINDOW};

/// Request ids of scheduled slots start here (0 is the server's
/// connection-error channel, 1 the `Hello`).
const FIRST_ID: u64 = 16;
/// How long the receiver may keep waiting for replies after the last
/// request was sent before the rest count as missing.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No reply (yet).
    Missing,
    /// An update applied on the safe path.
    AppliedSafe,
    /// An update applied on the unsafe path.
    AppliedUnsafe,
    /// A query answered with the right shape.
    Answered,
    /// `Failed` reply.
    Failed,
    /// `Busy` reply.
    Busy,
    /// A reply of the wrong shape for the request.
    Wrong,
}

impl Verdict {
    /// Judge `resp` as the reply to `op`.
    pub fn of(op: &Op, resp: &Response) -> Verdict {
        match (op, resp) {
            (_, Response::Failed { .. }) => Verdict::Failed,
            (_, Response::Busy { .. }) => Verdict::Busy,
            (Op::Update { .. }, Response::Applied { safe: true, .. }) => Verdict::AppliedSafe,
            (Op::Update { .. }, Response::Applied { safe: false, .. }) => Verdict::AppliedUnsafe,
            (Op::GetValue(_), Response::Value(_)) => Verdict::Answered,
            (Op::GetModified, Response::Modified(_)) => Verdict::Answered,
            _ => Verdict::Wrong,
        }
    }

    /// Whether the request succeeded.
    pub fn ok(self) -> bool {
        matches!(
            self,
            Verdict::AppliedSafe | Verdict::AppliedUnsafe | Verdict::Answered
        )
    }

    /// Count this verdict into `t` (one attempted request).
    pub fn count(self, t: &mut Tally) {
        t.attempted += 1;
        match self {
            Verdict::AppliedSafe | Verdict::AppliedUnsafe | Verdict::Answered => {}
            Verdict::Failed => t.failed += 1,
            Verdict::Busy => t.busy += 1,
            Verdict::Missing => t.missing += 1,
            Verdict::Wrong => t.wrong += 1,
        }
    }
}

/// The request a slot sends, with queries pinned to `version`.
pub fn request_of(op: &Op, version: u64) -> Request {
    match *op {
        Op::Update { update, .. } => Request::Update(update),
        Op::GetValue(vertex) => Request::GetValue {
            algo: 0,
            version,
            vertex,
        },
        Op::GetModified => Request::GetModified { algo: 0, version },
    }
}

/// Everything the open loop observed.
pub struct OpenLoopLog {
    /// Latency from due time to reply, per slot (`u64::MAX` if missing).
    pub latency_ns: Vec<u64>,
    /// Verdict per slot.
    pub verdicts: Vec<Verdict>,
    /// Sender lateness per slot.
    pub late_ns: Vec<u64>,
    /// `(version, ack instant)` of every applied update.
    pub acks: Vec<(u64, Instant)>,
    /// Per-request `encode_in_session` + `write_frame` time (traced runs).
    pub encode_ns: Vec<u64>,
    /// Per-reply `Response::decode` time (traced runs).
    pub decode_ns: Vec<u64>,
}

struct TcpSink(TcpStream);

impl Sink for TcpSink {
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0.write_all(bytes)
    }
}

/// Negotiate protocol v2 on a fresh connection.
fn hello(addr: SocketAddr) -> Result<TcpStream> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| Error::Protocol(format!("connect: {e}")))?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &Request::Hello { version: 2 }.encode(1))?;
    let payload = read_frame(&mut stream, MAX_RESPONSE_FRAME)?
        .ok_or_else(|| Error::Protocol("closed during hello".into()))?;
    match Response::decode(&payload)? {
        (1, Response::Hello { version: 2 }) => Ok(stream),
        other => Err(Error::Protocol(format!("hello failed: {other:?}"))),
    }
}

/// Run `slots` open-loop against the server at `addr`. Queries read at
/// the latest version any update reply has acknowledged. With `traced`
/// the encode and decode calls are timed one by one.
pub fn open_loop(addr: SocketAddr, slots: &[Slot], traced: bool) -> Result<OpenLoopLog> {
    let stream = hello(addr)?;
    let read_half = stream.try_clone()?;
    let shutdown_handle = stream.try_clone()?;
    let due: Vec<u64> = slots.iter().map(|s| s.due_ns).collect();
    let latest = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let (done_tx, done_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let n = slots.len();
            let mut latency_ns = vec![u64::MAX; n];
            let mut verdicts = vec![Verdict::Missing; n];
            let mut acks = Vec::with_capacity(n);
            let mut decode_ns = Vec::new();
            let mut reader = BufReader::with_capacity(1 << 16, read_half);
            let mut received = 0;
            while received < n {
                let payload = match read_frame(&mut reader, MAX_RESPONSE_FRAME) {
                    Ok(Some(p)) => p,
                    _ => break,
                };
                let at = Instant::now();
                let decoded = Response::decode(&payload);
                if traced {
                    decode_ns.push(at.elapsed().as_nanos() as u64);
                }
                let Ok((id, resp)) = decoded else { break };
                let Some(k) = id
                    .checked_sub(FIRST_ID)
                    .map(|k| k as usize)
                    .filter(|&k| k < n)
                else {
                    continue;
                };
                if verdicts[k] != Verdict::Missing {
                    continue;
                }
                let v = Verdict::of(&slots[k].op, &resp);
                if let Response::Applied { version, .. } = resp {
                    latest.fetch_max(version, Ordering::Relaxed);
                    acks.push((version, at));
                }
                verdicts[k] = v;
                latency_ns[k] = openloop::latency_ns(start, slots[k].due_ns, at);
                received += 1;
            }
            let _ = done_tx.send(());
            (latency_ns, verdicts, acks, decode_ns)
        });

        let mut sink = TcpSink(stream);
        let mut encode_ns = Vec::new();
        let sent = openloop::drive(start, &due, &mut sink, |k, buf| {
            let t = traced.then(Instant::now);
            let req = request_of(&slots[k].op, latest.load(Ordering::Relaxed));
            let payload = req.encode_in_session(FIRST_ID + k as u64, slots[k].sid);
            write_frame(buf, &payload).expect("writing to a Vec cannot fail");
            if let Some(t) = t {
                encode_ns.push(t.elapsed().as_nanos() as u64);
            }
        });
        // Whatever happened to the sender, the receiver gets the drain
        // window and is then cut off.
        let _ = done_rx.recv_timeout(DRAIN_TIMEOUT);
        let _ = shutdown_handle.shutdown(Shutdown::Both);
        let (latency_ns, verdicts, acks, decode_ns) =
            receiver.join().expect("receiver thread panicked");
        let late_ns = sent.map_err(Error::from)?;
        Ok(OpenLoopLog {
            latency_ns,
            verdicts,
            late_ns,
            acks,
            encode_ns,
            decode_ns,
        })
    })
}

/// What the closed-loop phase observed.
pub struct ClosedLoopLog {
    /// When each applied update was answered, ns after the phase began.
    pub completions: Vec<u64>,
    /// Every update of the phase.
    pub tally: Tally,
    /// Updates that applied, for the oracle.
    pub applied: Vec<Update>,
}

/// Closed loop: `SESSIONS` sessions on one `NetClient` connection, each
/// keeping `WINDOW` updates of its own partition in flight, until
/// `updates` updates have been sent and answered. The work is fixed,
/// so a faster system finishes sooner.
pub fn closed_loop(addr: SocketAddr, traffic: &mut Traffic, updates: u64) -> Result<ClosedLoopLog> {
    assert_eq!(
        SESSIONS, PARTITIONS,
        "one partition per closed-loop session"
    );
    let client = NetClient::connect(addr)?;
    let sessions = (0..SESSIONS)
        .map(|_| client.open_session())
        .collect::<Result<Vec<_>>>()?;
    let mut inflight: Vec<VecDeque<(u64, Update)>> = vec![VecDeque::new(); SESSIONS];
    let mut tally = Tally::default();
    let mut applied = Vec::with_capacity(updates as usize);
    let mut completions = Vec::with_capacity(updates as usize);
    let mut sent = 0u64;
    let start = Instant::now();
    for (p, s) in sessions.iter().enumerate() {
        for _ in 0..WINDOW {
            if sent < updates {
                let u = traffic.next_in(p);
                inflight[p].push_back((s.submit_update_pipelined(&u)?, u));
                sent += 1;
            }
        }
    }
    while inflight.iter().any(|q| !q.is_empty()) {
        for (p, s) in sessions.iter().enumerate() {
            let Some((id, u)) = inflight[p].pop_front() else {
                continue;
            };
            let reply = s.wait_reply(id);
            let at = start.elapsed().as_nanos() as u64;
            let verdict = match &reply {
                Ok(r) => match &r.outcome {
                    Ok(_) => Verdict::AppliedSafe,
                    Err(e) if e.is_busy() => Verdict::Busy,
                    Err(_) => Verdict::Failed,
                },
                Err(e) if e.is_busy() => Verdict::Busy,
                Err(_) => Verdict::Missing,
            };
            verdict.count(&mut tally);
            if verdict.ok() {
                applied.push(u);
                completions.push(at);
            }
            if sent < updates {
                let u = traffic.next_in(p);
                inflight[p].push_back((s.submit_update_pipelined(&u)?, u));
                sent += 1;
            }
        }
    }
    Ok(ClosedLoopLog {
        completions,
        tally,
        applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_common::ids::Edge;
    use risgraph_common::protocol::{BusyCause, WireError};

    #[test]
    fn verdicts_separate_busy_failed_and_wrong_replies() {
        let upd = Op::Update {
            partition: 0,
            update: Update::InsEdge(Edge::new(1, 2, 3)),
        };
        let applied = Response::Applied {
            version: 4,
            safe: true,
            result_changes: 0,
        };
        let failed = Response::Failed {
            version: 4,
            error: WireError::from_error(&Error::EdgeNotFound(Edge::new(1, 2, 3))),
        };
        let busy = Response::Busy {
            cause: BusyCause::InflightBudget,
            message: "full".into(),
        };
        assert_eq!(Verdict::of(&upd, &applied), Verdict::AppliedSafe);
        assert_eq!(Verdict::of(&upd, &failed), Verdict::Failed);
        assert_eq!(Verdict::of(&upd, &busy), Verdict::Busy);
        assert_eq!(Verdict::of(&upd, &Response::Value(1)), Verdict::Wrong);
        assert_eq!(Verdict::of(&Op::GetValue(3), &applied), Verdict::Wrong);
        assert_eq!(
            Verdict::of(&Op::GetModified, &Response::Modified(vec![])),
            Verdict::Answered
        );

        let mut t = Tally::default();
        for v in [
            Verdict::AppliedSafe,
            Verdict::Answered,
            Verdict::Failed,
            Verdict::Busy,
            Verdict::Missing,
            Verdict::Wrong,
        ] {
            v.count(&mut t);
        }
        assert_eq!(t.attempted, 6);
        assert_eq!(t.failures(), 4);
    }
}
