//! The open-loop sender: requests go out at their due times whatever
//! the system does, and every latency is charged from the due time, so
//! a stall delays, and is charged to, every request queued behind it.

use std::io;
use std::time::{Duration, Instant};

/// Where the sender puts encoded requests.
pub trait Sink {
    /// Send `bytes` (one or more encoded requests); may block.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// The instant request `k` was due.
pub fn due_at(start: Instant, due_ns: u64) -> Instant {
    start + Duration::from_nanos(due_ns)
}

/// Latency of a reply arriving at `reply_at` to a request due at
/// `due_ns` after `start`: measured from the due time, never from the
/// moment the sender got round to sending it.
pub fn latency_ns(start: Instant, due_ns: u64, reply_at: Instant) -> u64 {
    reply_at
        .saturating_duration_since(due_at(start, due_ns))
        .as_nanos() as u64
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `prctl` option setting the calling thread's timer slack.
const PR_SET_TIMERSLACK: i32 = 29;

/// Let this thread's sleeps end on time: the default 50 us timer slack
/// would make every request that much late.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches no
    // memory of this process; failure only leaves the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Send `due_ns.len()` requests on schedule: sleep until the next
/// request is due, then encode every request already due with
/// `encode(k, buf)` and write them in one `send`. Returns each
/// request's lateness: how long after its due time it was handed to
/// the sink.
pub fn drive<S: Sink>(
    start: Instant,
    due_ns: &[u64],
    sink: &mut S,
    mut encode: impl FnMut(usize, &mut Vec<u8>),
) -> io::Result<Vec<u64>> {
    tighten_timer_slack();
    let n = due_ns.len();
    let mut late = vec![0u64; n];
    let mut buf = Vec::with_capacity(4096);
    let mut k = 0;
    while k < n {
        let now = Instant::now();
        let due = due_at(start, due_ns[k]);
        if now < due {
            std::thread::sleep(due - now);
            continue;
        }
        buf.clear();
        let mut j = k;
        while j < n && due_at(start, due_ns[j]) <= now {
            encode(j, &mut buf);
            j += 1;
        }
        let handed = Instant::now();
        for (i, l) in late.iter_mut().enumerate().take(j).skip(k) {
            *l = latency_ns(start, due_ns[i], handed);
        }
        sink.send(&buf)?;
        k = j;
    }
    Ok(late)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every request the moment it is written, except that the
    /// write carrying request `stall_on` blocks for `stall` first.
    struct StallingEcho {
        stall_on: u32,
        stall: Duration,
        replies: Vec<(u32, Instant)>,
        stall_end: Option<Instant>,
    }

    impl Sink for StallingEcho {
        fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
            let ids: Vec<u32> = bytes
                .chunks(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            if ids.contains(&self.stall_on) {
                std::thread::sleep(self.stall);
                self.stall_end = Some(Instant::now());
            }
            let at = Instant::now();
            self.replies.extend(ids.into_iter().map(|id| (id, at)));
            Ok(())
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_behind_it() {
        let step_ns = 1_000_000; // one request per millisecond
        let due: Vec<u64> = (0..80u64).map(|k| k * step_ns).collect();
        let mut sink = StallingEcho {
            stall_on: 10,
            stall: Duration::from_millis(30),
            replies: Vec::new(),
            stall_end: None,
        };
        let start = Instant::now();
        let late = drive(start, &due, &mut sink, |k, buf| {
            buf.extend_from_slice(&(k as u32).to_le_bytes())
        })
        .unwrap();
        let stall_end = sink.stall_end.expect("the sink stalled");
        assert_eq!(sink.replies.len(), due.len());
        let mut charged = 0;
        for &(id, at) in &sink.replies {
            let k = id as usize;
            let lat = latency_ns(start, due[k], at);
            let due_k = due_at(start, due[k]);
            if k > 10 && due_k < stall_end {
                // Due while the sink was stuck: waits out the rest of
                // the stall, measured from its due time.
                let owed = (stall_end - due_k).as_nanos() as u64;
                assert!(lat >= owed, "request {k}: {lat} ns < owed {owed} ns");
                // Its send was late by nearly as much (it was sent
                // after the stall, in the catch-up batch).
                assert!(
                    late[k] + 2_000_000 >= owed,
                    "request {k} lateness {}",
                    late[k]
                );
                charged += 1;
            }
        }
        // About 30 requests fell due during the 30 ms stall.
        assert!(
            charged >= 25,
            "only {charged} requests were due during the stall"
        );
        // The first request due after the stall is on time again.
        let after = (0..due.len())
            .find(|&k| due_at(start, due[k]) > stall_end + Duration::from_millis(5))
            .unwrap();
        assert!(
            late[after] < 5_000_000,
            "lateness {} after recovery",
            late[after]
        );
    }

    #[test]
    fn latency_is_measured_from_the_due_time() {
        let start = Instant::now();
        let reply = start + Duration::from_millis(7);
        assert_eq!(latency_ns(start, 2_000_000, reply), 5_000_000);
        // A reply before the due time (cannot happen on a real wire)
        // saturates at zero.
        assert_eq!(latency_ns(start, 9_000_000, reply), 0);
    }
}
