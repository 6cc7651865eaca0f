//! A small persistent worker pool.
//!
//! Per-update analysis cannot afford to spawn threads per push iteration
//! (the affected area is often a handful of vertices — §7), so the
//! engine keeps a fixed pool alive and dispatches closures to it. The
//! pool is deliberately minimal: `run` executes one job object on all
//! workers and blocks until every worker finishes — exactly the
//! fork-join shape of vertex-/edge-parallel push phases and of the
//! epoch loop's parallel safe phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use risgraph_storage::RangeExecutor;

type Job = Arc<dyn Fn(usize) + Send + Sync>;

enum Msg {
    Run(Job, Sender<()>),
    Stop,
}

/// A fixed-size fork-join worker pool.
pub struct WorkerPool {
    senders: Vec<Sender<Msg>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for worker_id in 0..threads {
            let (tx, rx): (Sender<Msg>, Receiver<Msg>) = unbounded();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("risgraph-worker-{worker_id}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                Msg::Run(job, done) => {
                                    job(worker_id);
                                    let _ = done.send(());
                                }
                                Msg::Stop => break,
                            }
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        WorkerPool { senders, handles }
    }

    /// A pool sized to the machine (the paper uses all hardware threads).
    pub fn with_default_size() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }

    /// Number of workers.
    #[inline]
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Run `job(worker_id)` on every worker; blocks until all complete.
    pub fn run(&self, job: impl Fn(usize) + Send + Sync) {
        // Erase the closure's lifetime: `run` blocks until every worker
        // has finished, so the borrow cannot outlive the call. This is
        // the same contract as `crossbeam::scope`, enforced by the
        // completion channel below.
        let job: Arc<dyn Fn(usize) + Send + Sync> = unsafe {
            std::mem::transmute::<Arc<dyn Fn(usize) + Send + Sync + '_>, Job>(
                Arc::new(job) as Arc<dyn Fn(usize) + Send + Sync + '_>
            )
        };
        let (done_tx, done_rx) = bounded(self.senders.len());
        for tx in &self.senders {
            tx.send(Msg::Run(Arc::clone(&job), done_tx.clone()))
                .expect("worker alive");
        }
        for _ in 0..self.senders.len() {
            done_rx.recv().expect("worker completed");
        }
    }

    /// Split `total` items into contiguous chunks and hand each worker a
    /// stream of chunk ranges via an atomic cursor (dynamic load
    /// balancing — important for skewed frontiers). The closure receives
    /// `(worker_id, range)` so callers can keep per-worker buffers.
    pub fn run_ranges(
        &self,
        total: usize,
        grain: usize,
        f: impl Fn(usize, std::ops::Range<usize>) + Send + Sync,
    ) {
        if total == 0 {
            return;
        }
        let grain = grain.max(1);
        let cursor = AtomicUsize::new(0);
        self.run(|worker| loop {
            let start = cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= total {
                break;
            }
            let end = (start + grain).min(total);
            f(worker, start..end);
        });
    }
}

/// The store's bulk ingest splits its vertex ranges over the pool.
impl RangeExecutor for WorkerPool {
    fn run_ranges(&self, total: usize, grain: usize, f: &(dyn Fn(std::ops::Range<usize>) + Sync)) {
        WorkerPool::run_ranges(self, total, grain, |_, range| f(range));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_workers_run() {
        let pool = WorkerPool::new(4);
        let seen = AtomicU64::new(0);
        pool.run(|id| {
            seen.fetch_or(1 << id, Ordering::SeqCst);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn run_blocks_until_complete() {
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        for _ in 0..10 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn run_ranges_covers_everything_once() {
        let pool = WorkerPool::new(4);
        let total = 10_007;
        let hits: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
        pool.run_ranges(total, 64, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn run_ranges_empty_is_noop() {
        let pool = WorkerPool::new(2);
        pool.run_ranges(0, 16, |_, _| panic!("must not be called"));
    }

    #[test]
    fn borrows_local_state() {
        let pool = WorkerPool::new(2);
        let local = [AtomicU64::new(0), AtomicU64::new(0)];
        pool.run(|id| {
            local[id % 2].fetch_add(1, Ordering::SeqCst);
        });
        let sum: u64 = local.iter().map(|a| a.load(Ordering::SeqCst)).sum();
        assert_eq!(sum, 2);
    }

    #[test]
    fn min_one_thread() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        pool.run(|_| {});
    }
}
