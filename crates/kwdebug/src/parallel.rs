//! Work-stealing parallel probe executor with a shared concurrent memo.
//!
//! EMBANKS probes are embarrassingly parallel *within* an inference
//! frontier: two nodes on the same lattice level are never
//! ancestor/descendant of each other, so neither's verdict can classify the
//! other through rule R1 or R2 — their probes commute. This module exploits
//! exactly that slack and nothing more: traversal strategies emit *waves* of
//! independent nodes, the traversal's one wave loop reserves each probe in
//! visit order and submits it to the *pooled executor* here, which fans the
//! wave over a fixed pool of worker threads and hands every verdict back to
//! the loop. The loop applies R1/R2 inference centrally, in slot order, once
//! the wave drains. Between waves the world is sequential again, which is
//! what makes the output — the [`crate::report::DebugReport`] and every
//! probe counter, even order-sensitive ones like `memo_hits` — the same as
//! the inline executor's under probe-count budgets.
//!
//! See DESIGN.md §8 ("Concurrency model") for the full invariant catalog;
//! the short form:
//!
//! * **Wave independence** — a wave only ever contains nodes no verdict in
//!   the same wave could classify. Strategies, not the executor, are
//!   responsible for this (it is a property of their emission order).
//! * **Deterministic accounting** — the wave loop consults the memo and
//!   reserves budget slots in visit order *before* submitting; workers only
//!   execute already-reserved probes. A whole wave is reserved before any
//!   of it executes, so a tuple cap (checked at reservation) can trip later
//!   here than inline; probe-count caps trip at the same node.
//! * **Central inference** — workers never touch traversal state; the loop
//!   applies verdicts (and R1/R2 closure) after the wave drains.
//!
//! The pool uses plain [`std::thread`] scoped threads — no dependencies —
//! with one deque per worker: owners pop from the front, idle workers steal
//! from the back of a victim's deque (counted in the `steals` metric).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, PoisonError};

use relengine::ExecStats;

use crate::lattice::NodeId;
use crate::metrics::Metrics;
use crate::oracle::{Probe, ProbeEngine};
use crate::traversal::{ProbeCtx, ProbeExecutor};

/// Number of lock stripes in a [`ShardedMemo`]. Power of two so the shard
/// of a node is a mask away; 16 stripes keeps contention negligible for any
/// worker count this crate will ever run.
const MEMO_SHARDS: usize = 16;

/// A lock-striped concurrent verdict memo, shared by every probing thread.
///
/// Verdicts are ground truth — a node's query either returns tuples or it
/// does not — so double-inserting the same node is idempotent and the map
/// needs no cross-shard coordination. Lock striping (a `Mutex<HashMap>` per
/// shard, nodes assigned by `node & (shards - 1)`) keeps writers on
/// different lattice regions from serializing behind one lock.
pub struct ShardedMemo {
    shards: Vec<Mutex<HashMap<NodeId, bool>>>,
}

impl ShardedMemo {
    /// An empty memo with the default stripe count.
    pub fn new() -> ShardedMemo {
        ShardedMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, node: NodeId) -> &Mutex<HashMap<NodeId, bool>> {
        &self.shards[node as usize & (MEMO_SHARDS - 1)]
    }

    /// The memoized verdict of `node`, if any.
    pub fn get(&self, node: NodeId) -> Option<bool> {
        self.shard(node).lock().unwrap().get(&node).copied()
    }

    /// Records a verdict (idempotent; verdicts never change).
    pub fn insert(&self, node: NodeId, alive: bool) {
        self.shard(node).lock().unwrap().insert(node, alive);
    }

    /// Total number of memoized verdicts, for tests and reports.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no verdict has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ShardedMemo {
    fn default() -> Self {
        ShardedMemo::new()
    }
}

/// One probe handed to the pool: which wave slot it fills and which dense
/// node to execute. The budget slot is already reserved by the wave loop.
struct Job {
    slot: usize,
    dense: usize,
}

/// A worker's answer for one job.
struct Completion {
    slot: usize,
    probe: Probe,
}

/// Shared pool state: per-worker job deques plus a pending/shutdown latch.
struct PoolState {
    queues: Vec<Mutex<VecDeque<Job>>>,
    latch: Mutex<Latch>,
    wake: Condvar,
}

struct Latch {
    /// Jobs enqueued but not yet picked up by any worker.
    pending: usize,
    shutdown: bool,
}

impl PoolState {
    fn new(workers: usize) -> PoolState {
        PoolState {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            latch: Mutex::new(Latch { pending: 0, shutdown: false }),
            wake: Condvar::new(),
        }
    }

    /// Pushes a job onto worker `w`'s deque and wakes a sleeper.
    fn push(&self, w: usize, job: Job) {
        // Increment `pending` BEFORE the job becomes visible in a deque: a
        // worker that claims it decrements immediately, and claiming can
        // only happen after the push, so the counter can never underflow.
        // (A scanner that sees `pending > 0` before the job lands simply
        // rescans the deques.)
        self.latch.lock().unwrap().pending += 1;
        self.queues[w].lock().unwrap().push_back(job);
        self.wake.notify_all();
    }

    /// Takes the next job for worker `w`: own deque front first, then steal
    /// from the back of another worker's deque, else sleep until work or
    /// shutdown. `None` means shutdown.
    fn take(&self, w: usize, metrics: &Metrics) -> Option<Job> {
        loop {
            if let Some(job) = self.queues[w].lock().unwrap().pop_front() {
                self.decr_pending();
                return Some(job);
            }
            for victim in (0..self.queues.len()).filter(|&v| v != w) {
                if let Some(job) = self.queues[victim].lock().unwrap().pop_back() {
                    self.decr_pending();
                    metrics.steals.incr();
                    return Some(job);
                }
            }
            let mut latch = self.latch.lock().unwrap();
            loop {
                if latch.shutdown {
                    return None;
                }
                if latch.pending > 0 {
                    break; // something appeared; race back to the deques
                }
                latch = self.wake.wait(latch).unwrap();
            }
        }
    }

    fn decr_pending(&self) {
        let mut latch = self.latch.lock().unwrap();
        latch.pending -= 1;
    }

    /// Tells every worker to exit. Runs from `Drop`, so a poisoned latch is
    /// recovered rather than panicked on; raising the flag is valid in any
    /// state.
    fn shutdown(&self) {
        self.latch.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.wake.notify_all();
    }
}

/// The pooled executor: submits go round-robin onto the worker deques and
/// `finish_wave` blocks until every one of them has completed.
struct Pooled<'p> {
    pool: &'p PoolState,
    done: mpsc::Receiver<Completion>,
    next_worker: usize,
    in_flight: usize,
}

impl ProbeExecutor for Pooled<'_> {
    fn submit(&mut self, slot: usize, dense: usize) -> Option<Probe> {
        self.pool.push(self.next_worker, Job { slot, dense });
        self.next_worker = (self.next_worker + 1) % self.pool.queues.len();
        self.in_flight += 1;
        None
    }

    fn finish_wave(&mut self, deliver: &mut dyn FnMut(usize, Probe)) {
        for _ in 0..std::mem::take(&mut self.in_flight) {
            let c = self.done.recv().expect("worker pool hung up mid-wave");
            deliver(c.slot, c.probe);
        }
    }
}

impl Drop for Pooled<'_> {
    /// Releases the workers however the traversal ended — an unwinding
    /// panic included — so the scope that joins them can never hang.
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

/// Runs `body` with a pooled executor of `workers` threads, each probing on
/// its own engine, then folds every worker engine's statistics into
/// `engine` (the oracle's own) so its query count covers the pool.
pub(crate) fn with_pool<R>(
    ctx: ProbeCtx<'_, '_>,
    engine: &mut ProbeEngine<'_>,
    workers: usize,
    body: impl FnOnce(&mut dyn ProbeExecutor) -> R,
) -> R {
    let core = ctx.core;
    core.metrics.workers.add(workers as u64);
    let pool = PoolState::new(workers);
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let (result, worker_stats) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let pool = &pool;
                let done = done_tx.clone();
                scope.spawn(move || {
                    let mut engine = core.make_engine(w as u64);
                    while let Some(job) = pool.take(w, &core.metrics) {
                        let probe = ctx.execute(&mut engine, job.dense);
                        if done.send(Completion { slot: job.slot, probe }).is_err() {
                            break;
                        }
                    }
                    engine.stats().clone()
                })
            })
            .collect();
        drop(done_tx);
        let mut exec = Pooled { pool: &pool, done: done_rx, next_worker: 0, in_flight: 0 };
        let result = body(&mut exec);
        drop(exec);
        let stats: Vec<ExecStats> =
            handles.into_iter().map(|h| h.join().expect("probe worker panicked")).collect();
        (result, stats)
    });
    for stats in &worker_stats {
        engine.absorb_stats(stats);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_round_trips_verdicts() {
        let memo = ShardedMemo::new();
        assert!(memo.is_empty());
        assert_eq!(memo.get(7), None);
        memo.insert(7, true);
        memo.insert(23, false); // 23 & 15 == 7: same shard as node 7
        memo.insert(7, true); // idempotent re-insert
        assert_eq!(memo.get(7), Some(true));
        assert_eq!(memo.get(23), Some(false));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn memo_is_consistent_under_concurrent_writers() {
        let memo = ShardedMemo::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let memo = &memo;
                scope.spawn(move || {
                    for n in 0..64u32 {
                        memo.insert(n, n % 2 == 0);
                        let _ = memo.get((n + t) % 64);
                    }
                });
            }
        });
        assert_eq!(memo.len(), 64);
        for n in 0..64u32 {
            assert_eq!(memo.get(n), Some(n % 2 == 0));
        }
    }
}
