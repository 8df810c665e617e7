//! Group commit: many submitting threads, one log writer, one fsync and one
//! epoch publish per batch.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use super::*;

/// Batching and backpressure policy of a [`CommitQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitQueuePolicy {
    /// Most transactions one fsync batch may carry (≥ 1).
    pub max_batch: usize,
    /// Bounded queue depth (≥ 1): submissions beyond this many waiting
    /// transactions block ([`CommitQueue::submit`]) or fail typed
    /// ([`CommitQueue::try_submit`]) — never grow the queue unboundedly.
    pub max_queue: usize,
    /// After the first transaction of a batch arrives, how long the log
    /// writer lingers for the batch to fill before syncing what it has.
    /// Zero drains greedily (batching still emerges under load).
    pub max_wait: Duration,
}

impl Default for CommitQueuePolicy {
    fn default() -> Self {
        CommitQueuePolicy { max_batch: 32, max_queue: 128, max_wait: Duration::ZERO }
    }
}

/// Aggregate group-commit counters, kept on the queue's ledger and snapshot
/// via [`CommitQueue::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Batches the log writer drained.
    pub batches: u64,
    /// Transactions committed (receipt delivered).
    pub commits: u64,
    /// Batches whose single fsync landed.
    pub syncs: u64,
    /// Batches whose fsync kept failing after bounded retries — their
    /// commits were acknowledged volatile and the tail retried later.
    pub sync_failures: u64,
    /// Largest batch a single fsync covered.
    pub max_batch: u64,
    /// Deepest the queue ever got.
    pub max_queue_depth: u64,
    /// Submitters that had to block on a full queue.
    pub backpressure_waits: u64,
    /// Transactions rejected with a typed error (validation, crash, …).
    pub rejected: u64,
}

impl GroupCommitStats {
    /// Committed transactions per successful fsync — the amortization group
    /// commit exists for (1.0 means no batching happened).
    pub fn fsync_amortization(&self) -> f64 {
        if self.syncs == 0 {
            0.0
        } else {
            self.commits as f64 / self.syncs as f64
        }
    }
}

/// Why a submission did not come back with a [`CommitReceipt`].
#[derive(Debug, Clone, PartialEq)]
pub enum CommitError {
    /// The queue is at [`CommitQueuePolicy::max_queue`] and the caller asked
    /// not to wait ([`CommitQueue::try_submit`]).
    Backpressure {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The caller's deadline expired. If it expired *after* the transaction
    /// was enqueued, the transaction may still commit — the receipt is lost,
    /// not the write (ordinary lost-ack semantics).
    Timeout {
        /// How long the caller waited.
        waited: Duration,
    },
    /// The queue has shut down (or its writer died); nothing was enqueued.
    Closed,
    /// The log writer rejected or failed the transaction itself.
    Rejected(DurabilityError),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Backpressure { depth } => {
                write!(f, "commit queue full ({depth} transactions waiting)")
            }
            CommitError::Timeout { waited } => {
                write!(f, "commit timed out after {waited:?}")
            }
            CommitError::Closed => write!(f, "commit queue is closed"),
            CommitError::Rejected(e) => write!(f, "transaction rejected: {e}"),
        }
    }
}

impl std::error::Error for CommitError {}

enum SlotState {
    Waiting,
    Done(Result<CommitReceipt, CommitError>),
}

/// One submission's receipt slot: the submitter parks on `cv` until the log
/// writer fills `state`.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot { state: Mutex::new(SlotState::Waiting), cv: Condvar::new() }
    }

    fn fill(&self, result: Result<CommitReceipt, CommitError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = SlotState::Done(result);
        self.cv.notify_all();
    }
}

struct QueueInner {
    queue: VecDeque<(Vec<MaintenanceOp>, Arc<Slot>)>,
    closed: bool,
    stats: GroupCommitStats,
}

struct QueueShared {
    inner: Mutex<QueueInner>,
    /// Signaled when the queue gains work or closes (log writer waits here).
    work: Condvar,
    /// Signaled when the queue drains below capacity (submitters wait here).
    space: Condvar,
}

impl QueueShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        // Poison-proof: queue state is only mutated under short, non-panicking
        // critical sections; taking the inner value keeps submitters alive if
        // the writer thread dies mid-batch elsewhere.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Multi-producer group commit over a [`DurableDb`]: any number of client
/// threads [`CommitQueue::submit`] transactions, one dedicated log writer
/// drains them in bounded batches, appends and applies each, then spends
/// **one** fsync and **one** epoch publish on the whole batch
/// ([`DurableDb::apply_batch`]). The queue is bounded: beyond
/// [`CommitQueuePolicy::max_queue`] waiting transactions, submitters block
/// (with optional deadline) or get [`CommitError::Backpressure`] — typed
/// errors, never a panic, never an unbounded queue.
///
/// Durability remains prefix-closed across crashes: appends are serial in
/// submission order and each batch shares a single fsync, so the set of
/// transactions recovery replays is always a prefix of the acknowledged
/// order (`tests/group_commit.rs` drives this property through every batch
/// boundary and torn-fsync cut).
pub struct CommitQueue {
    shared: Arc<QueueShared>,
    policy: CommitQueuePolicy,
    reader: EpochReader,
    writer: Option<std::thread::JoinHandle<DurableDb>>,
}

impl CommitQueue {
    /// Takes ownership of `db` and starts the dedicated log-writer thread.
    ///
    /// # Panics
    /// Panics if `policy.max_batch` or `policy.max_queue` is zero.
    pub fn start(db: DurableDb, policy: CommitQueuePolicy) -> CommitQueue {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        assert!(policy.max_queue >= 1, "max_queue must be at least 1");
        let reader = db.reader();
        let shared = Arc::new(QueueShared {
            inner: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                closed: false,
                stats: GroupCommitStats::default(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        });
        let writer_shared = shared.clone();
        let writer = std::thread::Builder::new()
            .name("pcube-group-commit".to_string())
            .spawn(move || writer_loop(db, writer_shared, policy))
            .expect("spawning the group-commit writer thread failed");
        CommitQueue { shared, policy, reader, writer: Some(writer) }
    }

    /// A snapshot-isolation handle: readers pin epochs published by the log
    /// writer without ever blocking on the queue.
    pub fn reader(&self) -> EpochReader {
        self.reader.clone()
    }

    /// Submits one transaction and blocks — through backpressure if the
    /// queue is full — until the log writer delivers its receipt.
    pub fn submit(&self, ops: Vec<MaintenanceOp>) -> Result<CommitReceipt, CommitError> {
        self.enqueue(ops, None, true)
    }

    /// [`CommitQueue::submit`] with a deadline covering both the
    /// backpressure wait and the receipt wait.
    pub fn submit_timeout(
        &self,
        ops: Vec<MaintenanceOp>,
        timeout: Duration,
    ) -> Result<CommitReceipt, CommitError> {
        self.enqueue(ops, Some(Instant::now() + timeout), true)
    }

    /// Non-blocking admission: fails fast with [`CommitError::Backpressure`]
    /// when the queue is full (the receipt wait, after admission, still
    /// blocks — the writer always delivers).
    pub fn try_submit(&self, ops: Vec<MaintenanceOp>) -> Result<CommitReceipt, CommitError> {
        self.enqueue(ops, None, false)
    }

    /// Current group-commit counters.
    pub fn stats(&self) -> GroupCommitStats {
        self.shared.lock().stats
    }

    /// Closes the queue, drains what was already admitted, joins the log
    /// writer and hands the database back.
    ///
    /// # Panics
    /// Panics if the log-writer thread itself panicked (a bug, not an
    /// injected fault — every injected fault surfaces as a typed error).
    pub fn shutdown(mut self) -> DurableDb {
        self.close();
        let writer = self.writer.take().expect("shutdown on a queue already shut down");
        writer.join().expect("group-commit writer panicked")
    }

    fn close(&self) {
        let mut inner = self.shared.lock();
        inner.closed = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }

    fn enqueue(
        &self,
        ops: Vec<MaintenanceOp>,
        deadline: Option<Instant>,
        block: bool,
    ) -> Result<CommitReceipt, CommitError> {
        let slot = Arc::new(Slot::new());
        let start = Instant::now();
        {
            let mut inner = self.shared.lock();
            if inner.closed {
                return Err(CommitError::Closed);
            }
            let max_queue = self.policy.max_queue;
            if inner.queue.len() >= max_queue {
                if !block {
                    return Err(CommitError::Backpressure { depth: inner.queue.len() });
                }
                inner.stats.backpressure_waits += 1;
                while inner.queue.len() >= max_queue && !inner.closed {
                    match deadline {
                        None => {
                            inner = self
                                .shared
                                .space
                                .wait(inner)
                                .unwrap_or_else(|e| e.into_inner());
                        }
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                return Err(CommitError::Timeout { waited: start.elapsed() });
                            }
                            inner = self
                                .shared
                                .space
                                .wait_timeout(inner, d - now)
                                .unwrap_or_else(|e| e.into_inner())
                                .0;
                        }
                    }
                }
                if inner.closed {
                    return Err(CommitError::Closed);
                }
            }
            inner.queue.push_back((ops, slot.clone()));
            let depth = inner.queue.len() as u64;
            inner.stats.max_queue_depth = inner.stats.max_queue_depth.max(depth);
            self.shared.work.notify_one();
        }

        // Park until the log writer fills the receipt slot.
        let mut state = slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let SlotState::Done(result) = &*state {
                return result.clone();
            }
            match deadline {
                None => {
                    state = slot.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Enqueued but unacked: the writer may still commit
                        // it — a lost ack, not a lost write.
                        return Err(CommitError::Timeout { waited: start.elapsed() });
                    }
                    state = slot
                        .cv
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }

}

impl Drop for CommitQueue {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.close();
            let _ = writer.join();
        }
    }
}

/// The dedicated log-writer loop: wait for work, linger up to
/// `policy.max_wait` for the batch to fill, drain at most
/// `policy.max_batch`, apply the batch with one fsync + one publish, fill
/// the receipt slots, then handle between-batch policy work (checkpoints,
/// poison shutdown).
fn writer_loop(
    mut db: DurableDb,
    shared: Arc<QueueShared>,
    policy: CommitQueuePolicy,
) -> DurableDb {
    loop {
        let batch: Vec<(Vec<MaintenanceOp>, Arc<Slot>)> = {
            let mut inner = shared.lock();
            loop {
                if !inner.queue.is_empty() {
                    break;
                }
                if inner.closed {
                    return db;
                }
                inner = shared.work.wait(inner).unwrap_or_else(|e| e.into_inner());
            }
            if policy.max_wait > Duration::ZERO {
                let fill_deadline = Instant::now() + policy.max_wait;
                while inner.queue.len() < policy.max_batch && !inner.closed {
                    let now = Instant::now();
                    if now >= fill_deadline {
                        break;
                    }
                    let (guard, timed_out) = shared
                        .work
                        .wait_timeout(inner, fill_deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    inner = guard;
                    if timed_out.timed_out() {
                        break;
                    }
                }
            }
            let n = inner.queue.len().min(policy.max_batch);
            let batch: Vec<_> = inner.queue.drain(..n).collect();
            inner.stats.batches += 1;
            inner.stats.max_batch = inner.stats.max_batch.max(n as u64);
            batch
        };
        shared.space.notify_all();

        let txns: Vec<Vec<MaintenanceOp>> = batch.iter().map(|(ops, _)| ops.clone()).collect();
        let results = db.apply_batch(&txns);

        {
            let mut inner = shared.lock();
            let committed = results.iter().filter(|r| r.is_ok()).count() as u64;
            let durable = results
                .iter()
                .any(|r| matches!(r, Ok(receipt) if receipt.durable));
            inner.stats.commits += committed;
            inner.stats.rejected += results.len() as u64 - committed;
            if durable {
                inner.stats.syncs += 1;
            } else if committed > 0 {
                inner.stats.sync_failures += 1;
            }
        }

        for ((_, slot), result) in batch.into_iter().zip(results) {
            slot.fill(result.map_err(CommitError::Rejected));
        }

        if db.poisoned().is_some() {
            // The simulated crash killed the instance: fail everything still
            // queued, close, and let shutdown() hand the corpse back for the
            // harness to recover from.
            let mut inner = shared.lock();
            inner.closed = true;
            for (_, slot) in inner.queue.drain(..) {
                slot.fill(Err(CommitError::Closed));
            }
            shared.space.notify_all();
        } else if db.should_auto_checkpoint() {
            if let Err(e) = db.checkpoint() {
                // A WalSync failure leaves the tail pending for the next
                // batch's fsync; a crash is caught by the poison check above
                // on the next iteration. Either way: typed, never a panic.
                debug_assert!(
                    matches!(
                        e,
                        DurabilityError::WalSync { .. } | DurabilityError::Crashed { .. }
                    ),
                    "unexpected checkpoint failure: {e}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::seed_relation;
    use super::*;

    #[test]
    fn commit_queue_batches_submissions_from_many_threads() {
        let db = DurableDb::create(seed_relation(64), &PCubeConfig::default(), DurabilityOptions::default());
        let queue = CommitQueue::start(
            db,
            CommitQueuePolicy { max_batch: 8, max_queue: 16, max_wait: Duration::from_millis(2) },
        );
        let reader = queue.reader();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let queue = &queue;
                scope.spawn(move || {
                    for i in 0..8u64 {
                        let k = t * 8 + i;
                        let receipt = queue
                            .submit(vec![MaintenanceOp::Insert {
                                codes: vec![(k % 3) as u32, (k % 2) as u32],
                                coords: vec![
                                    (k as f64 * 0.137).fract(),
                                    (k as f64 * 0.291).fract(),
                                ],
                            }])
                            .expect("submit");
                        assert!(receipt.durable);
                    }
                });
            }
        });
        let stats = queue.stats();
        assert_eq!(stats.commits, 32);
        assert_eq!(stats.rejected, 0);
        assert!(stats.batches <= 32);
        let epoch_seen = reader.epoch();
        let db = queue.shutdown();
        assert_eq!(db.applied_txns(), 32);
        assert_eq!(db.durable_txns(), 32);
        assert!(epoch_seen <= db.epoch());
        assert_eq!(db.live_tuples(), 64 + 32);
    }

    #[test]
    fn commit_queue_backpressure_is_typed_never_a_panic() {
        // A writer throttled by a 200µs-per-fsync device, a queue of depth 1:
        // try_submit from a second thread while the queue is busy must see
        // Backpressure, and a zero-deadline submit must see Timeout.
        let opts = DurabilityOptions { fsync_delay_us: 200, ..DurabilityOptions::default() };
        let db = DurableDb::create(seed_relation(48), &PCubeConfig::default(), opts);
        let queue = CommitQueue::start(
            db,
            CommitQueuePolicy { max_batch: 1, max_queue: 1, max_wait: Duration::ZERO },
        );
        let insert = |k: u64| {
            vec![MaintenanceOp::Insert {
                codes: vec![(k % 3) as u32, (k % 2) as u32],
                coords: vec![(k as f64 * 0.137).fract(), (k as f64 * 0.291).fract()],
            }]
        };
        let mut backpressured = 0u64;
        let mut timed_out = 0u64;
        std::thread::scope(|scope| {
            let queue = &queue;
            let flood = scope.spawn(move || {
                for k in 0..32 {
                    queue.submit(insert(k)).expect("flood submit");
                }
            });
            for k in 100..200 {
                match queue.try_submit(insert(k)) {
                    Ok(_) => {}
                    Err(CommitError::Backpressure { .. }) => backpressured += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
                match queue.submit_timeout(insert(1000 + k), Duration::ZERO) {
                    Ok(_) => {}
                    Err(CommitError::Timeout { .. }) => timed_out += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            flood.join().expect("flood thread");
        });
        assert!(backpressured > 0, "depth-1 queue under flood must push back");
        assert!(timed_out > 0, "zero deadline must time out under flood");
        let stats = queue.stats();
        assert!(stats.max_queue_depth <= 1);
        let db = queue.shutdown();
        assert!(db.poisoned().is_none());
        // Closed-queue submissions are typed too.
    }

    #[test]
    fn commit_queue_rejects_after_shutdown_and_drains_admitted_work() {
        let db = DurableDb::create(seed_relation(32), &PCubeConfig::default(), DurabilityOptions::default());
        let queue = CommitQueue::start(db, CommitQueuePolicy::default());
        let receipt = queue
            .submit(vec![MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.5, 0.5] }])
            .expect("submit");
        assert!(receipt.durable);
        let db = queue.shutdown();
        assert_eq!(db.applied_txns(), 1);

        let queue = CommitQueue::start(db, CommitQueuePolicy::default());
        queue.close();
        let err = queue
            .submit(vec![MaintenanceOp::Insert { codes: vec![0, 0], coords: vec![0.1, 0.1] }])
            .expect_err("closed queue");
        assert!(matches!(err, CommitError::Closed));
        let db = queue.shutdown();
        assert_eq!(db.applied_txns(), 1);
    }
}
