//! Query-lifecycle governance: budgets, cooperative cancellation and
//! partial-result accounting.
//!
//! The branch-and-bound kernel is a pop loop over a candidate heap, which
//! makes the top of that loop a natural *cancellation point*: between two
//! pops no storage handle is held and every data structure is consistent,
//! so stopping there can always surface whatever has been accepted so far
//! as a best-effort partial result. A [`Governor`] is consulted once per
//! pop and trips on the first exhausted resource:
//!
//! * **wall-clock deadline** — checked against `Instant::now()`; because
//!   the check runs every pop, the overshoot past the deadline is bounded
//!   by the duration of a single pop (measured and reported, see
//!   [`Progress::overshoot_seconds`] / [`Progress::max_pop_seconds`]);
//! * **block-I/O budget** — measured in the same §VI units the planner
//!   estimates with, as a delta on the shared [`IoStats`](pcube_storage::IoStats) ledger since the
//!   query began (under concurrency the delta may include neighbours'
//!   reads, so the budget trips conservatively early, never late);
//! * **candidate-heap cap** — bounds the frontier memory; checked at pop
//!   granularity, so it can overshoot by at most one node's fan-out;
//! * **cancellation** — an external [`CancelToken`], plus a fleet-internal
//!   token that lets one parallel worker's trip drain the whole fleet.
//!
//! Queries that stop early report [`QueryOutcome::Partial`] with a typed
//! [`StopReason`] and internally consistent [`Progress`] counters; queries
//! that run to completion report [`QueryOutcome::Complete`] and are
//! bit-identical to an ungoverned run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcube_storage::SharedStats;

/// Resource limits for one query. `Default` (and [`QueryBudget::unlimited`])
/// imposes no limits; builders add individual caps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryBudget {
    deadline: Option<Duration>,
    max_blocks: Option<u64>,
    max_heap: Option<usize>,
}

impl QueryBudget {
    /// A budget with no limits: governed runs behave exactly like
    /// ungoverned ones.
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Caps wall-clock time from the moment the query starts executing.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps block reads (§VI units: R-tree blocks, signature pages,
    /// B+-tree pages, random tuple accesses, heap-scan pages), measured
    /// on the shared I/O ledger from query start.
    pub fn with_block_budget(mut self, max_blocks: u64) -> Self {
        self.max_blocks = Some(max_blocks);
        self
    }

    /// Caps the candidate-heap size (entries, checked per pop).
    pub fn with_heap_cap(mut self, max_heap: usize) -> Self {
        self.max_heap = Some(max_heap);
        self
    }

    /// The wall-clock allowance, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The block-read allowance, if any.
    pub fn max_blocks(&self) -> Option<u64> {
        self.max_blocks
    }

    /// The candidate-heap cap, if any.
    pub fn max_heap(&self) -> Option<usize> {
        self.max_heap
    }

    /// True when no limit is set — governed paths can skip building a
    /// [`Governor`] entirely (absent a cancel token).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_blocks.is_none() && self.max_heap.is_none()
    }
}

/// A shared cancellation flag. Cloning yields another handle to the same
/// flag, so a server thread can keep one handle and hand the other to the
/// query; `cancel()` is observed at the next kernel pop.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once any handle has called [`CancelToken::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Lowers the flag so the token can be reused for the next statement
    /// (the SQL session does this after a cancel has been observed).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

/// Why a governed query stopped before exhausting its search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The block-read budget was spent.
    BlockBudgetExceeded,
    /// The candidate heap reached its cap.
    HeapCapExceeded,
    /// A [`CancelToken`] (external or fleet-internal) was raised.
    Cancelled,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StopReason::DeadlineExceeded => "deadline exceeded",
            StopReason::BlockBudgetExceeded => "block budget exceeded",
            StopReason::HeapCapExceeded => "heap cap exceeded",
            StopReason::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// How far a query got before it stopped. All counters describe work the
/// query actually performed, so they are internally consistent with the
/// accompanying [`QueryStats`](crate::QueryStats) (the soak harness
/// asserts this).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Progress {
    /// Heap entries popped (across all workers, for parallel queries).
    pub pops: u64,
    /// R-tree nodes expanded.
    pub nodes_expanded: u64,
    /// Result rows accepted before the stop.
    pub results_so_far: usize,
    /// Block reads charged to the query on the shared ledger. Under
    /// concurrent load this delta may include neighbours' reads.
    pub blocks_used: u64,
    /// Heap entries abandoned at the stop (the unexplored frontier,
    /// including the entry popped when the governor tripped).
    pub frontier: u64,
    /// Wall-clock seconds past the deadline when the stop was observed
    /// (0 unless the reason is [`StopReason::DeadlineExceeded`]).
    pub overshoot_seconds: f64,
    /// The longest observed gap between two governance checks — one
    /// kernel pop's worth of work. The cooperative-checking contract is
    /// `overshoot_seconds <= max_pop_seconds` (asserted by the soak
    /// harness).
    pub max_pop_seconds: f64,
}

/// Whether a query ran to completion or stopped early under governance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum QueryOutcome {
    /// The search was exhausted; the result is exact and bit-identical to
    /// an ungoverned run.
    #[default]
    Complete,
    /// The query stopped early; the result is a best-effort prefix/subset
    /// (see DESIGN.md §9 for per-engine partial-result semantics).
    Partial {
        /// The resource that tripped.
        reason: StopReason,
        /// Work performed up to the stop.
        progress: Progress,
    },
}

impl QueryOutcome {
    /// True for [`QueryOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, QueryOutcome::Complete)
    }

    /// The stop reason, if the query was cut short.
    pub fn partial_reason(&self) -> Option<StopReason> {
        match self {
            QueryOutcome::Complete => None,
            QueryOutcome::Partial { reason, .. } => Some(*reason),
        }
    }

    /// The progress counters, if the query was cut short.
    pub fn progress(&self) -> Option<&Progress> {
        match self {
            QueryOutcome::Complete => None,
            QueryOutcome::Partial { progress, .. } => Some(progress),
        }
    }
}

/// The per-query enforcement state consulted by the kernel once per pop.
///
/// Built from a [`QueryBudget`] plus optional cancel tokens and a ledger
/// baseline; the check order is cancel → fleet → deadline → blocks →
/// heap, so an explicit cancel always wins the reported reason.
#[derive(Debug)]
pub struct Governor {
    deadline: Option<Instant>,
    max_blocks: Option<u64>,
    max_heap: Option<usize>,
    cancel: Option<CancelToken>,
    fleet: Option<CancelToken>,
    ledger: Option<(SharedStats, u64)>,
    started: Instant,
    last_check: Instant,
    max_pop_seconds: f64,
    overshoot_seconds: f64,
}

impl Governor {
    /// Starts the clock: the deadline (if any) is `budget.deadline()` from
    /// *now*. Attach tokens and a ledger with the `with_*` builders.
    pub fn new(budget: &QueryBudget) -> Self {
        let now = Instant::now();
        Governor {
            deadline: budget.deadline.map(|d| now + d),
            max_blocks: budget.max_blocks,
            max_heap: budget.max_heap,
            cancel: None,
            fleet: None,
            ledger: None,
            started: now,
            last_check: now,
            max_pop_seconds: 0.0,
            overshoot_seconds: 0.0,
        }
    }

    /// Attaches the external cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches the fleet-internal token parallel workers share: when any
    /// worker trips, it raises this token and the rest drain.
    pub fn with_fleet(mut self, fleet: CancelToken) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Attaches the shared I/O ledger and the query's starting read count
    /// (`base`), enabling the block budget: spent = `total_reads − base`.
    pub fn with_ledger(mut self, stats: SharedStats, base: u64) -> Self {
        self.ledger = Some((stats, base));
        self
    }

    /// Overrides the absolute deadline — parallel fleets compute one
    /// instant up front so every worker races the same clock.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// One governance check, called at the top of the kernel pop loop with
    /// the current heap length. Returns the first exhausted resource, or
    /// `None` to continue. Timing syscalls happen only when a deadline is
    /// set.
    pub fn check(&mut self, heap_len: usize) -> Option<StopReason> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(f) = &self.fleet {
            if f.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            let pop = now.saturating_duration_since(self.last_check).as_secs_f64();
            if pop > self.max_pop_seconds {
                self.max_pop_seconds = pop;
            }
            self.last_check = now;
            if now >= deadline {
                // Overshoot is measured from the later of (deadline,
                // query start): with `last_check` seeded at construction
                // and `max_pop_seconds` updated above, it is structurally
                // bounded by one pop's duration.
                let from = if deadline > self.started { deadline } else { self.started };
                self.overshoot_seconds = now.saturating_duration_since(from).as_secs_f64();
                return Some(StopReason::DeadlineExceeded);
            }
        }
        if let (Some((stats, base)), Some(max)) = (&self.ledger, self.max_blocks) {
            if stats.reads_since(*base) > max {
                return Some(StopReason::BlockBudgetExceeded);
            }
        }
        if let Some(cap) = self.max_heap {
            if heap_len >= cap {
                return Some(StopReason::HeapCapExceeded);
            }
        }
        None
    }

    /// Seconds past the deadline at the moment the deadline trip was
    /// observed (0 if no deadline tripped).
    pub fn overshoot_seconds(&self) -> f64 {
        self.overshoot_seconds
    }

    /// Longest observed gap between two checks — the work of one pop.
    pub fn max_pop_seconds(&self) -> f64 {
        self.max_pop_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcube_storage::{IoCategory, IoStats};

    #[test]
    fn unlimited_budget_never_trips() {
        let mut gov = Governor::new(&QueryBudget::unlimited());
        for len in [0usize, 10, 1_000_000] {
            assert_eq!(gov.check(len), None);
        }
    }

    #[test]
    fn cancel_token_wins_over_other_reasons() {
        let cancel = CancelToken::new();
        let mut gov =
            Governor::new(&QueryBudget::unlimited().with_heap_cap(1)).with_cancel(cancel.clone());
        assert_eq!(gov.check(5), Some(StopReason::HeapCapExceeded));
        cancel.cancel();
        assert_eq!(gov.check(5), Some(StopReason::Cancelled));
        cancel.reset();
        assert_eq!(gov.check(0), None);
    }

    #[test]
    fn fleet_token_drains_workers() {
        let fleet = CancelToken::new();
        let mut gov = Governor::new(&QueryBudget::unlimited()).with_fleet(fleet.clone());
        assert_eq!(gov.check(0), None);
        fleet.cancel();
        assert_eq!(gov.check(0), Some(StopReason::Cancelled));
    }

    #[test]
    fn block_budget_measures_ledger_delta_from_base() {
        let stats = IoStats::new_shared();
        stats.record_reads(IoCategory::RtreeBlock, 100); // pre-query noise
        let base = stats.total_reads();
        let mut gov = Governor::new(&QueryBudget::unlimited().with_block_budget(5))
            .with_ledger(stats.clone(), base);
        assert_eq!(gov.check(0), None);
        stats.record_reads(IoCategory::SignaturePage, 5);
        assert_eq!(gov.check(0), None, "exactly at budget is still within it");
        stats.record_reads(IoCategory::BptreePage, 1);
        assert_eq!(gov.check(0), Some(StopReason::BlockBudgetExceeded));
    }

    #[test]
    fn deadline_trips_with_bounded_overshoot() {
        let mut gov = Governor::new(&QueryBudget::unlimited().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(gov.check(0), Some(StopReason::DeadlineExceeded));
        assert!(gov.overshoot_seconds() > 0.0);
        assert!(
            gov.overshoot_seconds() <= gov.max_pop_seconds() + 1e-9,
            "overshoot {} must be bounded by one pop {}",
            gov.overshoot_seconds(),
            gov.max_pop_seconds()
        );
    }

    #[test]
    fn heap_cap_trips_at_cap() {
        let mut gov = Governor::new(&QueryBudget::unlimited().with_heap_cap(8));
        assert_eq!(gov.check(7), None);
        assert_eq!(gov.check(8), Some(StopReason::HeapCapExceeded));
    }

    #[test]
    fn outcome_accessors() {
        assert!(QueryOutcome::Complete.is_complete());
        let p = QueryOutcome::Partial {
            reason: StopReason::Cancelled,
            progress: Progress { pops: 3, ..Progress::default() },
        };
        assert!(!p.is_complete());
        assert_eq!(p.partial_reason(), Some(StopReason::Cancelled));
        assert_eq!(p.progress().map(|pr| pr.pops), Some(3));
    }
}
