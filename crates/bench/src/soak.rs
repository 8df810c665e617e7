//! The chaos soak's one harness, run by the root package's `soak_chaos`
//! suite and by `soak_bench`: the clean oracles of a seeded [`mix`], the
//! seeded read faults of both signature pagers, the outcome tally, and the
//! audit every answer passes. Each caller keeps its own governance
//! (budgets, cancellations, admission) and its own verdict: the suite
//! panics on the first failed audit, the bench counts them and exits
//! non-zero.

use crate::mix::{mix, Case, Row};
use pcube_core::{ClassOutcome, PCubeDb, ParallelOptions, QueryOutcome, StopReason};
use pcube_storage::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many soak queries ended each way; shared by the client threads.
#[derive(Debug, Default)]
pub struct Tally([AtomicU64; 5]);

impl Tally {
    /// Counts how one query ended.
    pub fn record(&self, outcome: &QueryOutcome) {
        let at = match outcome.partial_reason() {
            None => 0,
            Some(StopReason::DeadlineExceeded) => 1,
            Some(StopReason::BlockBudgetExceeded) => 2,
            Some(StopReason::HeapCapExceeded) => 3,
            Some(StopReason::Cancelled) => 4,
        };
        self.0[at].fetch_add(1, Ordering::Relaxed);
    }

    /// `[complete, deadline, blocks, heap, cancelled]`: the queries that
    /// completed, and those stopped by a deadline, a block budget, a heap
    /// cap and a cancellation.
    pub fn counts(&self) -> [u64; 5] {
        self.0.each_ref().map(|c| c.load(Ordering::Relaxed))
    }
}

/// `n` cases of the mix seeded by `seed`, each beside its clean oracle: the
/// answer of a serial run without a budget. Call it before [`arm_faults`].
pub fn cases(db: &PCubeDb, n: usize, seed: u64) -> Vec<(Case, Vec<Row>)> {
    mix(db.relation(), n, seed)
        .into_iter()
        .map(|case| {
            let oracle = case.run(db, ParallelOptions::default()).rows;
            (case, oracle)
        })
        .collect()
}

/// Arms seeded read errors on both signature pagers: 30 % of signature-page
/// reads fail (plan seed `seed ^ 0xC4A0`) and 20 % of directory-page reads
/// (`seed ^ 0x0D1E`).
pub fn arm_faults(db: &mut PCubeDb, seed: u64) {
    let store = db.signature_store_mut();
    store.sig_pager_mut().set_fault_plan(FaultPlan::seeded(seed ^ 0xC4A0).with_read_errors(0.3));
    store.dir_pager_mut().set_fault_plan(FaultPlan::seeded(seed ^ 0x0D1E).with_read_errors(0.2));
}

/// Audits one answer of `case` against its clean oracle: every answer's
/// books pass [`Case::check_progress`]; a complete answer equals the
/// oracle, and a partial one keeps its class's guarantee
/// ([`Case::check_partial`]). `serial` says which engine answered.
pub fn audit(
    db: &PCubeDb,
    case: &Case,
    oracle: &[Row],
    out: &ClassOutcome<Row>,
    serial: bool,
) -> Result<(), String> {
    case.check_progress(&out.stats, out.rows.len(), serial)?;
    match out.stats.outcome {
        QueryOutcome::Complete if out.rows != oracle => Err(format!(
            "complete answer ({} rows) differs from the clean oracle ({} rows)",
            out.rows.len(),
            oracle.len()
        )),
        QueryOutcome::Complete => Ok(()),
        QueryOutcome::Partial { .. } => case.check_partial(db, &out.rows, oracle, serial),
    }
}
