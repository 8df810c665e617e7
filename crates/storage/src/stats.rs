//! I/O accounting: categories, counters and the modeled cost function.
//!
//! The ledger is lock-free: every counter is an [`AtomicU64`] bumped with
//! relaxed ordering, so many query threads can charge I/O to one shared
//! [`IoStats`] concurrently without lost updates (the concurrency stress
//! tests assert exact totals). Snapshots read each counter individually and
//! are therefore not a single atomic cut across categories — per-query
//! deltas taken while other threads run may interleave, which is why the
//! throughput harness verifies *totals*, not per-thread cuts.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kinds of disk access the paper's evaluation distinguishes.
///
/// Figure 9 plots `DBool` (random tuple accesses by the domination-first
/// baseline), `DBlock`/`SBlock` (R-tree block retrievals) and `SSig`
/// (signature page loads). Figures 5/6 additionally involve B+-tree pages and
/// sequential heap-file scans, so those get their own buckets too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoCategory {
    /// R-tree node (block) retrieval.
    RtreeBlock,
    /// Partial-signature page load.
    SignaturePage,
    /// B+-tree page read (boolean-dimension indexes and the signature
    /// directory).
    BptreePage,
    /// Random access to a base-table tuple by tid (boolean verification in
    /// the domination-first baseline).
    TupleRandomAccess,
    /// Sequential heap-file page scan (table-scan alternative of the
    /// boolean-first baseline).
    HeapScan,
}

impl IoCategory {
    /// All categories, in display order.
    pub const ALL: [IoCategory; 5] = [
        IoCategory::RtreeBlock,
        IoCategory::SignaturePage,
        IoCategory::BptreePage,
        IoCategory::TupleRandomAccess,
        IoCategory::HeapScan,
    ];

    fn slot(self) -> usize {
        match self {
            IoCategory::RtreeBlock => 0,
            IoCategory::SignaturePage => 1,
            IoCategory::BptreePage => 2,
            IoCategory::TupleRandomAccess => 3,
            IoCategory::HeapScan => 4,
        }
    }
}

impl fmt::Display for IoCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IoCategory::RtreeBlock => "rtree-block",
            IoCategory::SignaturePage => "signature-page",
            IoCategory::BptreePage => "bptree-page",
            IoCategory::TupleRandomAccess => "tuple-random",
            IoCategory::HeapScan => "heap-scan",
        };
        f.write_str(name)
    }
}

/// The ledger's scalar counters: everything it tallies that is not a page
/// read or write in an [`IoCategory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Signature loads that failed (corrupt or unreadable data) and fell back
    /// to unfiltered traversal. Queries stay correct; only pruning is lost.
    DegradedReads,
    /// WAL fsync attempts that failed transiently and were retried.
    WalRetries,
    /// Total microseconds spent in exponential backoff between WAL fsync
    /// retries. Soak harnesses assert this stays bounded — transient storage
    /// faults must surface as bounded retries, never silent stalls.
    WalBackoffUs,
    /// Pages whose deterministic read failure was memoized in a pager's
    /// quarantine registry (each page counts once per quarantine episode).
    PagesQuarantined,
    /// Reads answered from a quarantine entry in O(1) — the doomed physical
    /// read was skipped, so these do *not* also count as category reads.
    QuarantineHits,
    /// Quarantined pages healed back to service: rewritten with fresh
    /// contents or freed and rebuilt by the repair path.
    PagesRepaired,
}

impl Counter {
    /// All counters, in display order.
    pub const ALL: [Counter; 6] = [
        Counter::DegradedReads,
        Counter::WalRetries,
        Counter::WalBackoffUs,
        Counter::PagesQuarantined,
        Counter::QuarantineHits,
        Counter::PagesRepaired,
    ];

    /// The counter's name as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DegradedReads => "degraded_reads",
            Counter::WalRetries => "wal_retries",
            Counter::WalBackoffUs => "wal_backoff_us",
            Counter::PagesQuarantined => "pages_quarantined",
            Counter::QuarantineHits => "quarantine_hits",
            Counter::PagesRepaired => "pages_repaired",
        }
    }
}

/// Shared, thread-safe I/O ledger.
///
/// One `IoStats` is typically shared (via [`SharedStats`]) by every pager in a
/// database instance, so an experiment can snapshot, run a query, and diff.
/// Counters are atomics; concurrent recording from many query threads never
/// loses an update.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: [AtomicU64; 5],
    writes: [AtomicU64; 5],
    counters: [AtomicU64; Counter::ALL.len()],
}

/// Reference-counted, thread-safe handle to an [`IoStats`] ledger.
pub type SharedStats = Arc<IoStats>;

impl IoStats {
    /// Creates a fresh ledger behind an `Arc`, ready to share between pagers
    /// (and across query threads).
    pub fn new_shared() -> SharedStats {
        Arc::new(IoStats::default())
    }

    /// Records `n` page reads in `category`.
    #[inline]
    pub fn record_reads(&self, category: IoCategory, n: u64) {
        self.reads[category.slot()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page writes in `category`.
    #[inline]
    pub fn record_writes(&self, category: IoCategory, n: u64) {
        self.writes[category.slot()].fetch_add(n, Ordering::Relaxed);
    }

    /// Number of reads recorded in `category`.
    #[inline]
    pub fn reads(&self, category: IoCategory) -> u64 {
        self.reads[category.slot()].load(Ordering::Relaxed)
    }

    /// Number of writes recorded in `category`.
    #[inline]
    pub fn writes(&self, category: IoCategory) -> u64 {
        self.writes[category.slot()].load(Ordering::Relaxed)
    }

    /// Total reads across all categories.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total writes across all categories.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Reads recorded since a `total_reads()` baseline, saturating at
    /// zero. This is the budget-enforcement hook: a query captures
    /// `total_reads()` when it starts and the governor charges it
    /// `reads_since(base)` blocks — on a ledger shared between threads
    /// the delta may include neighbours' reads, so block budgets trip
    /// conservatively early, never late.
    #[inline]
    pub fn reads_since(&self, base: u64) -> u64 {
        self.total_reads().saturating_sub(base)
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The value of `counter` so far.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Copies the current counter values into an owned [`IoSnapshot`].
    ///
    /// Each counter is read independently; while other threads are recording,
    /// the snapshot is not a single atomic cut (totals are still exact once
    /// the recording threads have quiesced).
    pub fn snapshot(&self) -> IoSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoSnapshot {
            reads: std::array::from_fn(|i| load(&self.reads[i])),
            writes: std::array::from_fn(|i| load(&self.writes[i])),
            counters: std::array::from_fn(|i| load(&self.counters[i])),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for c in self.reads.iter().chain(&self.writes).chain(&self.counters) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// An owned copy of the counters, used to measure a single operation by
/// subtracting two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    reads: [u64; 5],
    writes: [u64; 5],
    counters: [u64; Counter::ALL.len()],
}

impl IoSnapshot {
    /// Reads recorded in `category` at snapshot time.
    pub fn reads(&self, category: IoCategory) -> u64 {
        self.reads[category.slot()]
    }

    /// Writes recorded in `category` at snapshot time.
    pub fn writes(&self, category: IoCategory) -> u64 {
        self.writes[category.slot()]
    }

    /// The value of `counter` at snapshot time.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        let sub = |now: u64, then: u64| now.saturating_sub(then);
        IoSnapshot {
            reads: std::array::from_fn(|i| sub(self.reads[i], earlier.reads[i])),
            writes: std::array::from_fn(|i| sub(self.writes[i], earlier.writes[i])),
            counters: std::array::from_fn(|i| sub(self.counters[i], earlier.counters[i])),
        }
    }

    /// Total reads across all categories.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total writes across all categories.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }
}

/// Converts an I/O ledger into modeled seconds.
///
/// The experiments in this repository run entirely in RAM, so raw wall-clock
/// alone would hide the disk behaviour the paper measures (a random tuple
/// access costs the same as a cached read in RAM, but ~10 ms on a 2008-era
/// disk). The cost model charges each access category a configurable latency;
/// figure runners report `cpu_seconds + modeled_io_seconds`.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost of one random page access (seek + rotational delay + transfer).
    pub random_page_seconds: f64,
    /// Cost of one sequentially scanned page.
    pub sequential_page_seconds: f64,
}

impl Default for CostModel {
    /// A 2008-era commodity disk: ~10 ms random access, ~0.1 ms per
    /// sequential 4 KB page (≈ 40 MB/s streaming).
    fn default() -> Self {
        CostModel {
            random_page_seconds: 10e-3,
            sequential_page_seconds: 0.1e-3,
        }
    }
}

impl CostModel {
    /// Modeled seconds for the accesses recorded in `snap`.
    ///
    /// Heap scans are charged the sequential rate; every other category is a
    /// random access. Writes are charged like random reads (the maintenance
    /// experiment, Fig 7, is write-heavy).
    pub fn seconds(&self, snap: &IoSnapshot) -> f64 {
        let mut s = 0.0;
        for cat in IoCategory::ALL {
            let per_page = match cat {
                IoCategory::HeapScan => self.sequential_page_seconds,
                _ => self.random_page_seconds,
            };
            s += (snap.reads(cat) + snap.writes(cat)) as f64 * per_page;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_category() {
        let stats = IoStats::default();
        stats.record_reads(IoCategory::RtreeBlock, 3);
        stats.record_reads(IoCategory::SignaturePage, 1);
        stats.record_writes(IoCategory::BptreePage, 2);
        assert_eq!(stats.reads(IoCategory::RtreeBlock), 3);
        assert_eq!(stats.reads(IoCategory::SignaturePage), 1);
        assert_eq!(stats.reads(IoCategory::BptreePage), 0);
        assert_eq!(stats.writes(IoCategory::BptreePage), 2);
        assert_eq!(stats.total_reads(), 4);
        assert_eq!(stats.total_writes(), 2);
    }

    #[test]
    fn reads_since_is_a_saturating_delta_on_totals() {
        let stats = IoStats::default();
        stats.record_reads(IoCategory::RtreeBlock, 10);
        let base = stats.total_reads();
        assert_eq!(stats.reads_since(base), 0);
        stats.record_reads(IoCategory::SignaturePage, 4);
        stats.record_reads(IoCategory::HeapScan, 2);
        assert_eq!(stats.reads_since(base), 6);
        assert_eq!(stats.reads_since(base + 100), 0, "stale base saturates");
    }

    #[test]
    fn snapshot_diff_isolates_an_operation() {
        let stats = IoStats::default();
        stats.record_reads(IoCategory::RtreeBlock, 10);
        let before = stats.snapshot();
        stats.record_reads(IoCategory::RtreeBlock, 5);
        stats.record_reads(IoCategory::TupleRandomAccess, 7);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.reads(IoCategory::RtreeBlock), 5);
        assert_eq!(delta.reads(IoCategory::TupleRandomAccess), 7);
        assert_eq!(delta.total_reads(), 12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = IoStats::default();
        stats.record_reads(IoCategory::HeapScan, 9);
        stats.record_writes(IoCategory::HeapScan, 9);
        for (n, counter) in Counter::ALL.into_iter().enumerate() {
            stats.add(counter, n as u64 + 1);
        }
        let before = stats.snapshot();
        stats.add(Counter::WalBackoffUs, 40);
        for (n, counter) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(before.get(counter), n as u64 + 1, "{}", counter.name());
            let grew = if counter == Counter::WalBackoffUs { 40 } else { 0 };
            assert_eq!(stats.snapshot().since(&before).get(counter), grew, "{}", counter.name());
        }
        stats.reset();
        assert_eq!(stats.total_reads(), 0);
        assert_eq!(stats.total_writes(), 0);
        assert_eq!(stats.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn cost_model_charges_sequential_scans_less() {
        let stats = IoStats::default();
        stats.record_reads(IoCategory::HeapScan, 100);
        let seq = CostModel::default().seconds(&stats.snapshot());
        stats.reset();
        stats.record_reads(IoCategory::TupleRandomAccess, 100);
        let rand = CostModel::default().seconds(&stats.snapshot());
        assert!(rand > 10.0 * seq, "random {rand} vs sequential {seq}");
    }

    #[test]
    fn concurrent_recording_loses_no_updates() {
        let stats = IoStats::new_shared();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let stats = stats.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        stats.record_reads(IoCategory::RtreeBlock, 1);
                        stats.record_writes(IoCategory::SignaturePage, 1);
                        stats.add(Counter::DegradedReads, 1);
                    }
                });
            }
        });
        assert_eq!(stats.reads(IoCategory::RtreeBlock), threads * per_thread);
        assert_eq!(stats.writes(IoCategory::SignaturePage), threads * per_thread);
        assert_eq!(stats.get(Counter::DegradedReads), threads * per_thread);
    }

    #[test]
    fn category_display_names_are_stable() {
        let names: Vec<String> = IoCategory::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            names,
            ["rtree-block", "signature-page", "bptree-page", "tuple-random", "heap-scan"]
        );
    }
}
