//! Snapshot-isolated maintenance under concurrency: one writer thread
//! interleaves insert/delete transactions (and checkpoints) while eight
//! reader threads hammer `par_*` queries through [`EpochReader`] handles.
//!
//! The isolation contract checked here:
//!
//! * every reader answer is **bit-identical** to a brute-force oracle
//!   computed over the reader's own pinned snapshot — i.e. the answer always
//!   corresponds to a pre- or post-transaction state, never a torn one;
//! * re-running the same query on the same pinned snapshot returns the
//!   identical answer, no matter how many commits landed in between;
//! * epochs observed by each reader never go backwards;
//! * the writer never blocks on readers — it completes its whole workload
//!   while readers are continuously querying.

#[path = "support/durable.rs"]
mod durable;

use durable::seed_relation;
use pcube::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SEED_ROWS: usize = 256;
const N_TXNS: u64 = 60;
const N_READERS: usize = 8;

/// Canonical form of an answer: sorted `(tid, coordinate bit patterns)` —
/// bit-identical comparison, no float tolerance anywhere.
type Canon = Vec<(u64, Vec<u64>)>;

fn canon(rows: impl IntoIterator<Item = (u64, Vec<f64>)>) -> Canon {
    let mut out: Canon = rows
        .into_iter()
        .map(|(tid, coords)| (tid, coords.iter().map(|c| c.to_bits()).collect()))
        .collect();
    out.sort();
    out
}

/// Brute-force skyline over exactly the tuples live in `db`'s R-tree that
/// satisfy `selection` — the oracle for one pinned snapshot.
fn oracle_skyline(db: &PCubeDb, selection: &Selection) -> Canon {
    let mut rows: Vec<(u64, Vec<f64>)> = Vec::new();
    db.rtree().for_each_tuple(|tid, _, coords| {
        let matches = selection
            .iter()
            .all(|p| db.relation().bool_code(tid, p.dim) == p.value);
        if matches {
            rows.push((tid, coords.to_vec()));
        }
    });
    let dominated = |a: &[f64], b: &[f64]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let skyline: Vec<(u64, Vec<f64>)> = rows
        .iter()
        .filter(|(_, c)| !rows.iter().any(|(_, other)| dominated(other, c)))
        .cloned()
        .collect();
    canon(skyline)
}

#[test]
fn eight_readers_never_observe_a_torn_snapshot() {
    let mut db = DurableDb::create(
        seed_relation(SEED_ROWS),
        &PCubeConfig::default(),
        DurabilityOptions::default(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let selection: Selection = vec![Predicate { dim: 0, value: 1 }];

    let readers: Vec<_> = (0..N_READERS)
        .map(|r| {
            let reader = db.reader();
            let stop = stop.clone();
            let selection = selection.clone();
            std::thread::spawn(move || {
                let mut iterations = 0u64;
                let mut last_epoch = 0u64;
                let opts = ParallelOptions::with_workers(2);
                let skyline = SkylineClass::new(vec![0, 1]);
                while !stop.load(Ordering::Relaxed) {
                    let snap = reader.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "reader {r}: epoch went backwards ({} after {last_epoch})",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();

                    // Alternate the selection to vary the probe shape.
                    let sel: Selection =
                        if iterations.is_multiple_of(2) { selection.clone() } else { Vec::new() };
                    let got = canon(snap.db().par_run(&sel, &skyline, opts.clone()).rows);

                    // Bit-identical to the pinned snapshot's own oracle:
                    // the answer is a pre- or post-transaction state.
                    assert_eq!(
                        got,
                        oracle_skyline(snap.db(), &sel),
                        "reader {r}: answer diverges from its pinned snapshot"
                    );
                    // Stable on the pinned snapshot regardless of commits
                    // landing concurrently.
                    let again = canon(snap.db().par_run(&sel, &skyline, opts.clone()).rows);
                    assert_eq!(got, again, "reader {r}: pinned snapshot changed mid-query");

                    iterations += 1;
                }
                iterations
            })
        })
        .collect();

    // The writer: inserts, deletes, periodic checkpoints — full speed, no
    // coordination with the readers.
    let mut live: BTreeSet<u64> = (0..SEED_ROWS as u64).collect();
    let mut next_tid = SEED_ROWS as u64;
    for t in 0..N_TXNS {
        let base = next_tid;
        let mut ops = Vec::new();
        for j in 0..2u64 {
            let i = t * 2 + j;
            ops.push(MaintenanceOp::Insert {
                codes: vec![(i % 3) as u32, (i % 2) as u32],
                coords: vec![
                    (i as f64 * 0.271 + 0.05).fract(),
                    (i as f64 * 0.413 + 0.11).fract(),
                ],
            });
            live.insert(next_tid);
            next_tid += 1;
        }
        if !t.is_multiple_of(2) {
            let candidates: Vec<u64> = live.iter().copied().filter(|&x| x < base).collect();
            let victim = candidates[(t as usize * 17) % candidates.len()];
            ops.push(MaintenanceOp::Delete { tid: victim });
            live.remove(&victim);
        }
        let receipt = db.apply(&ops).expect("writer apply");
        assert_eq!(receipt.txn, t + 1);
        if (t + 1).is_multiple_of(20) {
            db.checkpoint().expect("writer checkpoint");
        }
    }
    assert_eq!(db.applied_txns(), N_TXNS, "writer was blocked before finishing");

    stop.store(true, Ordering::Relaxed);
    let iterations: Vec<u64> = readers.into_iter().map(|h| h.join().expect("reader panicked")).collect();
    for (r, n) in iterations.iter().enumerate() {
        assert!(*n > 0, "reader {r} never completed an iteration");
    }

    // Readers that pin now see the final state exactly.
    let final_reader = db.reader().snapshot();
    assert_eq!(final_reader.epoch(), db.epoch());
    assert_eq!(
        canon(
            final_reader
                .db()
                .par_run(
                    &Vec::new(),
                    &SkylineClass::new(vec![0, 1]),
                    ParallelOptions::with_workers(4)
                )
                .rows
        ),
        oracle_skyline(db.db(), &Vec::new()),
    );
}
