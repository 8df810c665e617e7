//! The one mixed workload of the concurrency and robustness harnesses
//! (`serve_bench`, `soak_bench`, and the root package's `contention`,
//! `concurrent_queries` and `soak_chaos` suites): a seeded rotation through
//! all six query classes over preference dimensions 0 and 1.
//!
//! Outside `src/sql.rs` this is the only place that names the classes of a
//! mixed workload; a new class joins the harnesses by gaining an arm in
//! [`ClassSpec`] and in [`Case::run`]. A case runs through the facade's one
//! options call ([`PCubeDb::par_run`]: workers, budget and cancel token in
//! [`ParallelOptions`]), answers in one row type so serial, parallel and
//! oracle answers compare with `==`, and audits a partial answer by the
//! guarantee its class documents. [`drain`] is the client-thread dispatcher the
//! harnesses issue their cases through.

use pcube_core::{
    ClassOutcome, DynamicSkylineClass, HullClass, LinearFn, PCubeDb, PSkylineClass,
    ParallelOptions, PriorityGraph, QueryClass, QueryOutcome, QueryStats, SkylineClass,
    StopReason, SubspaceSkylineClass, TopKClass,
};
use pcube_cube::{Relation, Selection};
use pcube_data::sample_selection;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One answer row in the form every class's row converts to: the tuple, the
/// coordinates the class reports for it, and its score if the class ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Tuple id.
    pub tid: u64,
    /// Reported coordinates (projected for hulls and subspace skylines).
    pub coords: Vec<f64>,
    /// The ranking score (top-k only).
    pub score: Option<f64>,
}

impl From<(u64, Vec<f64>, f64)> for Row {
    fn from((tid, coords, score): (u64, Vec<f64>, f64)) -> Row {
        Row { tid, coords, score: Some(score) }
    }
}

impl From<(u64, Vec<f64>)> for Row {
    fn from((tid, coords): (u64, Vec<f64>)) -> Row {
        Row { tid, coords, score: None }
    }
}

impl From<(u64, [f64; 2])> for Row {
    fn from((tid, coords): (u64, [f64; 2])) -> Row {
        Row { tid, coords: coords.to_vec(), score: None }
    }
}

/// A query class and its parameters.
#[derive(Debug, Clone)]
pub enum ClassSpec {
    /// Top-`k` under a linear function of the two dimensions.
    TopK {
        /// Result size.
        k: usize,
        /// One weight per dimension.
        weights: Vec<f64>,
    },
    /// The static skyline.
    Skyline,
    /// The dynamic skyline around `q`.
    Dynamic {
        /// The query point.
        q: Vec<f64>,
    },
    /// The convex hull.
    Hull,
    /// The prioritized skyline under `edges` (`(a, b)` = `a` OVER `b`).
    PSkyline {
        /// Priority edges.
        edges: Vec<(usize, usize)>,
    },
    /// The skyline of the projection onto `dims`.
    Subspace {
        /// The subspace.
        dims: Vec<usize>,
    },
}

/// One query of the mix.
#[derive(Debug, Clone)]
pub struct Case {
    /// The boolean selection.
    pub selection: Selection,
    /// The preference query over it.
    pub class: ClassSpec,
}

/// `n` cases over `relation`: case `i` is of class `i % 6`, and the
/// predicate count walks 0, 1, 2 shifted by one every round of six, so each
/// class meets each count. The same `(relation, n, seed)` gives the same
/// cases.
pub fn mix(relation: &Relation, n: usize, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let round = i / 6;
            let selection = sample_selection(relation, (i + round) % 3, &mut rng);
            let class = match i % 6 {
                0 => ClassSpec::TopK {
                    k: 3 + i % 16,
                    weights: vec![0.2 + 0.1 * (i % 7) as f64, 0.9 - 0.1 * (i % 5) as f64],
                },
                1 => ClassSpec::Skyline,
                2 => ClassSpec::Dynamic {
                    q: vec![0.1 * (i % 10) as f64, 1.0 - 0.1 * (i % 10) as f64],
                },
                3 => ClassSpec::Hull,
                4 => ClassSpec::PSkyline { edges: vec![[(0, 1), (1, 0)][round % 2]] },
                _ => ClassSpec::Subspace { dims: [vec![0], vec![1], vec![1, 0]][round % 3].clone() },
            };
            Case { selection, class }
        })
        .collect()
}

/// The harnesses' query router: `threads` client threads each take the next
/// index of `0..total` from one counter until none is left, so every index
/// runs exactly once whatever the schedule. Returns what `work` returned,
/// in no particular order.
///
/// # Panics
/// Panics if a client thread panicked.
pub fn drain<T: Send>(threads: usize, total: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break done;
                        }
                        done.push(work(i));
                    }
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
    })
}

fn run_class<C>(
    db: &PCubeDb,
    selection: &Selection,
    class: &C,
    opts: ParallelOptions,
) -> ClassOutcome<Row>
where
    C: QueryClass + Sync,
    C::Row: Into<Row>,
{
    let out = db.par_run(selection, class, opts);
    ClassOutcome { rows: out.rows.into_iter().map(Into::into).collect(), stats: out.stats }
}

impl Case {
    /// The class's short name, as the benchmark's per-class metrics spell it.
    pub fn kind(&self) -> &'static str {
        match self.class {
            ClassSpec::TopK { .. } => "topk",
            ClassSpec::Skyline => "skyline",
            ClassSpec::Dynamic { .. } => "dynamic",
            ClassSpec::Hull => "hull",
            ClassSpec::PSkyline { .. } => "pskyline",
            ClassSpec::Subspace { .. } => "subspace",
        }
    }

    /// Runs the case under `opts`: on the serial engine at `workers <= 1`,
    /// else fanned out. The rows come in the class's canonical order, in
    /// the one row type.
    pub fn run(&self, db: &PCubeDb, opts: ParallelOptions) -> ClassOutcome<Row> {
        let sel = &self.selection;
        match &self.class {
            ClassSpec::TopK { k, weights } => {
                let f = LinearFn::new(weights.clone());
                run_class(db, sel, &TopKClass::new(*k, &f), opts)
            }
            ClassSpec::Skyline => run_class(db, sel, &SkylineClass::new(vec![0, 1]), opts),
            ClassSpec::Dynamic { q } => {
                run_class(db, sel, &DynamicSkylineClass::new(q, vec![0, 1]), opts)
            }
            ClassSpec::Hull => run_class(db, sel, &HullClass::new((0, 1)), opts),
            ClassSpec::PSkyline { edges } => {
                let graph =
                    PriorityGraph::new(vec![0, 1], edges).expect("one edge over two dims is a DAG");
                run_class(db, sel, &PSkylineClass::new(graph), opts)
            }
            ClassSpec::Subspace { dims } => {
                run_class(db, sel, &SubspaceSkylineClass::new(dims.clone()), opts)
            }
        }
    }

    /// Checks a partial answer against the complete one (`full`) by the
    /// guarantee the class's rustdoc states for the engine it ran on:
    ///
    /// * serial top-k: a prefix of the true top-k;
    /// * serial skyline and dynamic skyline: a subset of the full skyline;
    ///   serial subspace skyline: the same in projected values (which of
    ///   several tuples with one projection names it depends on how far the
    ///   search got);
    /// * hull: the hull of the visited points — nothing to check here, the
    ///   books are [`Self::check_progress`]'s;
    /// * p-skyline (its accepts are tentative) and every parallel partial:
    ///   tuples that satisfy the selection.
    pub fn check_partial(
        &self,
        db: &PCubeDb,
        partial: &[Row],
        full: &[Row],
        serial: bool,
    ) -> Result<(), String> {
        match &self.class {
            ClassSpec::Hull => Ok(()),
            ClassSpec::TopK { .. } if serial => (full.get(..partial.len()) == Some(partial))
                .then_some(())
                .ok_or_else(|| "serial top-k partial is not a prefix".to_string()),
            ClassSpec::Skyline | ClassSpec::Dynamic { .. } if serial => partial
                .iter()
                .find(|p| !full.contains(p))
                .map_or(Ok(()), |p| Err(format!("serial partial row {p:?} not in the full answer"))),
            _ => {
                let by_value = serial && matches!(self.class, ClassSpec::Subspace { .. });
                partial
                    .iter()
                    .find(|p| {
                        !db.relation().matches(p.tid, &self.selection)
                            || (by_value && !full.iter().any(|f| f.coords == p.coords))
                    })
                    .map_or(Ok(()), |p| Err(format!("partial row {p:?} does not belong")))
            }
        }
    }

    /// Checks the books of a run that was cut short (a complete run passes):
    /// the progress counter equals the `rows` returned — for a hull it
    /// counts the points visited, so it only bounds them — a serial trip
    /// abandons at least the entry it popped, and only a deadline trip
    /// overshoots, by at most one kernel pop.
    pub fn check_progress(&self, stats: &QueryStats, rows: usize, serial: bool) -> Result<(), String> {
        let QueryOutcome::Partial { reason, progress } = &stats.outcome else {
            return Ok(());
        };
        let visited_only = matches!(self.class, ClassSpec::Hull);
        if progress.results_so_far < rows || (!visited_only && progress.results_so_far != rows) {
            return Err(format!("progress says {} rows, {rows} returned", progress.results_so_far));
        }
        if serial && progress.frontier == 0 {
            return Err("a serial trip abandoned no heap entry".to_string());
        }
        let allowed = match reason {
            StopReason::DeadlineExceeded => progress.max_pop_seconds + 1e-6,
            _ => 0.0,
        };
        if progress.overshoot_seconds > allowed {
            return Err(format!(
                "{reason}: overshoot {}s exceeds {allowed}s",
                progress.overshoot_seconds
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcube_core::{CancelToken, PCubeConfig, QueryBudget};
    use pcube_data::{synthetic, SyntheticSpec};

    fn db() -> PCubeDb {
        let spec = SyntheticSpec { n_tuples: 1500, n_bool: 3, n_pref: 2, cardinality: 6, ..Default::default() };
        PCubeDb::build(synthetic(&spec), &PCubeConfig::default())
    }

    #[test]
    fn the_mix_is_seeded_and_every_class_meets_every_predicate_count() {
        let db = db();
        let cases = mix(db.relation(), 36, 9);
        let again = mix(db.relation(), 36, 9);
        let mut seen = std::collections::BTreeSet::new();
        for (a, b) in cases.iter().zip(&again) {
            assert_eq!(a.selection, b.selection);
            assert_eq!(format!("{:?}", a.class), format!("{:?}", b.class));
            seen.insert((a.kind(), a.selection.len()));
        }
        assert_eq!(seen.len(), 6 * 3, "{seen:?}");
    }

    #[test]
    fn serial_parallel_and_unlimited_governed_runs_agree_for_every_class() {
        let db = db();
        let governed = |workers| ParallelOptions {
            workers,
            budget: QueryBudget::unlimited(),
            cancel: Some(CancelToken::new()),
        };
        for case in mix(db.relation(), 18, 3) {
            let serial = case.run(&db, ParallelOptions::default());
            assert!(serial.stats.outcome.is_complete());
            let fanned = case.run(&db, ParallelOptions::with_workers(3));
            assert_eq!(fanned.rows, serial.rows, "{case:?}");
            assert_eq!(case.run(&db, governed(0)).rows, serial.rows, "{case:?}");
            assert_eq!(case.run(&db, governed(2)).rows, serial.rows, "{case:?}");
        }
    }

    #[test]
    fn the_partial_audit_accepts_real_partials_and_refuses_forged_ones() {
        let db = db();
        for case in mix(db.relation(), 18, 5) {
            let full = case.run(&db, ParallelOptions::default()).rows;
            for workers in [0, 2] {
                let budget = QueryBudget::unlimited().with_block_budget(3);
                let cut = case.run(&db, ParallelOptions { workers, budget, cancel: None });
                let serial = workers == 0;
                case.check_progress(&cut.stats, cut.rows.len(), serial).expect("honest books");
                if !cut.stats.outcome.is_complete() {
                    case.check_partial(&db, &cut.rows, &full, serial).expect("a sound partial");
                }
            }
            if matches!(case.class, ClassSpec::Hull) || case.selection.is_empty() {
                continue;
            }
            let outsider = (0..db.relation().len() as u64)
                .find(|&t| !db.relation().matches(t, &case.selection))
                .expect("a one-predicate selection excludes some tuple");
            let forged = [Row { tid: outsider, coords: vec![2.0, 2.0], score: Some(9.0) }];
            for serial in [true, false] {
                assert!(case.check_partial(&db, &forged, &full, serial).is_err(), "{case:?}");
            }
        }
    }
}
