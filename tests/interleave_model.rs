//! Model checks for the lock-free query-kernel structures, in the style of
//! an offline model checker: enumerate **every** interleaving of the
//! structures' primitive steps for small worker counts, replay each schedule
//! against both the real structure and a trivially-correct reference model,
//! and assert they agree at every step. Larger worker counts (4, 8) are
//! covered by seeded-random schedules plus real-thread stress.
//!
//! Checked structures (see `pcube_core::query::kernel`):
//!
//! * [`SharedBound`] — atomic `fetch_min` over order-preserving f64 bits.
//!   Invariants: every read is the minimum of all previously applied
//!   updates (no lost update), and reads are monotone non-increasing.
//! * [`SharedWindow`] — grow-only lock-free point list with decomposed
//!   `reserve` / `publish` steps (the exact window where a torn read could
//!   exist). Invariants: `refresh` never yields a torn or foreign point,
//!   never yields a duplicate, marks are monotone, the visible prefix is
//!   gap-free, and once all publishes land every point is visible (no lost
//!   update).

use pcube::core::query::kernel::{SharedBound, SharedWindow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Visits every interleaving of `counts[w]` ordered steps per worker, as a
/// sequence of worker indices. The number of schedules is the multinomial
/// `(Σcounts)! / Π counts[w]!` — callers keep counts small enough to be
/// exhaustive.
fn enumerate_schedules(counts: &[usize], visit: &mut dyn FnMut(&[usize])) {
    fn rec(
        remaining: &mut [usize],
        schedule: &mut Vec<usize>,
        total: usize,
        visit: &mut dyn FnMut(&[usize]),
    ) {
        if schedule.len() == total {
            visit(schedule);
            return;
        }
        for w in 0..remaining.len() {
            if remaining[w] > 0 {
                remaining[w] -= 1;
                schedule.push(w);
                rec(remaining, schedule, total, visit);
                schedule.pop();
                remaining[w] += 1;
            }
        }
    }
    let total = counts.iter().sum();
    rec(&mut counts.to_vec(), &mut Vec::with_capacity(total), total, visit);
}

/// A seeded-random interleaving with `counts[w]` steps per worker —
/// Fisher–Yates over the step multiset (intra-worker order is preserved by
/// construction because steps of one worker are interchangeable indices).
fn random_schedule(counts: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut schedule: Vec<usize> =
        counts.iter().enumerate().flat_map(|(w, &n)| std::iter::repeat_n(w, n)).collect();
    for i in (1..schedule.len()).rev() {
        schedule.swap(i, rng.gen_range(0..i + 1));
    }
    schedule
}

// ---------------------------------------------------------------------------
// SharedBound
// ---------------------------------------------------------------------------

/// Replays one schedule of `lower_to` steps against the reference model
/// (a running min), asserting agreement after every step.
fn check_bound_schedule(scripts: &[Vec<f64>], schedule: &[usize]) {
    let bound = SharedBound::unbounded();
    let mut cursor = vec![0usize; scripts.len()];
    let mut model = f64::INFINITY;
    let mut last_read = f64::INFINITY;
    for &w in schedule {
        let v = scripts[w][cursor[w]];
        cursor[w] += 1;
        bound.lower_to(v);
        model = model.min(v);
        let read = bound.get();
        assert_eq!(read, model, "bound diverged from running min in schedule {schedule:?}");
        assert!(read <= last_read, "bound rose in schedule {schedule:?}");
        last_read = read;
    }
    assert_eq!(bound.get(), model, "final bound is not the global min");
}

/// Exhaustive: every interleaving of 2 and 3 workers' update scripts keeps
/// the bound equal to the running min of applied updates.
#[test]
fn shared_bound_exhaustive_interleavings_2_and_3_workers() {
    // Scripts mix improving, non-improving and equal updates, including a
    // negative value and a non-monotone per-worker sequence.
    let two: Vec<Vec<f64>> = vec![vec![5.0, 2.0, 7.5], vec![3.0, 3.0, -1.0]];
    let mut n = 0usize;
    enumerate_schedules(&[3, 3], &mut |s| {
        check_bound_schedule(&two, s);
        n += 1;
    });
    assert_eq!(n, 20, "C(6,3) interleavings of two 3-step scripts");

    let three: Vec<Vec<f64>> = vec![vec![9.0, 0.5], vec![0.5, 4.0], vec![2.0, 1.0]];
    let mut n = 0usize;
    enumerate_schedules(&[2, 2, 2], &mut |s| {
        check_bound_schedule(&three, s);
        n += 1;
    });
    assert_eq!(n, 90, "6!/(2!·2!·2!) interleavings of three 2-step scripts");
}

/// Seeded-random schedules at 4 and 8 workers, then a real-thread stress at
/// 2, 4 and 8 workers: the final bound is exactly the global minimum and no
/// thread ever observes the bound rise.
#[test]
fn shared_bound_random_schedules_and_threads_2_4_8_workers() {
    let mut rng = StdRng::seed_from_u64(11);
    for &workers in &[4usize, 8] {
        let scripts: Vec<Vec<f64>> = (0..workers)
            .map(|w| (0..4).map(|i| ((w * 17 + i * 29) % 23) as f64 - 3.0).collect())
            .collect();
        let counts = vec![4usize; workers];
        for _ in 0..500 {
            let schedule = random_schedule(&counts, &mut rng);
            check_bound_schedule(&scripts, &schedule);
        }
    }

    for &workers in &[2usize, 4, 8] {
        let bound = SharedBound::unbounded();
        let per_worker = 1000usize;
        std::thread::scope(|scope| {
            for w in 0..workers {
                let bound = &bound;
                scope.spawn(move || {
                    let mut last = f64::INFINITY;
                    for i in 0..per_worker {
                        // Values sweep down to each worker's floor `w`.
                        bound.lower_to((w + per_worker - i) as f64);
                        let read = bound.get();
                        assert!(read <= last, "worker {w} saw the bound rise");
                        assert!(read >= 1.0, "bound below any written value");
                        last = read;
                    }
                });
            }
        });
        // Worker 0's floor is the global min: 0 + per_worker - (per_worker-1).
        assert_eq!(bound.get(), 1.0, "{workers}-worker min lost");
    }
}

// ---------------------------------------------------------------------------
// SharedWindow
// ---------------------------------------------------------------------------

/// The sentinel point worker `w` publishes as its `i`-th point. All three
/// coordinates encode (w, i), so a torn read — coordinates from different
/// writes — is detectable by internal inconsistency.
fn sentinel(w: usize, i: usize) -> Vec<f64> {
    vec![w as f64, i as f64, (w * 1000 + i) as f64]
}

/// Replays one schedule of decomposed reserve/publish steps, interleaving a
/// reader `refresh` after every step, and checks every window invariant.
///
/// Each worker's script is `points` repetitions of [reserve, publish], so
/// worker `w` contributes `2·points` steps; step `2i` reserves a slot for
/// its `i`-th point and step `2i+1` publishes it. Between any two steps the
/// window may have reserved-but-unpublished slots — exactly the state a
/// torn read or a gap in the visible prefix would come from.
fn check_window_schedule(workers: usize, points: usize, schedule: &[usize]) {
    let window = SharedWindow::default();
    let mut pending: Vec<Option<usize>> = vec![None; workers]; // reserved slot
    let mut next_point = vec![0usize; workers];
    let mut published = 0usize;
    let mut seen: Vec<Vec<f64>> = Vec::new();
    let mut mark = 0usize;
    for &w in schedule {
        match pending[w].take() {
            None => pending[w] = Some(window.reserve()),
            Some(slot) => {
                window.publish(slot, sentinel(w, next_point[w]));
                next_point[w] += 1;
                published += 1;
            }
        }
        let before = seen.len();
        let new_mark = window.refresh(mark, |_, p| seen.push(p.to_vec()));
        assert!(new_mark >= mark, "refresh mark went backwards");
        assert_eq!(seen.len() - before, new_mark - mark, "mark/point count mismatch");
        mark = new_mark;
        assert!(mark <= published, "refresh saw more points than were published");
        for p in &seen[before..] {
            let (w, i) = (p[0] as usize, p[1] as usize);
            assert_eq!(p, &sentinel(w, i), "torn read: {p:?} in schedule {schedule:?}");
        }
    }
    // All publishes have landed: the final refresh must surface every point
    // exactly once (no lost update, no duplicate).
    mark = window.refresh(mark, |_, p| seen.push(p.to_vec()));
    assert_eq!(mark, workers * points, "final mark misses published points");
    assert_eq!(seen.len(), workers * points);
    let mut tags: Vec<(usize, usize)> =
        seen.iter().map(|p| (p[0] as usize, p[1] as usize)).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), workers * points, "duplicate or lost point");
    for (w, counter) in next_point.iter().enumerate() {
        assert_eq!(*counter, points, "worker {w} did not publish all its points");
    }
}

/// Exhaustive: every interleaving of decomposed reserve/publish steps for
/// 2 workers × 2 points and 3 workers × 1 point (with a refresh wedged
/// between every pair of steps) upholds all window invariants.
#[test]
fn shared_window_exhaustive_interleavings_2_and_3_workers() {
    let mut n = 0usize;
    enumerate_schedules(&[4, 4], &mut |s| {
        check_window_schedule(2, 2, s);
        n += 1;
    });
    assert_eq!(n, 70, "C(8,4) interleavings of two 4-step scripts");

    let mut n = 0usize;
    enumerate_schedules(&[2, 2, 2], &mut |s| {
        check_window_schedule(3, 1, s);
        n += 1;
    });
    assert_eq!(n, 90, "6!/(2!·2!·2!) interleavings of three 2-step scripts");
}

/// Seeded-random schedules at 4 and 8 workers (2 points each), deep enough
/// that exhaustive enumeration is infeasible but the same invariants hold on
/// every sampled interleaving.
#[test]
fn shared_window_random_schedules_4_and_8_workers() {
    let mut rng = StdRng::seed_from_u64(23);
    for &workers in &[4usize, 8] {
        let counts = vec![4usize; workers]; // 2 points → 4 steps per worker
        for _ in 0..400 {
            let schedule = random_schedule(&counts, &mut rng);
            check_window_schedule(workers, 2, &schedule);
        }
    }
}

/// Real threads at 2, 4 and 8 workers: concurrent `push`es race a refreshing
/// reader; every intermediate snapshot is untorn and gap-free, and the final
/// window holds every point exactly once. Crosses the segment-0 boundary
/// (32 slots) so segment growth happens mid-race.
#[test]
fn shared_window_concurrent_push_and_refresh_2_4_8_workers() {
    for &workers in &[2usize, 4, 8] {
        let per_worker = 25usize; // 8×25 = 200 points: spans 3 spine segments
        let window = SharedWindow::default();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let window = &window;
                scope.spawn(move || {
                    for i in 0..per_worker {
                        window.push(sentinel(w, i));
                    }
                });
            }
            // Racing reader: refresh until every point is visible.
            let mut seen: Vec<Vec<f64>> = Vec::new();
            let mut mark = 0usize;
            while mark < workers * per_worker {
                let new_mark = window.refresh(mark, |_, p| seen.push(p.to_vec()));
                assert!(new_mark >= mark);
                for p in &seen[mark..new_mark] {
                    let (w, i) = (p[0] as usize, p[1] as usize);
                    assert_eq!(p, &sentinel(w, i), "torn read under real threads");
                }
                mark = new_mark;
                std::hint::spin_loop();
            }
            let mut tags: Vec<(usize, usize)> =
                seen.iter().map(|p| (p[0] as usize, p[1] as usize)).collect();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(tags.len(), workers * per_worker, "duplicate or lost point");
        });
    }
}
