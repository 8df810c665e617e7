//! Chaos harness: deterministic fault-injection sweeps over the whole stack.
//!
//! Every scenario is seeded, so failures replay exactly. The contract under
//! test, for both corrupt persisted images (here one property test; the
//! exhaustive sweep of the one image decoder is `tests/checkpoint_image.rs`)
//! and injected query-time storage faults, is: **a clean typed error or a correct answer — never a panic,
//! never a silently wrong result.** Correctness is judged against the
//! in-memory reference oracles (`pcube::baselines::reference`) over the
//! tuples that actually satisfy the selection, or against an identical
//! fault-free twin database.

use std::sync::OnceLock;

use pcube::baselines::reference::{bnl_skyline, naive_topk};
use pcube::core::{
    DynamicSkylineClass, HullClass, LinearFn, PCubeConfig, PCubeDb, SkylineClass, TopKClass,
};
use pcube::cube::Selection;
use pcube::data::{sample_selection, synthetic, SyntheticSpec};
use pcube::storage::{Counter, FaultPlan, IoCategory, IoStats, Pager, StorageError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small pages + a few hundred rows: many signature/R-tree/B+-tree pages,
/// so random corruption has a rich surface, while sweeps stay fast.
fn spec() -> SyntheticSpec {
    SyntheticSpec {
        n_tuples: 350,
        n_bool: 3,
        n_pref: 2,
        cardinality: 6,
        seed: 42,
        ..Default::default()
    }
}

fn build_db() -> PCubeDb {
    let cfg = PCubeConfig { page_size: 512, ..PCubeConfig::default() };
    PCubeDb::build(synthetic(&spec()), &cfg)
}

/// The clean persisted image, built once and shared by every sweep.
fn clean_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| build_db().save_to_bytes())
}

/// Tuples satisfying `sel`, as `(tid, preference coords)` — the oracle's
/// input, read straight from the base table.
fn qualifying(db: &PCubeDb, sel: &Selection) -> Vec<(u64, Vec<f64>)> {
    (0..db.relation().len() as u64)
        .filter(|&t| db.relation().matches(t, sel))
        .map(|t| (t, db.relation().pref_coords(t)))
        .collect()
}

/// Asserts skyline and top-k answers over `db` equal the reference oracles.
fn assert_matches_oracle(db: &PCubeDb, sel: &Selection, label: &str) {
    let points = qualifying(db, sel);

    let out = db.run(sel, &SkylineClass::new(vec![0, 1]));
    let mut got: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
    let mut want: Vec<u64> = bnl_skyline(&points, &[0, 1]).iter().map(|p| p.0).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{label}: skyline mismatch for {sel:?}");

    let f = LinearFn::new(vec![0.7, 0.3]);
    let out = db.run(sel, &TopKClass::new(8, &f));
    let want = naive_topk(&points, 8, &f);
    assert_eq!(out.rows.len(), want.len(), "{label}: top-k size mismatch for {sel:?}");
    for (g, w) in out.rows.iter().zip(&want) {
        assert!(
            (g.2 - w.2).abs() < 1e-9,
            "{label}: top-k score mismatch for {sel:?}: got {} want {}",
            g.2,
            w.2
        );
    }
}

/// Asserts the dynamic skyline around `q` equals a BNL oracle over the
/// |x − q|-transformed qualifying tuples.
fn assert_dynamic_matches_oracle(db: &PCubeDb, sel: &Selection, q: &[f64], label: &str) {
    let t_points: Vec<(u64, Vec<f64>)> = qualifying(db, sel)
        .into_iter()
        .map(|(t, c)| (t, c.iter().zip(q).map(|(x, qd)| (x - qd).abs()).collect()))
        .collect();
    let out = db.run(sel, &DynamicSkylineClass::new(q, vec![0, 1]));
    let mut got: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
    let mut want: Vec<u64> = bnl_skyline(&t_points, &[0, 1]).iter().map(|p| p.0).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{label}: dynamic skyline mismatch for {sel:?} around {q:?}");
}

// --------------------------------------------------- query-time fault sweep --

/// 120 seeded fault plans on the signature (and sometimes directory) pager,
/// each answering skyline, top-k, dynamic-skyline and convex-hull queries
/// under 0–2 predicates. Every fourth plan also flips a bit in about a third
/// of the pages written under it, and the store — checksums on — is written
/// once more before the queries run. Answers must match the oracles / the
/// fault-free twin exactly; the degradation counter must have fired
/// somewhere, and flipped pages must have been found and quarantined.
#[test]
fn query_time_fault_sweep_stays_correct() {
    let image = clean_image();
    let clean = PCubeDb::load_from_bytes(image).expect("clean image loads");
    let mut degraded_total = 0u64;
    let (mut flipped_total, mut quarantined_total) = (0u64, 0u64);
    for seed in 0..120u64 {
        let mut db = PCubeDb::load_from_bytes(image).expect("clean image loads");
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let p = 0.1 + 0.8 * rng.gen::<f64>();
        let plan = FaultPlan::seeded(seed).with_read_errors(p);
        let pager = db.signature_store_mut().sig_pager_mut();
        if seed % 4 == 1 {
            pager.set_checksums(true);
            pager.set_fault_plan(plan.with_bit_flips(0.3));
            for pid in pager.live_page_ids() {
                let bytes = pager.page_bytes(pid).expect("a live page").to_vec();
                pager.try_write(pid, &bytes).expect("a flipped write reports success");
            }
            flipped_total += pager.fault_counts().map_or(0, |c| c.bit_flips);
        } else {
            pager.set_fault_plan(plan);
        }
        if seed % 3 == 0 {
            // Every third scenario also makes the signature directory flaky.
            db.signature_store_mut()
                .dir_pager_mut()
                .set_fault_plan(FaultPlan::seeded(seed ^ 0xABCD).with_read_errors(p));
        }
        for n_preds in 0..=2usize {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            let label = format!("fault seed {seed}");
            assert_matches_oracle(&db, &sel, &label);
            let q = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            assert_dynamic_matches_oracle(&db, &sel, &q, &label);

            let a = db.run(&sel, &HullClass::new((0, 1)));
            let b = clean.run(&sel, &HullClass::new((0, 1)));
            let mut ga: Vec<u64> = a.rows.iter().map(|p| p.0).collect();
            let mut gb: Vec<u64> = b.rows.iter().map(|p| p.0).collect();
            ga.sort_unstable();
            gb.sort_unstable();
            assert_eq!(ga, gb, "{label}: hull mismatch for {sel:?}");
        }
        degraded_total += db.stats().get(Counter::DegradedReads);
        quarantined_total += db.stats().get(Counter::PagesQuarantined);
    }
    assert!(
        degraded_total > 0,
        "sweeping 120 fault plans should have triggered at least one degraded read"
    );
    assert!(flipped_total > 0, "30 plans at p = 0.3 over every live page must flip some bit");
    assert!(quarantined_total > 0, "a flipped page is quarantined by the read that finds it");
}

// --------------------------------------------------------- targeted checks --

/// Corrupt every live signature page (checksums on, so reads fail loudly):
/// queries must fall back to unfiltered traversal, tally degraded reads, and
/// still match the oracle bit-for-bit.
#[test]
fn corrupt_signature_pages_degrade_but_answers_stay_exact() {
    let mut db = PCubeDb::load_from_bytes(clean_image()).expect("clean image loads");
    {
        let pager = db.signature_store_mut().sig_pager_mut();
        pager.set_checksums(true);
        for pid in pager.live_page_ids() {
            pager.corrupt_page(pid, 7, 0x80).expect("live page accepts corruption");
        }
    }
    let mut rng = StdRng::seed_from_u64(11);
    for n_preds in 1..=2usize {
        for _ in 0..4 {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            assert_matches_oracle(&db, &sel, "corrupt-sig");
        }
    }
    assert!(
        db.stats().get(Counter::DegradedReads) > 0,
        "reading corrupt signature pages must be tallied as degraded"
    );
}

/// Probe equivalence on a built tree. The kernel asks the boolean probe two
/// questions: `keep` of an entry it popped, which starts with the full
/// root-to-path walk, and `keep_child` of each child of the node it is
/// expanding. Walking the real R-tree the way the kernel does — a node is
/// expanded only if both questions kept it — the child question must answer
/// every tuple child exactly as the walk answers the child's path, load the
/// same partial signatures and turn lossy at the same child; it must never
/// keep a child node the walk drops; and no qualifying tuple may be
/// dropped. The walking twin is asked the same pop-time and child-node
/// questions, so only the tuple children tell the two apart. Checked on the
/// clean store and on one whose signature pages are damaged (every second
/// page corrupt under checksums, so cursors degrade part-way through the
/// search).
#[test]
fn child_masks_equal_the_full_walk_clean_and_degraded() {
    use pcube::core::query::{BooleanPruner, Candidate};
    use pcube::core::BooleanProbe;
    use pcube::rtree::{Mbr, Path};
    use std::collections::HashSet;

    fn walk_tree(db: &PCubeDb, sel: &Selection, label: &str) -> bool {
        let mut by_mask: BooleanProbe<'_> = db.pcube().probe(sel, false);
        let mut by_walk: BooleanProbe<'_> = db.pcube().probe(sel, false);
        let mut kept_tids: HashSet<u64> = HashSet::new();
        let mut frontier = vec![(db.rtree().root_pid(), Path::root())];
        while let Some((pid, path)) = frontier.pop() {
            let node = Candidate::Node { pid, path: path.clone(), mbr: Mbr::empty(db.rtree().dims()) };
            let kept = by_mask.keep(db, sel, &node);
            assert_eq!(kept, by_walk.keep(db, sel, &node), "{label}: {sel:?} at {path}");
            if !kept {
                continue;
            }
            assert!(by_walk.contains(&path), "{label}: expanded an unkept node {path}");
            let node = db.rtree().read_node(pid);
            for slot in node.slots() {
                let child_path = path.child(slot as u16 + 1);
                let walked = by_walk.contains(&child_path);
                if node.is_leaf() {
                    let asked = by_mask.keep_child(slot, false);
                    assert_eq!(asked, walked, "{label}: {sel:?} child {child_path}");
                    if asked {
                        kept_tids.insert(node.tid(slot));
                    }
                } else {
                    let asked = by_mask.keep_child(slot, true);
                    assert_eq!(asked, by_walk.keep_child(slot, true), "{label}: {child_path}");
                    assert!(walked || !asked, "{label}: {sel:?} kept {child_path} past the walk");
                    if asked {
                        frontier.push((node.child(slot), child_path.clone()));
                    }
                }
                assert_eq!(
                    (by_mask.partials_loaded(), by_mask.is_lossy()),
                    (by_walk.partials_loaded(), by_walk.is_lossy()),
                    "{label}: {sel:?} load/degrade moment differs at {child_path}"
                );
            }
        }
        for tid in 0..db.relation().len() as u64 {
            if db.relation().matches(tid, sel) {
                assert!(kept_tids.contains(&tid), "{label}: {sel:?} lost qualifying tuple {tid}");
            } else if !by_mask.is_lossy() {
                assert!(!kept_tids.contains(&tid), "{label}: {sel:?} exact probe kept {tid}");
            }
        }
        by_mask.is_lossy()
    }

    let clean = PCubeDb::load_from_bytes(clean_image()).expect("clean image loads");
    let mut damaged = PCubeDb::load_from_bytes(clean_image()).expect("clean image loads");
    {
        let pager = damaged.signature_store_mut().sig_pager_mut();
        pager.set_checksums(true);
        for pid in pager.live_page_ids().into_iter().step_by(2) {
            pager.corrupt_page(pid, 7, 0x80).expect("live page accepts corruption");
        }
    }
    let mut rng = StdRng::seed_from_u64(12);
    let mut degraded = 0;
    for n_preds in 1..=3usize {
        for _ in 0..6 {
            let sel = sample_selection(clean.relation(), n_preds, &mut rng);
            assert!(!walk_tree(&clean, &sel, "clean"), "a clean store never degrades");
            degraded += usize::from(walk_tree(&damaged, &sel, "damaged"));
        }
    }
    assert!(degraded > 0, "half the signature pages are corrupt: some cursor must degrade");
    assert!(damaged.stats().get(Counter::DegradedReads) > 0);
}

/// The pop-time question of a node (`BooleanPruner::keep`: the walk and the
/// subtree check), asked the way the kernel asks it — the child question
/// while a node is expanded, the pop-time question before a kept child's
/// page is read — never drops a node holding a qualifying tuple, on the
/// clean store and on one with every second signature page corrupt. On the
/// clean store it is exact: every node it lets through holds a qualifying
/// tuple.
#[test]
fn subtree_check_never_drops_a_qualifying_tuple_clean_and_degraded() {
    use pcube::core::query::{BooleanPruner, Candidate};
    use pcube::core::BooleanProbe;
    use pcube::rtree::{Mbr, Path};
    use std::collections::HashSet;

    /// Expands `node`, which the probe just kept, and every kept node under
    /// it; returns the number of qualifying tuples reached, each added to
    /// `reached`. `exact` asserts that every node the probe keeps holds one.
    fn expand(
        db: &PCubeDb,
        sel: &Selection,
        probe: &mut BooleanProbe<'_>,
        node: &Candidate,
        exact: bool,
        reached: &mut HashSet<u64>,
    ) -> usize {
        let Candidate::Node { pid, path, .. } = node else { panic!("a tuple is not expanded") };
        let mut found = 0;
        let mut kept_nodes = Vec::new();
        let node = db.rtree().read_node(*pid);
        for slot in node.slots() {
            if node.is_leaf() {
                let tid = node.tid(slot);
                if probe.keep_child(slot, false) && db.relation().matches(tid, sel) {
                    reached.insert(tid);
                    found += 1;
                }
            } else if probe.keep_child(slot, true) {
                let mut mbr = Mbr::empty(db.rtree().dims());
                node.mbr_into(slot, &mut mbr);
                let path = path.child(slot as u16 + 1);
                kept_nodes.push(Candidate::Node { pid: node.child(slot), path, mbr });
            }
        }
        for child in kept_nodes {
            if probe.keep(db, sel, &child) {
                let below = expand(db, sel, probe, &child, exact, reached);
                assert!(!exact || below > 0, "{sel:?}: read {}, which holds no match", child.path());
                found += below;
            }
        }
        found
    }

    let clean = PCubeDb::load_from_bytes(clean_image()).expect("clean image loads");
    let mut damaged = PCubeDb::load_from_bytes(clean_image()).expect("clean image loads");
    {
        let pager = damaged.signature_store_mut().sig_pager_mut();
        pager.set_checksums(true);
        for pid in pager.live_page_ids().into_iter().step_by(2) {
            pager.corrupt_page(pid, 7, 0x80).expect("live page accepts corruption");
        }
    }
    let mut rng = StdRng::seed_from_u64(28);
    let mut degraded = 0;
    for n_preds in 2..=3usize {
        for _ in 0..8 {
            let sel = sample_selection(clean.relation(), n_preds, &mut rng);
            let qualifying: HashSet<u64> =
                qualifying(&clean, &sel).into_iter().map(|(tid, _)| tid).collect();
            for (db, label) in [(&clean, "clean"), (&damaged, "damaged")] {
                let mut probe = db.pcube().probe(&sel, false);
                let mut reached = HashSet::new();
                let (pid, mbr) = (db.rtree().root_pid(), Mbr::empty(db.rtree().dims()));
                let root = Candidate::Node { pid, path: Path::root(), mbr };
                assert!(probe.keep(db, &sel, &root), "the root is always read");
                expand(db, &sel, &mut probe, &root, label == "clean", &mut reached);
                assert_eq!(reached, qualifying, "{label}: {sel:?} lost a qualifying tuple");
                assert!(label == "damaged" || !probe.is_lossy(), "a clean store never degrades");
                degraded += usize::from(probe.is_lossy());
            }
        }
    }
    assert!(degraded > 0, "half the signature pages are corrupt: some cursor must degrade");
}

/// Seeded faults must exercise every shard of the concurrent buffer pool,
/// not just the pages that happen to hash to shard 0. Allocate until each
/// of the 8 shards owns several pages, then run a faulted read workload
/// over all of them (retrying failed reads, which cache nothing) and check
/// the per-shard ledgers: every shard tallies exactly one miss per owned
/// page plus one per fault it absorbed, and serves the two re-read rounds
/// entirely from its own cache.
#[test]
fn seeded_faults_spread_across_every_buffer_pool_shard() {
    use pcube::storage::{PageId, ShardedBufferPool};

    let page_size = 256usize;
    let mut pager = Pager::new(page_size, IoCategory::SignaturePage, IoStats::new_shared());
    let pool = ShardedBufferPool::new(256, 8);
    let shards = pool.shard_count();
    assert_eq!(shards, 8, "8-way pool requested");

    // Bucket freshly allocated pages by the shard they hash to until every
    // shard owns at least four.
    let mut per_shard: Vec<Vec<PageId>> = vec![Vec::new(); shards];
    while per_shard.iter().any(|v| v.len() < 4) {
        let pid = pager.allocate();
        assert!(pid.index() < 200, "Fibonacci mixing should cover 8 shards quickly");
        pager.write(pid, &vec![pid.0 as u8; page_size]);
        per_shard[pool.shard_index(pid)].push(pid);
    }

    pager.set_fault_plan(FaultPlan::seeded(77).with_read_errors(0.4));
    let mut shard_faults = vec![0u64; shards];
    for _round in 0..3 {
        for (s, pids) in per_shard.iter().enumerate() {
            for &pid in pids {
                // A failed read installs nothing, so each retry goes back to
                // the (faulted) pager until the seeded plan lets it through.
                let mut attempts = 0;
                loop {
                    match pool.try_read(&pager, pid) {
                        Ok(page) => {
                            assert_eq!(page[0], pid.0 as u8, "page {pid:?} content survives");
                            break;
                        }
                        Err(_) => {
                            shard_faults[s] += 1;
                            attempts += 1;
                            assert!(attempts < 1_000, "seeded plan at p=0.4 must let reads through");
                        }
                    }
                }
            }
        }
    }

    assert!(shard_faults.iter().sum::<u64>() > 0, "plan at p=0.4 must fire at least once");
    let mut hit_sum = 0;
    let mut miss_sum = 0;
    for s in 0..shards {
        let owned = per_shard[s].len() as u64;
        // Round 1: one successful miss per page plus one miss per absorbed
        // fault. Rounds 2–3 are pure cache hits (faults never evict).
        assert_eq!(
            pool.shard_misses(s),
            owned + shard_faults[s],
            "shard {s}: one miss per page plus one per injected fault"
        );
        assert_eq!(pool.shard_hits(s), 2 * owned, "shard {s}: re-read rounds hit its cache");
        assert!(shard_faults[s] > 0, "shard {s}: seeded faults must reach every shard");
        hit_sum += pool.shard_hits(s);
        miss_sum += pool.shard_misses(s);
    }
    assert_eq!(pool.hits(), hit_sum, "global hit count is the per-shard sum");
    assert_eq!(pool.misses(), miss_sum, "global miss count is the per-shard sum");
}

/// Allocation exhaustion surfaces as a typed error, not a panic or a bad
/// page id.
#[test]
fn alloc_budget_exhaustion_is_a_clean_error() {
    let stats = IoStats::new_shared();
    let mut pager = Pager::new(128, IoCategory::SignaturePage, stats);
    pager.set_fault_plan(FaultPlan::seeded(5).with_alloc_budget(3));
    for i in 0..3 {
        pager.try_allocate().unwrap_or_else(|e| panic!("allocation {i} within budget: {e}"));
    }
    assert!(matches!(pager.try_allocate(), Err(StorageError::OutOfPages)));
    assert!(matches!(pager.try_allocate(), Err(StorageError::OutOfPages)));
    assert_eq!(pager.fault_counts().map_or(0, |c| c.denied_allocs), 2);
}

// ------------------------------------------------------------ proptest sweep --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 random single-byte XOR mutations of the persisted image (the
    /// vendored proptest runs with a fixed, deterministic seed derived from
    /// the test name, so the sweep is reproducible). Each mutated image must
    /// fail to load with a section-named error, or answer exactly.
    #[test]
    fn prop_mutated_images_error_cleanly_or_answer_correctly(
        at in any::<proptest::sample::Index>(),
        mask in 1u8..=255u8,
    ) {
        let image = clean_image();
        let mut img = image.to_vec();
        let pos = at.index(img.len());
        img[pos] ^= mask;
        match PCubeDb::load_from_bytes(&img) {
            Err(e) => {
                prop_assert!(!e.section.is_empty());
                prop_assert!(!e.cause.is_empty());
            }
            Ok(db) => {
                let points = qualifying(&db, &Selection::new());
                let out = db.run(&Selection::new(), &SkylineClass::new(vec![0, 1]));
                let mut got: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
                let mut want: Vec<u64> =
                    bnl_skyline(&points, &[0, 1]).iter().map(|p| p.0).collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }
}
