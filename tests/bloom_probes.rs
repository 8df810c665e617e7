//! §VII extension: queries driven by lossy Bloom-filter signatures (the
//! ablation's pruner, `pcube_bench::bloom`) must return exactly the same
//! answers as the exact signatures (soundness — no false negatives), just
//! with possibly more R-tree reads.

use pcube::core::{LinearFn, PCubeConfig, PCubeDb, SkylineClass, TopKClass};
use pcube::data::{sample_selection, synthetic, SyntheticSpec};
use pcube_bench::bloom;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn db() -> PCubeDb {
    let spec = SyntheticSpec {
        n_tuples: 3000,
        n_bool: 3,
        n_pref: 2,
        cardinality: 20,
        ..Default::default()
    };
    PCubeDb::build(synthetic(&spec), &PCubeConfig::default())
}

#[test]
fn bloom_skyline_matches_exact_signature() {
    let db = db();
    let mut rng = StdRng::seed_from_u64(1);
    for n_preds in 1..=3 {
        for _ in 0..4 {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            let exact = db.run(&sel, &SkylineClass::new(vec![0, 1]));
            for fp in [0.001, 0.05, 0.3] {
                let bloom = bloom::run(&db, &sel, &SkylineClass::new(vec![0, 1]), fp);
                let mut a: Vec<u64> = exact.rows.iter().map(|p| p.0).collect();
                let mut b: Vec<u64> = bloom.rows.iter().map(|p| p.0).collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "sel {sel:?} fp {fp}");
            }
        }
    }
}

#[test]
fn bloom_topk_matches_exact_signature() {
    let db = db();
    let mut rng = StdRng::seed_from_u64(2);
    let f = LinearFn::new(vec![0.4, 0.6]);
    for _ in 0..6 {
        let sel = sample_selection(db.relation(), 2, &mut rng);
        let exact = db.run(&sel, &TopKClass::new(8, &f));
        let bloom = bloom::run(&db, &sel, &TopKClass::new(8, &f), 0.02);
        assert_eq!(exact.rows.len(), bloom.rows.len());
        for (e, b) in exact.rows.iter().zip(&bloom.rows) {
            assert!((e.2 - b.2).abs() < 1e-12, "scores {} vs {}", e.2, b.2);
        }
    }
}

#[test]
fn looser_filters_read_no_fewer_blocks() {
    // A sloppier fp target can only add false positives, i.e. extra reads.
    let db = db();
    let mut rng = StdRng::seed_from_u64(3);
    let sel = sample_selection(db.relation(), 1, &mut rng);
    let mut reads = Vec::new();
    for fp in [0.0001, 0.2, 0.49] {
        db.stats().reset();
        let out = bloom::run(&db, &sel, &SkylineClass::new(vec![0, 1]), fp);
        reads.push((fp, out.stats.io.reads(pcube::storage::IoCategory::RtreeBlock)));
    }
    // Not strictly monotone per-query (hash luck), but the tight filter must
    // not read more than the sloppy one by any large factor.
    assert!(
        reads[0].1 <= reads[2].1 + 5,
        "tight filter should prune at least as well: {reads:?}"
    );
}

#[test]
fn unknown_value_bloom_probe_is_empty() {
    let db = db();
    let sel = vec![pcube::cube::Predicate { dim: 0, value: 9999 }];
    let out = bloom::run(&db, &sel, &SkylineClass::new(vec![0, 1]), 0.01);
    assert!(out.rows.is_empty());
}
