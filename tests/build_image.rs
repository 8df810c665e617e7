//! The build image, pinned — the oracle of the bulk build path.
//!
//! Generation (`synthetic`, `covertype_surrogate`, `Relation`'s appends),
//! the R-tree's STR bulk load, cube generation (`group_rows`) and the
//! B+-tree bulk load decide every byte a fresh database holds: the columns,
//! which tuple sits in which R-tree slot (so every signature bit), and the
//! directory and index pages. A speed-up of any of them must leave all of it
//! byte-identical, ties included, and this file says so with literals: an
//! FNV-1a digest of `save_to_bytes()` for three seeded tables of about 20k
//! rows (uniform, anti-correlated, the CoverType surrogate with its heavy
//! coordinate ties), one more for the CoverType table with tombstones (a
//! build indexes the live rows only), and a digest of every page of the
//! CoverType table's boolean indexes. The literals were computed before the
//! build path was rewritten and are never edited for a speed-up.

use pcube::core::{BooleanIndexSet, PCubeConfig, PCubeDb};
use pcube::cube::Relation;
use pcube::data::{covertype_surrogate, synthetic, Distribution, SyntheticSpec};
use pcube::storage::{IoCategory, IoStats};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn image_digest(relation: Relation) -> (usize, u64) {
    let image = PCubeDb::build(relation, &PCubeConfig::default()).save_to_bytes();
    let mut h = Fnv::new();
    h.bytes(&image);
    (image.len(), h.0)
}

fn uniform() -> Relation {
    synthetic(&SyntheticSpec { n_tuples: 20_000, seed: 5001, ..SyntheticSpec::default() })
}

fn anti_correlated() -> Relation {
    synthetic(&SyntheticSpec {
        n_tuples: 20_000,
        n_bool: 4,
        n_pref: 2,
        cardinality: 20,
        distribution: Distribution::AntiCorrelated,
        seed: 5002,
    })
}

fn covertype() -> Relation {
    covertype_surrogate(20_000, 5003)
}

/// The CoverType table with every seventh row deleted before the build.
fn covertype_with_tombstones() -> Relation {
    let mut relation = covertype();
    for tid in (0..relation.len() as u64).step_by(7) {
        assert!(relation.mark_deleted(tid));
    }
    relation
}

/// A table's name, its generator, and its image's pinned (length, digest).
type Case = (&'static str, fn() -> Relation, (usize, u64));

#[test]
fn build_images_are_the_parents() {
    let cases: [Case; 4] = [
        ("uniform", uniform, (3_645_076, 0x80a3_8788_a301_5987)),
        ("anti-correlated", anti_correlated, (2_150_824, 0xb88d_7d86_cb7b_e3a9)),
        ("covertype", covertype, (6_299_728, 0xb784_3276_0a80_2e91)),
        ("covertype with tombstones", covertype_with_tombstones, (6_045_466, 0x032f_acf0_d27f_3603)),
    ];
    for (name, relation, pinned) in cases {
        assert_eq!(image_digest(relation()), pinned, "{name}: image (bytes, FNV-1a)");
    }
}

#[test]
fn boolean_index_pages_are_the_parents() {
    let indexes = BooleanIndexSet::build(&covertype(), 4096, IoStats::new_shared());
    let mut h = Fnv::new();
    let mut pages = 0u64;
    for tree in indexes.trees() {
        let (root, height, len) = tree.parts();
        h.word(u64::from(root.0));
        h.word(height as u64);
        h.word(len);
        let pager = tree.pager();
        assert_eq!(pager.category(), IoCategory::BptreePage);
        for pid in pager.live_page_ids() {
            h.word(u64::from(pid.0));
            h.bytes(pager.page_bytes(pid).expect("a live page"));
            pages += 1;
        }
    }
    assert_eq!((pages, h.0), (960, 0xe5ca_18fc_ef6e_bbea), "index pages (count, FNV-1a)");
}
