//! The paper's Example 2: multi-dimensional skyline comparison on a digital
//! camera database. A market analyst computes the skyline of Canon
//! professional cameras, then *rolls up* on the brand dimension to compare
//! against all professional cameras — reusing the first query's cached
//! lists instead of searching from scratch (§V-C).
//!
//! Run with: `cargo run --release --example camera_skyline`

use pcube::core::SkylineClass;
use pcube::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BRANDS: &[&str] = &["canon", "nikon", "sony", "fuji", "panasonic"];
const TYPES: &[&str] = &["professional", "enthusiast", "compact"];

fn main() {
    // Schema (brand, type, price, resolution, optical zoom); preference
    // dims normalized so that SMALLER IS BETTER (resolution and zoom are
    // stored negated/inverted).
    let mut rng = StdRng::seed_from_u64(77);
    let mut cams =
        Relation::new(Schema::new(&["brand", "type"], &["price", "neg_resolution", "neg_zoom"]));
    for _ in 0..20_000 {
        let brand = BRANDS[rng.gen_range(0..BRANDS.len())];
        let ty = TYPES[rng.gen_range(0..TYPES.len())];
        let quality: f64 = match ty {
            "professional" => 0.7 + rng.gen::<f64>() * 0.3,
            "enthusiast" => 0.4 + rng.gen::<f64>() * 0.4,
            _ => rng.gen::<f64>() * 0.5,
        };
        let price = (quality * 0.8 + rng.gen::<f64>() * 0.2).clamp(0.0, 0.999);
        let resolution = (quality * 0.6 + rng.gen::<f64>() * 0.4).clamp(0.0, 0.999);
        let zoom = rng.gen::<f64>();
        cams.push(&[brand, ty], &[price, 1.0 - resolution, 1.0 - zoom]);
    }
    let db = PCubeDb::build(cams, &PCubeConfig::default());

    // Skyline of Canon professional cameras.
    let sel = db.selection(&[("brand", "canon"), ("type", "professional")]);
    let skyline = SkylineClass::new(vec![0, 1, 2]);
    let (canon, canon_state) = db.run_resumable(&sel, &skyline);
    println!(
        "canon professional skyline: {} cameras ({} R-tree blocks read)",
        canon.rows.len(),
        canon.stats.io.reads(IoCategory::RtreeBlock)
    );

    // Roll up on brand: professional cameras of ALL makers, continuing from
    // the cached candidate lists (result ∪ b_list).
    let brand_dim = db.relation().schema().bool_index("brand").unwrap();
    let canon_set: Vec<u64> = canon.rows.iter().map(|p| p.0).collect();
    let (all, _) = db.roll_up(canon_state, brand_dim);
    println!(
        "all-brands professional skyline: {} cameras ({} more R-tree blocks)",
        all.rows.len(),
        all.stats.io.reads(IoCategory::RtreeBlock)
    );

    // The analyst's comparison: which Canon skyline models survive against
    // the whole professional market?
    let surviving: Vec<u64> =
        all.rows.iter().map(|p| p.0).filter(|t| canon_set.contains(t)).collect();
    println!(
        "\nmarket position: {}/{} canon skyline models remain on the global \
         professional skyline",
        surviving.len(),
        canon_set.len()
    );

    // Sanity: the roll-up answer equals a fresh query.
    let fresh = db.run(&db.selection(&[("type", "professional")]), &skyline);
    let mut a: Vec<u64> = all.rows.iter().map(|p| p.0).collect();
    let mut b: Vec<u64> = fresh.rows.iter().map(|p| p.0).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "roll-up must equal the fresh query (Lemma 2)");
    println!(
        "\nroll-up reused cached lists: {} blocks vs {} for a fresh query",
        all.stats.io.reads(IoCategory::RtreeBlock),
        fresh.stats.io.reads(IoCategory::RtreeBlock)
    );
}
