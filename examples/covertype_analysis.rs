//! OLAP-style preference analysis on the Forest CoverType surrogate
//! (§VI-B.4 workload): skylines under 1–4 boolean predicates, executed as a
//! chain of drill-downs, with per-step I/O accounting.
//!
//! Run with: `cargo run --release --example covertype_analysis`
//! (pass `--full` for the paper-scale 581,012 rows; default is 50k)

use pcube::core::SkylineClass;
use pcube::data::covertype_surrogate;
use pcube::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let rows = if full { pcube::data::COVERTYPE_ROWS } else { 50_000 };
    println!("building CoverType surrogate with {rows} rows …");
    let relation = covertype_surrogate(rows, 4242);
    let db = PCubeDb::build(relation, &PCubeConfig::default());
    println!(
        "P-Cube ready: {} cells over 12 boolean dims, R-tree height {}, \
         signatures {:.1} MB",
        db.pcube().registry().len(),
        db.rtree().height(),
        db.pcube().size_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Drill from 1 to 4 predicates along the values of a random row (so the
    // chain never empties), tracking incremental cost.
    let mut rng = StdRng::seed_from_u64(7);
    let anchor = rng.gen_range(0..db.relation().len() as u64);

    let first_pred = Predicate { dim: 0, value: db.relation().bool_code(anchor, 0) };
    let skyline = SkylineClass::new(vec![0, 1, 2]);
    let (mut outcome, mut state) = db.run_resumable(&vec![first_pred], &skyline);
    println!(
        "\n1 predicate : skyline {} points, {} blocks, {} signature pages",
        outcome.rows.len(),
        outcome.stats.io.reads(IoCategory::RtreeBlock),
        outcome.stats.io.reads(IoCategory::SignaturePage),
    );

    for dim in 1..4usize {
        let extra = Predicate { dim, value: db.relation().bool_code(anchor, dim) };
        (outcome, state) = db.drill_down(state, extra);
        println!(
            "{} predicates: skyline {} points, {} blocks, {} signature pages (drill-down)",
            dim + 1,
            outcome.rows.len(),
            outcome.stats.io.reads(IoCategory::RtreeBlock),
            outcome.stats.io.reads(IoCategory::SignaturePage),
        );
    }

    // Show the final answer with decoded boolean context.
    println!("\nfinal skyline under 4 predicates (elevation, horiz_dist, vert_dist):");
    for (tid, coords) in outcome.rows.iter().take(10) {
        println!("  tid {tid:<7} ({:.3}, {:.3}, {:.3})", coords[0], coords[1], coords[2]);
    }
    if outcome.rows.len() > 10 {
        println!("  … and {} more", outcome.rows.len() - 10);
    }
}
