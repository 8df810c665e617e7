//! Quickstart: build a P-Cube over a small table, run a skyline and a top-k
//! query with boolean predicates, and insert a new row incrementally.
//!
//! Run with: `cargo run --release --example quickstart`

use pcube::prelude::*;

fn main() {
    // Boolean dimensions (equality predicates) + preference dimensions
    // (smaller is better).
    let mut cars = Relation::new(Schema::new(&["type", "color"], &["price", "mileage"]));
    let rows: &[(&str, &str, f64, f64)] = &[
        ("sedan", "red", 0.30, 0.20),
        ("sedan", "blue", 0.10, 0.90),
        ("suv", "red", 0.20, 0.40),
        ("sedan", "red", 0.25, 0.35),
        ("sedan", "red", 0.90, 0.80),
        ("suv", "blue", 0.55, 0.15),
        ("sedan", "blue", 0.40, 0.10),
    ];
    for (t, c, price, mileage) in rows {
        cars.push(&[t, c], &[*price, *mileage]);
    }

    // Build the shared R-tree partition and the signature cube.
    let mut db = PCubeDb::build(cars, &PCubeConfig::default());
    println!(
        "built P-Cube: {} rows, R-tree height {}, {} signature cells",
        db.relation().len(),
        db.rtree().height(),
        db.pcube().registry().len()
    );

    // Skyline of red sedans over (price, mileage).
    let sel = db.selection(&[("type", "sedan"), ("color", "red")]);
    let out = db.run(&sel, &SkylineClass::new(vec![0, 1]));
    println!("\nskyline of red sedans (price, mileage):");
    for (tid, coords) in &out.rows {
        println!("  tid {tid}: price {:.2}, mileage {:.2}", coords[0], coords[1]);
    }
    println!(
        "  [{} R-tree blocks read, peak heap {}]",
        out.stats.io.reads(IoCategory::RtreeBlock),
        out.stats.peak_heap
    );

    // Top-2 red sedans nearest the preference point (0.25, 0.30).
    let f = WeightedDistanceFn::new(vec![0.25, 0.30], vec![1.0, 1.0]);
    let top = db.run(&sel, &TopKClass::new(2, &f));
    println!("\ntop-2 red sedans near price 0.25 / mileage 0.30:");
    for (tid, coords, score) in &top.rows {
        println!("  tid {tid}: ({:.2}, {:.2}) score {score:.4}", coords[0], coords[1]);
    }

    // Incremental maintenance: a new bargain appears.
    let tid = db.insert(&["sedan", "red"], &[0.05, 0.05]);
    println!("\ninserted tid {tid} (red sedan at 0.05/0.05); signatures updated in place");
    let out = db.run(&sel, &SkylineClass::new(vec![0, 1]));
    let tids: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
    println!("new skyline tids: {tids:?}");
    assert!(tids.contains(&tid), "the new bargain must join the skyline");
}
