//! The paper's Example 1 at scale: multi-dimensional top-k over a used-car
//! database. A buyer wants `type = sedan AND color = red` ranked by
//! `(price − 15k)² + α·(mileage − 30k)²`, and we compare the P-Cube search
//! against the boolean-first and ranking-first execution plans — the same
//! query class handed to three engines of the one engine seam.
//!
//! Run with: `cargo run --release --example used_cars`

use pcube::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TYPES: &[&str] = &["sedan", "suv", "coupe", "truck", "wagon"];
const MAKERS: &[&str] = &["toyota", "honda", "ford", "bmw", "kia", "volvo", "fiat", "mazda"];
const COLORS: &[&str] = &["red", "blue", "white", "black", "silver", "green"];

fn main() {
    // 50k listings: price and mileage normalized to [0, 1) where 1.0 means
    // $50k / 200k miles.
    let mut rng = StdRng::seed_from_u64(2008);
    let mut cars = Relation::new(Schema::new(&["type", "maker", "color"], &["price", "mileage"]));
    for _ in 0..50_000 {
        let ty = TYPES[rng.gen_range(0..TYPES.len())];
        let maker = MAKERS[rng.gen_range(0..MAKERS.len())];
        let color = COLORS[rng.gen_range(0..COLORS.len())];
        // Older cars are cheaper and have more miles: anti-correlated.
        let age: f64 = rng.gen();
        let price = ((1.0 - age) * 0.8 + rng.gen::<f64>() * 0.2).clamp(0.0, 0.999);
        let mileage = (age * 0.8 + rng.gen::<f64>() * 0.2).clamp(0.0, 0.999);
        cars.push(&[ty, maker, color], &[price, mileage]);
    }

    let db = PCubeDb::build(cars, &PCubeConfig::default());
    let indexes = BooleanIndexSet::of(&db);
    println!(
        "inventory: {} cars | P-Cube: {} cells, {:.1} KB of signatures",
        db.relation().len(),
        db.pcube().registry().len(),
        db.pcube().size_bytes() as f64 / 1024.0
    );

    // "select top 10 used cars where type = sedan and color = red
    //  order by (price − 15k)² + α(mileage − 30k)²" with α = 0.5.
    let sel = db.selection(&[("type", "sedan"), ("color", "red")]);
    let target = vec![15_000.0 / 50_000.0, 30_000.0 / 200_000.0];
    let f = WeightedDistanceFn::new(target, vec![1.0, 0.5]);
    let cost = CostModel::default();

    println!("\ntop-10 red sedans near $15k / 30k miles:");
    let sig = db.run(&sel, &TopKClass::new(10, &f));
    for (i, (tid, coords, score)) in sig.rows.iter().enumerate() {
        println!(
            "  #{:<2} tid {tid:<6} ${:<6.0} {:>6.0} mi  (score {score:.5})",
            i + 1,
            coords[0] * 50_000.0,
            coords[1] * 200_000.0
        );
    }

    // The same query under the three execution plans.
    let top10 = TopKClass::new(10, &f);
    let on = |engine| run_class_engine(&db, &sel, &top10, engine, &QueryBudget::unlimited(), None);
    let sig = on(Engine::PCube);
    let boolean = on(Engine::BooleanFirst(&indexes, SelectRoute::Auto));
    let ranking = on(Engine::DominationFirst);
    for plan in [&sig, &boolean, &ranking] {
        assert_eq!(plan.rows, sig.rows);
    }
    assert_eq!(sig.rows.len(), 10);

    println!("\nexecution plan comparison (modeled disk seconds, default 2008-era disk):");
    println!(
        "  {:<12} {:>10} {:>12} {:>12} {:>12}",
        "plan", "modeled s", "rtree blocks", "tuple probes", "peak heap"
    );
    for (name, stats) in
        [("Signature", &sig.stats), ("Boolean", &boolean.stats), ("Ranking", &ranking.stats)]
    {
        println!(
            "  {:<12} {:>10.3} {:>12} {:>12} {:>12}",
            name,
            cost.seconds(&stats.io) + stats.cpu_seconds,
            stats.io.reads(IoCategory::RtreeBlock),
            stats.io.reads(IoCategory::TupleRandomAccess),
            stats.peak_heap
        );
    }
    println!("\n(Signature pushes both prunings into one search: no tuple probes and");
    println!(" the smallest candidate heap. At this toy scale a sequential table scan");
    println!(" is still cheap for Boolean; the bench harness (`report fig13`) shows the");
    println!(" paper's order-of-magnitude gap emerging as T grows.)");
}
