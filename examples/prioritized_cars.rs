//! Prioritized preferences over the used-car inventory: "price matters
//! more than mileage — a cheaper car wins even if it has more miles" is a
//! p-skyline (Mindolin & Chomicki) with the priority edge
//! `price OVER mileage`, and "just show me the price/age trade-off" is a
//! subspace skyline. Both run as *plugged-in query classes* through the
//! same Algorithm-1 kernel, the parallel fan-out, the SQL front end, and
//! the §VI cost-based planner — none of which name them explicitly.
//!
//! Run with: `cargo run --release --example prioritized_cars`

use pcube::prelude::*;
use pcube::sql;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TYPES: &[&str] = &["sedan", "suv", "coupe", "truck", "wagon"];
const COLORS: &[&str] = &["red", "blue", "white", "black", "silver", "green"];

fn main() {
    // 30k listings; price, mileage, age normalized to [0, 1).
    let mut rng = StdRng::seed_from_u64(2008);
    let mut cars =
        Relation::new(Schema::new(&["type", "color"], &["price", "mileage", "age"]));
    for _ in 0..30_000 {
        let ty = TYPES[rng.gen_range(0..TYPES.len())];
        let color = COLORS[rng.gen_range(0..COLORS.len())];
        let age: f64 = rng.gen();
        let price = ((1.0 - age) * 0.8 + rng.gen::<f64>() * 0.2).clamp(0.0, 0.999);
        let mileage = (age * 0.8 + rng.gen::<f64>() * 0.2).clamp(0.0, 0.999);
        cars.push(&[ty, color], &[price, mileage, age]);
    }
    let db = PCubeDb::build(cars, &PCubeConfig::default());
    let sel = db.selection(&[("type", "sedan"), ("color", "red")]);

    // Pareto skyline vs p-skyline: prioritizing price shrinks the answer,
    // because a price advantage now excuses a mileage disadvantage.
    let pareto = db.run(&sel, &SkylineClass::new(vec![0, 1]));
    let graph = PriorityGraph::new(vec![0, 1], &[(0, 1)]).expect("a single edge is a DAG");
    let pskyline = PSkylineClass::new(graph);
    let prioritized = db.run(&sel, &pskyline);
    println!(
        "red sedans: {} on the Pareto skyline (price, mileage), {} after PRIORITIZE price OVER mileage",
        pareto.rows.len(),
        prioritized.rows.len()
    );
    for (tid, coords) in prioritized.rows.iter().take(5) {
        println!(
            "  tid {tid:<6} ${:<6.0} {:>6.0} mi",
            coords[0] * 50_000.0,
            coords[1] * 200_000.0
        );
    }

    // The parallel fan-out answers bit-identically.
    let par = db.par_run(&sel, &pskyline, ParallelOptions::with_workers(4));
    assert_eq!(par.rows, prioritized.rows);
    println!("parallel (4 workers) returned the identical p-skyline");

    // The same query in SQL, EXPLAIN-routed through the cost-based
    // planner: the plan names the class and the chosen engine.
    let stmt = "explain select skyline of price, mileage from cars \
                where type = 'sedan' and color = 'red' \
                prioritize price over mileage";
    let out = sql::execute(&db, stmt).expect("valid statement");
    println!("\n{stmt}\n-> {} rows", out.rows.len());
    print!("{}", sql::explain_plan(&out.stats).expect("EXPLAIN records a plan"));
    assert_eq!(out.rows.len(), prioritized.rows.len());

    // Subspace skyline on (price, age): distinct-value semantics — each
    // projected point appears once even when several cars share it.
    let stmt = "explain select skyline in subspace (price, age) from cars \
                where type = 'sedan'";
    let out = sql::execute(&db, stmt).expect("valid statement");
    println!("\n{stmt}\n-> {} rows (projected onto price, age)", out.rows.len());
    print!("{}", sql::explain_plan(&out.stats).expect("EXPLAIN records a plan"));

    // A cyclic priority graph is a typed error, not a panic.
    let bad = sql::execute(
        &db,
        "select skyline from cars prioritize price over mileage and mileage over price",
    );
    match bad {
        Err(e) => println!("\ncyclic PRIORITIZE -> {e}"),
        Ok(_) => unreachable!("cycles are rejected"),
    }
}
