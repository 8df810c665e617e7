//! The SQL front end must produce exactly what the programmatic API does.

use pcube::core::{PCubeConfig, PCubeDb, SkylineClass, TopKClass, WeightedDistanceFn};
use pcube::cube::{Relation, Schema};
use pcube::sql;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn car_db() -> PCubeDb {
    let mut rng = StdRng::seed_from_u64(44);
    let mut cars = Relation::new(Schema::new(&["type", "color"], &["price", "mileage"]));
    let types = ["sedan", "suv", "coupe"];
    let colors = ["red", "blue", "white"];
    for _ in 0..2000 {
        let t = types[rng.gen_range(0..3)];
        let c = colors[rng.gen_range(0..3)];
        cars.push(&[t, c], &[rng.gen(), rng.gen()]);
    }
    PCubeDb::build(cars, &PCubeConfig::default())
}

#[test]
fn sql_skyline_matches_api() {
    let db = car_db();
    let out = sql::execute(
        &db,
        "select skyline from cars where type = 'sedan' and color = 'red' \
         preference by price, mileage",
    )
    .unwrap();
    let sel = db.selection(&[("type", "sedan"), ("color", "red")]);
    let api = db.run(&sel, &SkylineClass::new(vec![0, 1]));
    let mut a: Vec<u64> = out.rows.iter().map(|r| r.tid).collect();
    let mut b: Vec<u64> = api.rows.iter().map(|p| p.0).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    for row in &out.rows {
        assert_eq!(row.bool_values[0], "sedan");
        assert_eq!(row.bool_values[1], "red");
        assert_eq!(row.score, None);
        assert_eq!(row.coords.len(), 2);
    }
}

#[test]
fn sql_topk_matches_api() {
    let db = car_db();
    let out = sql::execute(
        &db,
        "select top 7 from cars where type = 'suv' \
         order by (price - 0.25)^2 + 0.5 * (mileage - 0.4)^2",
    )
    .unwrap();
    let sel = db.selection(&[("type", "suv")]);
    let f = WeightedDistanceFn::new(vec![0.25, 0.4], vec![1.0, 0.5]);
    let api = db.run(&sel, &TopKClass::new(7, &f));
    assert_eq!(out.rows.len(), api.rows.len());
    for (row, (tid, _, score)) in out.rows.iter().zip(&api.rows) {
        assert_eq!(row.tid, *tid);
        assert!((row.score.unwrap() - score).abs() < 1e-12);
    }
}

#[test]
fn sql_linear_ranking_subsets_dimensions() {
    let db = car_db();
    let out = sql::execute(&db, "select top 5 from cars order by mileage").unwrap();
    // The best-5 by mileage only, regardless of price.
    let mut best: Vec<(u64, f64)> =
        (0..db.relation().len() as u64).map(|t| (t, db.relation().pref_value(t, 1))).collect();
    best.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let expect: Vec<f64> = best[..5].iter().map(|(_, m)| *m).collect();
    let got: Vec<f64> = out.rows.iter().map(|r| r.score.unwrap()).collect();
    for (g, e) in got.iter().zip(&expect) {
        assert!((g - e).abs() < 1e-12);
    }
}

#[test]
fn sql_unknown_value_matches_nothing() {
    let db = car_db();
    let out = sql::execute(&db, "select skyline from cars where type = 'boat'").unwrap();
    assert!(out.rows.is_empty());
}

#[test]
fn sql_binding_errors_are_reported() {
    let db = car_db();
    assert!(sql::execute(&db, "select skyline from cars where horsepower = '9'").is_err());
    assert!(sql::execute(&db, "select top 3 from cars order by horsepower").is_err());
    assert!(sql::execute(&db, "select skyline from cars preference by horsepower").is_err());
}

#[test]
fn sql_numeric_codes_work_on_dictionaryless_relations() {
    use pcube::data::{synthetic, SyntheticSpec};
    let spec = SyntheticSpec { n_tuples: 500, n_bool: 2, n_pref: 2, cardinality: 4, ..Default::default() };
    let db = pcube::core::PCubeDb::build(synthetic(&spec), &pcube::core::PCubeConfig::default());
    let out = sql::execute(&db, "select skyline from r where A0 = 2").unwrap();
    assert!(!out.rows.is_empty());
    for row in &out.rows {
        assert_eq!(row.bool_values[0], "#2", "raw code rendered with # prefix");
    }
    // A non-numeric value on a dictionary-less relation matches nothing.
    let out = sql::execute(&db, "select skyline from r where A0 = 'red'").unwrap();
    assert!(out.rows.is_empty());
}

/// Two different values for one dimension are not a selection: a typed error
/// naming the dimension from every statement kind, planned or not (it used to
/// reach `normalize` and panic). A repeated equal predicate stays legal.
#[test]
fn sql_contradictory_predicates_are_a_typed_error() {
    let db = car_db();
    let heads = [
        "select skyline from cars",
        "select top 3 from cars",
        "select skyline of price, mileage from cars",
        "select skyline in subspace (price) from cars",
    ];
    let tails = ["", " order by price", " prioritize price over mileage", ""];
    for (head, tail) in heads.iter().zip(tails) {
        for explain in ["", "explain "] {
            let clash = format!("{explain}{head} where color = 'red' and color = 'blue'{tail}");
            let err = sql::execute(&db, &clash).err().unwrap_or_else(|| panic!("{clash}"));
            assert!(err.0.contains("contradictory") && err.0.contains("\"color\""), "{clash}: {err}");
            // Another dimension in between does not hide the clash.
            let clash = format!(
                "{explain}{head} where color = 'red' and type = 'suv' and color = 'white'{tail}"
            );
            assert!(sql::execute(&db, &clash).is_err(), "{clash}");

            let once = format!("{explain}{head} where color = 'red'{tail}");
            let twice = format!("{explain}{head} where color = 'red' and color = 'red'{tail}");
            let tids = |text: &str| -> Vec<u64> {
                let out = sql::execute(&db, text).unwrap_or_else(|e| panic!("{text}: {e}"));
                out.rows.iter().map(|r| r.tid).collect()
            };
            assert_eq!(tids(&twice), tids(&once), "{twice}");
        }
    }
}

/// A number literal too long for an f64 is refused where it is read, as a
/// typed error naming it: parsed as `inf`, it made every score `inf`, and
/// `0 × (x − inf)` made them NaN, which panicked the search.
#[test]
fn sql_an_overlong_number_is_a_typed_error() {
    let db = car_db();
    let nines = "9".repeat(400);
    for text in [
        format!("select top 3 from cars where color = 'red' order by 0*(price - {nines})^2"),
        format!("select top 3 from cars order by {nines}*price"),
        format!("explain select top 3 from cars order by price + {nines}.5 * mileage"),
    ] {
        let err = sql::execute(&db, &text).err().unwrap_or_else(|| panic!("{text} ran"));
        assert!(err.0.contains("bad number"), "{text}: {err}");
    }
    // The longest run of nines an f64 holds is still a number.
    let finite = "9".repeat(308);
    let out = sql::execute(&db, &format!("select top 3 from cars order by price + {finite} * mileage"))
        .expect("a finite literal is accepted");
    assert_eq!(out.rows.len(), 3);
}

/// A finite literal can still overflow the ranking on the table's values:
/// `(price − 10^200)²` is `inf` for every car, so every row would tie and
/// the search would read the whole tree and answer the lowest tids. The
/// statement is refused before it runs, and reads no block.
#[test]
fn sql_a_ranking_that_overflows_to_inf_is_refused_before_it_runs() {
    let db = car_db();
    let nines = "9".repeat(200);
    let reads = db.stats().total_reads();
    for text in [
        format!("select top 3 from cars order by (price - {nines})^2"),
        format!("explain select top 3 from cars where color = 'red' order by (price - {nines})^2"),
    ] {
        let err = sql::execute(&db, &text).err().unwrap_or_else(|| panic!("{text} ran"));
        assert!(err.0.contains("overflows"), "{text}: {err}");
    }
    assert_eq!(db.stats().total_reads(), reads, "a refused statement reads nothing");
}

/// On a table with a negative coordinate, two overflowing linear terms make
/// `inf + -inf`: the score is NaN, which the search cannot order. The
/// statement is a typed error, not a panic.
#[test]
fn sql_a_ranking_that_overflows_to_nan_is_a_typed_error() {
    let mut rel = Relation::new(Schema::new(&["kind"], &["x", "y"]));
    for i in 0..200u32 {
        let t = f64::from(i) / 50.0;
        rel.push(&["a"], &[t - 2.0, 3.0 - t]);
    }
    let db = PCubeDb::build(rel, &PCubeConfig::default());
    let nines = "9".repeat(308);
    let text = format!("select top 3 from r order by {nines}*x + {nines}*y");
    let err = sql::execute(&db, &text).err().unwrap_or_else(|| panic!("{text} ran"));
    assert!(err.0.contains("overflows"), "{err}");
    // The same weights on a box they cannot overflow are a ranking.
    let out = sql::execute(&db, "select top 3 from r order by 0.5*x + 0.5*y").expect("finite");
    assert_eq!(out.rows.len(), 3);
}
