//! The property suites' generated tables: rows of boolean codes and
//! preference coordinates, and the database built over them. Included
//! (`#[path]`) by `differential_oracle` and `prop_end_to_end`.

use pcube::core::{PCubeConfig, PCubeDb};
use pcube::cube::{Relation, Schema};
use proptest::prelude::*;

/// One generated row; its tid is its position in the table.
#[derive(Debug, Clone)]
pub struct Row {
    pub codes: Vec<u32>,
    pub coords: Vec<f64>,
}

/// Up to `max_rows` rows of `n_bool` codes in `0..4` and `n_pref`
/// coordinates in `[0, 1)`.
pub fn arb_rows(n_bool: usize, n_pref: usize, max_rows: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u32..4, n_bool..=n_bool),
            prop::collection::vec(0.0f64..1.0, n_pref..=n_pref),
        )
            .prop_map(|(codes, coords)| Row { codes, coords }),
        1..max_rows,
    )
}

/// A database over `rows`, with boolean dimensions `A0..` and preference
/// dimensions `N0..`, at the default configuration.
pub fn db_from(rows: &[Row], n_bool: usize, n_pref: usize) -> PCubeDb {
    let bool_names: Vec<String> = (0..n_bool).map(|i| format!("A{i}")).collect();
    let pref_names: Vec<String> = (0..n_pref).map(|i| format!("N{i}")).collect();
    let schema = Schema::new(
        &bool_names.iter().map(String::as_str).collect::<Vec<_>>(),
        &pref_names.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut relation = Relation::new(schema);
    for r in rows {
        relation.push_coded(&r.codes, &r.coords);
    }
    PCubeDb::build(relation, &PCubeConfig::default())
}
