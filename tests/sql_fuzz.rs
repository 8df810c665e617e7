//! The SQL parser must never panic, whatever the input — and neither must
//! binding and execution, whatever the `WHERE` clause repeats.
//!
//! Runs are fully reproducible: the vendored proptest derives its RNG seed
//! deterministically from the test's module path and name (override with
//! `PROPTEST_SEED`), so every CI run replays the identical case sequence.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        let _ = pcube::sql::parse(&input);
    }

    #[test]
    fn parser_never_panics_on_token_soup(
        words in prop::collection::vec(
            prop_oneof![
                Just("select".to_string()),
                Just("skyline".to_string()),
                Just("top".to_string()),
                Just("from".to_string()),
                Just("where".to_string()),
                Just("and".to_string()),
                Just("order".to_string()),
                Just("by".to_string()),
                Just("preference".to_string()),
                Just("of".to_string()),
                Just("in".to_string()),
                Just("subspace".to_string()),
                Just("prioritize".to_string()),
                Just("over".to_string()),
                Just(",".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("^".to_string()),
                Just("2".to_string()),
                Just("*".to_string()),
                Just("+".to_string()),
                Just("-".to_string()),
                Just("=".to_string()),
                Just("'v'".to_string()),
                Just("x".to_string()),
                Just("0.5".to_string()),
            ],
            0..30,
        ),
    ) {
        let _ = pcube::sql::parse(&words.join(" "));
    }

    /// Statements of all four kinds, planned or not, whose `WHERE` clause
    /// draws one to four predicates over two dimensions — so it repeats
    /// dimensions, with the same value or another — and whose top-k weight
    /// is 0.5 (half the cases) or a run of up to 400 nines. Execution answers, or refuses with a
    /// typed error exactly when a literal does not fit an f64 or two
    /// predicates contradict.
    #[test]
    fn execution_never_panics_on_repeated_predicates(
        kind in 0usize..4,
        explain in any::<bool>(),
        preds in prop::collection::vec((0usize..2, 0u32..3), 1..=4),
        nines in prop_oneof![Just(0usize), 1usize..=400],
    ) {
        use pcube::data::{synthetic, SyntheticSpec};
        let spec = SyntheticSpec { n_tuples: 300, n_bool: 2, n_pref: 2, cardinality: 3, ..Default::default() };
        let db = pcube::core::PCubeDb::build(synthetic(&spec), &pcube::core::PCubeConfig::default());
        let filter: Vec<String> = preds.iter().map(|(dim, v)| format!("A{dim} = {v}")).collect();
        let weight = if nines == 0 { "0.5".to_string() } else { "9".repeat(nines) };
        let top = format!(" order by N0 + {weight} * N1");
        let (head, tail) = [
            ("select skyline", ""),
            ("select top 4", top.as_str()),
            ("select skyline of N0, N1", " prioritize N1 over N0"),
            ("select skyline in subspace (N1)", ""),
        ][kind];
        // 10^309 - 1 is past f64::MAX: it would parse as `inf`.
        let overlong = kind == 1 && nines >= 309;
        let text = format!(
            "{}{head} from r where {}{tail}",
            if explain { "explain " } else { "" },
            filter.join(" and ")
        );
        let contradictory =
            preds.iter().any(|(d, v)| preds.iter().any(|(e, w)| d == e && v != w));
        match pcube::sql::execute(&db, &text) {
            Ok(_) => prop_assert!(!contradictory && !overlong, "{} ran", text),
            Err(e) if overlong => prop_assert!(e.0.contains("bad number"), "{}: {}", text, e),
            Err(e) => prop_assert!(contradictory && e.0.contains("contradictory"), "{}: {}", text, e),
        }
    }
}
