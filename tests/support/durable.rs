//! The durability suites' seed table. Included (`#[path]`) by
//! `concurrent_maintenance`, `crash_recovery`, `group_commit`,
//! `scrub_repair` and `enospc_faults`; each passes its own row count.

use pcube::prelude::*;

/// `rows` rows over two boolean dimensions (`A`: three values, `B`: two)
/// and two preference dimensions on fixed strides in `[0, 1)`.
pub fn seed_relation(rows: usize) -> Relation {
    let mut r = Relation::new(Schema::new(&["A", "B"], &["x", "y"]));
    let vals_a = ["a1", "a2", "a3"];
    let vals_b = ["b1", "b2"];
    for i in 0..rows {
        let x = (i as f64 * 0.3771).fract();
        let y = (i as f64 * 0.6113 + 0.131).fract();
        r.push(&[vals_a[i % 3], vals_b[i % 2]], &[x, y]);
    }
    r
}
