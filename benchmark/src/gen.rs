//! Seeded input generation: every query, statement and transaction the
//! workloads send is a pure function of `--seed` and the generated table.

use crate::adapter::{self, Class, Query, Table, WriteOp};

/// splitmix64: small, fast, and its streams are a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so that a workload's
    /// data, queries and transactions do not share one sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A weight in `(0, 1]` with three decimals, so that its SQL text and
    /// its `f64` are the same number.
    pub fn weight(&mut self) -> f64 {
        (1 + self.below(1000)) as f64 / 1000.0
    }
}

/// `n` predicates on distinct dimensions drawn from `dims`, with the values
/// of a random existing row — so the selection matches at least that row.
pub fn predicates(table: &Table, dims: &[usize], n: usize, rng: &mut Rng) -> Vec<(usize, u32)> {
    let tid = rng.below(adapter::table_rows(table) as u64);
    let mut pool = dims.to_vec();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n.min(pool.len()) {
        let dim = pool.swap_remove(rng.below(pool.len() as u64) as usize);
        out.push((dim, adapter::bool_code(table, tid, dim)));
    }
    out.sort_unstable();
    out
}

fn topk(k: usize, n_pref: usize, rng: &mut Rng) -> Class {
    Class::TopK {
        k,
        weights: (0..n_pref).map(|_| rng.weight()).collect(),
    }
}

/// Two distinct preference dimensions, in random order.
fn two_dims(n_pref: usize, rng: &mut Rng) -> (usize, usize) {
    let a = rng.below(n_pref as u64) as usize;
    let b = (a + 1 + rng.below(n_pref as u64 - 1) as usize) % n_pref;
    (a, b)
}

/// A single-edge priority graph over all dimensions: `a OVER b`.
fn pskyline(n_pref: usize, rng: &mut Rng) -> Class {
    Class::PSkyline {
        dims: (0..n_pref).collect(),
        edges: vec![two_dims(n_pref, rng)],
    }
}

fn dim_pair(n_pref: usize, rng: &mut Rng) -> (usize, usize) {
    let (a, b) = two_dims(n_pref, rng);
    (a.min(b), a.max(b))
}

/// `selective_probe`: 2–3 predicates, the six classes in rotation.
pub fn selective_queries(table: &Table, count: usize, rng: &mut Rng) -> Vec<Query> {
    let n_pref = adapter::n_pref(table);
    let dims: Vec<usize> = (0..adapter::n_bool(table)).collect();
    (0..count)
        .map(|i| {
            let class = match i % 6 {
                0 => topk(10, n_pref, rng),
                1 => {
                    let (a, b) = dim_pair(n_pref, rng);
                    Class::Skyline { dims: vec![a, b] }
                }
                2 => Class::Skyline {
                    dims: (0..n_pref).collect(),
                },
                3 => {
                    let (a, b) = dim_pair(n_pref, rng);
                    Class::Subspace { dims: vec![a, b] }
                }
                4 => pskyline(n_pref, rng),
                _ => Class::Dynamic {
                    point: (0..n_pref).map(|_| rng.unit()).collect(),
                    dims: (0..n_pref).collect(),
                },
            };
            // Two and three predicates alternate per turn of the rotation, so
            // every seed sends the same mix.
            let n_preds = 2 + (i / 6) % 2;
            Query {
                class,
                preds: predicates(table, &dims, n_preds, rng),
            }
        })
        .collect()
}

/// `broad_preference`: 0–1 predicates; 3-D skyline, hull, p-skyline and
/// top-100 in a fixed pattern of 50 slots, so that every seed sends the same
/// mix. Latency here is multi-modal (an unfiltered hull costs a hundred times
/// a filtered top-k), and a percentile that falls between two modes jumps
/// from run to run; the shares below put the median inside the filtered
/// skylines (30–64 % of the sorted latencies) and p95 and p99 inside the
/// unfiltered hulls (the top 6 %).
pub fn broad_queries(table: &Table, count: usize, rng: &mut Rng) -> Vec<Query> {
    #[derive(Clone, Copy)]
    enum Kind {
        TopK,
        PSkyline,
        Skyline,
        Hull,
    }
    // (kind, predicates, slots out of 50)
    const SHARES: [(Kind, usize, usize); 7] = [
        (Kind::TopK, 1, 5),
        (Kind::TopK, 0, 2),
        (Kind::PSkyline, 1, 8),
        (Kind::Skyline, 1, 17),
        (Kind::Hull, 1, 13),
        (Kind::Skyline, 0, 2),
        (Kind::Hull, 0, 3),
    ];
    let n_pref = adapter::n_pref(table);
    let dims: Vec<usize> = (0..adapter::n_bool(table)).collect();
    let mut pattern: Vec<(Kind, usize)> = SHARES
        .iter()
        .flat_map(|&(kind, preds, slots)| std::iter::repeat_n((kind, preds), slots))
        .collect();
    // A fixed shuffle: heavy and light requests alternate within a round
    // rather than arriving in blocks.
    let mut order = Rng::new(0x5107, 0);
    for i in (1..pattern.len()).rev() {
        pattern.swap(i, order.below(i as u64 + 1) as usize);
    }
    (0..count)
        .map(|i| {
            let (kind, n_preds) = pattern[i % pattern.len()];
            let class = match kind {
                Kind::TopK => topk(100, n_pref, rng),
                Kind::PSkyline => pskyline(n_pref, rng),
                Kind::Skyline => Class::Skyline {
                    dims: (0..n_pref).collect(),
                },
                Kind::Hull => Class::Hull {
                    dims: dim_pair(n_pref, rng),
                },
            };
            Query {
                class,
                preds: predicates(table, &dims, n_preds, rng),
            }
        })
        .collect()
}

/// One SQL statement and the query it must answer like.
#[derive(Debug, Clone)]
pub struct Statement {
    pub text: String,
    pub query: Query,
}

/// Renders `query` as an `EXPLAIN`-prefixed statement (the only SQL route
/// through the planner). `None` for the classes SQL cannot express.
pub fn to_sql(table: &Table, query: &Query) -> Option<String> {
    let pref = |d: usize| adapter::pref_name(table, d).to_string();
    let names = |dims: &[usize]| dims.iter().map(|&d| pref(d)).collect::<Vec<_>>().join(", ");
    let filter = if query.preds.is_empty() {
        String::new()
    } else {
        let conj: Vec<String> = query
            .preds
            .iter()
            .map(|&(d, v)| format!("{} = {v}", adapter::bool_name(table, d)))
            .collect();
        format!(" WHERE {}", conj.join(" AND "))
    };
    Some(match &query.class {
        Class::TopK { k, weights } => {
            let terms: Vec<String> = weights
                .iter()
                .enumerate()
                .map(|(d, w)| format!("{w} * {}", pref(d)))
                .collect();
            format!(
                "EXPLAIN SELECT TOP {k} FROM r{filter} ORDER BY {}",
                terms.join(" + ")
            )
        }
        Class::Skyline { dims } => {
            format!(
                "EXPLAIN SELECT SKYLINE FROM r{filter} PREFERENCE BY {}",
                names(dims)
            )
        }
        Class::Subspace { dims } => {
            format!(
                "EXPLAIN SELECT SKYLINE IN SUBSPACE ({}) FROM r{filter}",
                names(dims)
            )
        }
        Class::PSkyline { dims, edges } => {
            let over: Vec<String> = edges
                .iter()
                .map(|&(a, b)| format!("{} OVER {}", pref(a), pref(b)))
                .collect();
            format!(
                "EXPLAIN SELECT SKYLINE OF {} FROM r{filter} PRIORITIZE {}",
                names(dims),
                over.join(" AND ")
            )
        }
        Class::Dynamic { .. } | Class::Hull { .. } => return None,
    })
}

/// `planned_sql`: top-k, skyline, p-skyline and subspace statements whose
/// predicate sets sweep the estimated selectivity from a few rows to half
/// the table: one to three predicates taken from the rare high-cardinality
/// dimensions, from the binary ones, or from both.
///
/// Statement latency has two modes: top-k and skyline statements rebuild
/// the boolean indexes per statement (~40 ms at 60k rows), p-skyline and
/// subspace statements only the catalog (~9 ms). Six statements in eight are
/// of the light kind, which puts the median inside the light mode and p95
/// and p99 inside the heavy one, in every seed.
pub fn sql_statements(table: &Table, count: usize, rng: &mut Rng) -> Vec<Statement> {
    let n_pref = adapter::n_pref(table);
    let n_bool = adapter::n_bool(table);
    // CoverType surrogate: dimensions 0–3 have cardinalities 255 … 67,
    // dimension 4 has 7, the rest are binary.
    let rare: Vec<usize> = (0..n_bool.min(4)).collect();
    let common: Vec<usize> = (n_bool.min(4)..n_bool).collect();
    let all: Vec<usize> = (0..n_bool).collect();
    (0..count)
        .map(|i| {
            let turn = i / 8;
            let class = match i % 8 {
                // A small k on one common predicate is where domination-first
                // wins; larger k is P-Cube's.
                3 => topk([2, 10, 50][turn % 3], n_pref, rng),
                7 => Class::Skyline {
                    dims: (0..n_pref).collect(),
                },
                0 | 2 | 5 => pskyline(n_pref, rng),
                _ => {
                    let (a, b) = dim_pair(n_pref, rng);
                    Class::Subspace { dims: vec![a, b] }
                }
            };
            let (pool, n_preds) = match (turn + i % 8) % 6 {
                0 => (&common, 1),
                1 => (&rare, 1),
                2 => (&all, 2),
                3 => (&rare, 2),
                4 => (&common, 3),
                _ => (&all, 3),
            };
            let pool = if pool.is_empty() { &all } else { pool };
            let query = Query {
                class,
                preds: predicates(table, pool, n_preds, rng),
            };
            let text =
                to_sql(table, &query).expect("planned_sql only generates SQL-expressible classes");
            Statement { text, query }
        })
        .collect()
}

/// `write_mix`: `count` transactions of two inserts and two deletes, so the
/// live size stays constant. Inserted rows copy the boolean codes of a
/// random existing row (the cells stay populated) under fresh coordinates;
/// deletes walk the original tids in order, so no tid is deleted twice.
pub fn transactions(table: &Table, count: usize, rng: &mut Rng) -> Vec<Vec<WriteOp>> {
    let rows = adapter::table_rows(table) as u64;
    assert!(
        2 * count as u64 <= rows,
        "write_mix deletes two original rows per transaction"
    );
    let n_bool = adapter::n_bool(table);
    let n_pref = adapter::n_pref(table);
    (0..count as u64)
        .map(|t| {
            let mut ops = Vec::with_capacity(4);
            for _ in 0..2 {
                let like = rng.below(rows);
                ops.push(WriteOp::Insert {
                    codes: (0..n_bool)
                        .map(|d| adapter::bool_code(table, like, d))
                        .collect(),
                    coords: (0..n_pref).map(|_| rng.unit()).collect(),
                });
            }
            ops.push(WriteOp::Delete { tid: 2 * t });
            ops.push(WriteOp::Delete { tid: 2 * t + 1 });
            ops
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 1), draw(42, 1));
        assert_ne!(draw(42, 1), draw(43, 1));
        assert_ne!(draw(42, 1), draw(42, 2));
        let mut rng = Rng::new(7, 0);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            let w = rng.weight();
            assert!(w > 0.0 && w <= 1.0);
            assert_eq!(format!("{w}").parse::<f64>().unwrap(), w);
        }
    }
}
