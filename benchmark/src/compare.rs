//! Result files and the `compare` table: one row per workload × metric with
//! both medians, their ratio with its base, and `ok` / `worse` / `unresolved`
//! against the metric's bound. The pipeline and reviewers read the same table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef};
use crate::stats;

/// One run of one workload, as `all` stores it.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Run {
    /// Reads the benchmark's result line (plus the fields `all` adds).
    pub fn from_json(json: &Json) -> Result<Run, String> {
        let field = |key: &str| {
            json.get(key)
                .ok_or_else(|| format!("result is missing {key:?}"))
        };
        let mut metrics = BTreeMap::new();
        for (name, entry) in field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
        {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no value"))?;
            let unit = entry
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name}: no unit"))?;
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(Run {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            seed: field("seed")?.as_f64().ok_or("seed is not a number")? as u64,
            correct: field("correct")? == &Json::Bool(true),
            attempted: field("attempted")?
                .as_f64()
                .ok_or("attempted is not a number")? as u64,
            failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
            metrics,
        })
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, (value, unit))| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.clone())),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }
}

/// Parses a result file written by `all`: `{"runs": [...]}`.
pub fn parse_results(text: &str) -> Result<Vec<Run>, String> {
    let json = Json::parse(text)?;
    json.get("runs")
        .and_then(Json::as_arr)
        .ok_or("no \"runs\" array")?
        .iter()
        .map(Run::from_json)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap, so neither "unchanged" nor "worse" can be said.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    Unbounded,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// Judges `candidate` against `base` for one metric.
pub fn judge(def: &MetricDef, base: &[f64], candidate: &[f64]) -> Verdict {
    let (mb, mc) = (stats::median(base), stats::median(candidate));
    let worse_by = match def.better {
        Better::Lower => mc - mb,
        Better::Higher => mb - mc,
    };
    let allowed = def.bound * mb.abs();
    let spread = stats::spread(base).max(stats::spread(candidate));
    if spread > def.bound {
        let better = |c: f64, b: f64| match def.better {
            Better::Lower => c < b,
            Better::Higher => c > b,
        };
        let dominates = candidate
            .iter()
            .all(|&c| base.iter().all(|&b| better(c, b)));
        return if dominates {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Renders the comparison of two result sets; the flag is `true` when any
/// row reads `worse` (or a run on either side was incorrect).
pub fn table(base: &[Run], candidate: &[Run]) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<17} {:<44} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base (median)", "candidate", "ratio", "spread", "bound"
    );
    for workload in metrics::WORKLOADS {
        let side = |runs: &[Run]| -> Vec<Run> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .cloned()
                .collect()
        };
        let (a, b) = (side(base), side(candidate));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        for run in a.iter().chain(&b) {
            if !run.correct {
                bad = true;
                let _ = writeln!(
                    out,
                    "{workload:<17} seed {} reported incorrect results",
                    run.seed
                );
            }
        }
        let names: Vec<&String> = a[0]
            .metrics
            .keys()
            .filter(|n| b[0].metrics.contains_key(*n))
            .collect();
        for name in names {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name))
                    .map(|m| m.0)
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            let unit = &a[0].metrics[name].1;
            let def = metrics::end_to_end(name).filter(|d| d.applies_to(workload));
            let verdict = def.map_or(Verdict::Unbounded, |d| judge(d, &va, &vb));
            bad |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let ratio = if ma != 0.0 {
                format!("{:.3}", mb / ma)
            } else {
                "-".to_string()
            };
            let spread = stats::spread(&va).max(stats::spread(&vb));
            let bound = def.map_or("-".to_string(), |d| format!("{:.2}", d.bound));
            let _ = writeln!(
                out,
                "{workload:<17} {name:<44} {ma:>14.6} {mb:>14.6} {ratio:>8} {spread:>7.3} {bound:>6}  {} [{unit}]",
                verdict.label()
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            bound,
            workloads: None,
            exact: false,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = def(Better::Lower, 0.10);
        let calm = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(&lower, &calm, &[10.5, 10.6, 10.4, 10.5]), Verdict::Ok);
        assert_eq!(
            judge(&lower, &calm, &[12.0, 12.1, 11.9, 12.0]),
            Verdict::Worse
        );
        // Spread wider than the bound and the sides overlap: unresolved.
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            judge(&lower, &noisy, &[9.0, 11.0, 13.0, 15.0]),
            Verdict::Unresolved
        );
        // … unless every candidate run beats every base run.
        assert_eq!(judge(&lower, &noisy, &[4.0, 5.0, 6.0, 7.0]), Verdict::Ok);
        let higher = def(Better::Higher, 0.10);
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&higher, &base, &[80.0, 81.0, 79.0, 80.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &base, &[120.0, 121.0, 119.0, 120.0]),
            Verdict::Ok
        );
        // A bound of 0 tolerates nothing.
        let exact = def(Better::Lower, 0.0);
        assert_eq!(judge(&exact, &[0.0], &[0.0]), Verdict::Ok);
        assert_eq!(judge(&exact, &[0.0], &[0.01]), Verdict::Worse);
    }

    #[test]
    fn table_has_a_row_per_workload_and_metric() {
        let run = |workload: &str, seed: u64, p50: f64| Run {
            workload: workload.to_string(),
            seed,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: BTreeMap::from([
                ("query_p50_ms".to_string(), (p50, "ms".to_string())),
                ("rtree.read_node_ns".to_string(), (300.0, "ns".to_string())),
            ]),
        };
        let base = vec![run("selective_probe", 1, 5.0), run("write_mix", 1, 7.0)];
        let cand = vec![run("selective_probe", 1, 9.0), run("write_mix", 1, 7.1)];
        let (text, bad) = table(&base, &cand);
        assert!(bad);
        assert_eq!(text.lines().count(), 1 + 4);
        assert!(text.lines().any(|l| l.contains("selective_probe")
            && l.contains("query_p50_ms")
            && l.contains("worse")));
        assert!(text
            .lines()
            .any(|l| l.contains("write_mix") && l.contains("query_p50_ms") && l.contains(" ok ")));
        assert!(text
            .lines()
            .any(|l| l.contains("rtree.read_node_ns") && l.contains(" - ")));
    }
}
