//! The metric tables: names, units, directions, bounds, and which workload
//! reports which end-to-end metric.
//!
//! `BENCHMARK.json` (embedded at build time) is what the pipeline reads. It
//! can only list metrics that *every* workload prints, so its `end_to_end`
//! holds the workload-independent metrics and the write-path ones ride in
//! `per_layer`. [`END_TO_END`] is the full table the `all` and `compare`
//! subcommands use; a unit test keeps the two consistent.

use std::collections::BTreeMap;

use crate::json::Json;

pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 4] = [
    "selective_probe",
    "broad_preference",
    "planned_sql",
    "write_mix",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
    /// Workloads that report it (`None` = all four).
    pub workloads: Option<&'static [&'static str]>,
    /// A count that must repeat exactly for one seed on the serial workloads.
    pub exact: bool,
}

const fn every(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        workloads: None,
        exact,
    }
}

const fn write_only(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        workloads: Some(&["write_mix"]),
        exact,
    }
}

/// The 14 end-to-end metrics. A bound is a share of the baseline median. The
/// timing bounds are as wide as the pipeline allows (0.25): the shared
/// two-core host this was sized on drifts by 10–30 % over minutes, which
/// moves every timing of a run together (README.md has the table of
/// spreads). Counts are bounded tighter.
pub const END_TO_END: [MetricDef; 14] = [
    every("setup_s", "s", Better::Lower, 0.25, false),
    every("query_qps", "1/s", Better::Higher, 0.25, false),
    every("query_p50_ms", "ms", Better::Lower, 0.25, false),
    every("query_p95_ms", "ms", Better::Lower, 0.25, false),
    every("query_p99_ms", "ms", Better::Lower, 0.25, false),
    every("blocks_per_query", "count", Better::Lower, 0.10, true),
    every("bytes_per_tuple", "B", Better::Lower, 0.05, true),
    every("peak_rss_mb", "MB", Better::Lower, 0.20, false),
    // Not in BENCHMARK.json: it is 0 on a correct run, and the pipeline's
    // result line already carries `failed` / `attempted`.
    every("error_rate", "ratio", Better::Lower, 0.0, true),
    write_only("commit_tps", "1/s", Better::Higher, 0.25, false),
    write_only("commit_p50_ms", "ms", Better::Lower, 0.25, false),
    write_only(
        "wal_bytes_per_user_byte",
        "ratio",
        Better::Lower,
        0.05,
        true,
    ),
    write_only("checkpoint_s", "s", Better::Lower, 0.25, false),
    write_only("recovery_s", "s", Better::Lower, 0.25, false),
];

impl MetricDef {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_none_or(|w| w.contains(&workload))
    }
}

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
}

/// Metric name → value, in name order (so emitted JSON is stable).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, Value>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), Value { value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.value)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| {
                    let entry = Json::obj([
                        ("value", Json::Num(v.value)),
                        ("unit", Json::Str(v.unit.to_string())),
                    ]);
                    (k.clone(), entry)
                })
                .collect(),
        )
    }
}

/// The parsed manifest: what the pipeline expects each run to print.
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<ManifestMetric>,
    pub per_layer: Vec<ManifestMetric>,
}

#[derive(Debug, Clone)]
pub struct ManifestMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

pub fn manifest() -> Manifest {
    let json = Json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
    let text = |j: &Json, key: &str| {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
            .to_string()
    };
    let list = |key: &str| -> Vec<ManifestMetric> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
            .iter()
            .map(|m| ManifestMetric {
                name: text(m, "name"),
                unit: text(m, "unit"),
                better: text(m, "better"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Manifest {
        run_seconds: json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json: run_seconds"),
        workloads: json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect(),
        end_to_end: list("end_to_end"),
        per_layer: list("per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn manifest_matches_the_tables_and_the_contract() {
        let m = manifest();
        assert_eq!(m.workloads, WORKLOADS);
        assert!((1.0..=60.0).contains(&m.run_seconds) && m.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));

        let mut seen = std::collections::BTreeSet::new();
        for metric in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(
                valid_name(&metric.name),
                "bad metric name {:?}",
                metric.name
            );
            assert!(
                seen.insert(metric.name.clone()),
                "{} is listed twice",
                metric.name
            );
            assert!(metric.unit.len() <= 16 && !metric.unit.is_empty());
            assert!(matches!(metric.better.as_str(), "lower" | "higher"));
        }
        assert!(m
            .end_to_end
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower"));

        // The pipeline's end-to-end list is exactly the metrics every
        // workload reports (less error_rate, which is 0 on a correct run),
        // with the table's unit, direction and bound.
        for entry in &m.end_to_end {
            let def = end_to_end(&entry.name)
                .unwrap_or_else(|| panic!("{} not in END_TO_END", entry.name));
            assert!(
                def.workloads.is_none(),
                "{} is not reported by every workload",
                def.name
            );
            assert_eq!(entry.unit, def.unit);
            assert_eq!(entry.better == "lower", def.better == Better::Lower);
            let bound = entry.bound.expect("end-to-end metrics carry a bound");
            assert_eq!(bound, def.bound, "{}", def.name);
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for def in &END_TO_END {
            let listed = m.end_to_end.iter().any(|e| e.name == def.name);
            if def.workloads.is_none() && def.name != "error_rate" {
                assert!(
                    listed,
                    "{} is missing from BENCHMARK.json end_to_end",
                    def.name
                );
            } else {
                assert!(!listed);
                // Write-path metrics ride in per_layer under the same names.
                assert!(
                    m.per_layer
                        .iter()
                        .any(|p| p.name == def.name && p.unit == def.unit),
                    "{}",
                    def.name
                );
            }
        }
        for entry in &m.per_layer {
            assert!(entry.bound.is_none(), "per-layer metrics have no bound");
        }
    }
}
