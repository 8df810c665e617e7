//! Runs every workload at `--scale smoke` and checks what the pipeline and
//! later issues rely on: counts repeat exactly for one seed, another seed
//! gives other inputs, and the emitted metrics are the manifest's.

use std::path::PathBuf;

use pcube_benchmark::json::Json;
use pcube_benchmark::metrics::{self, END_TO_END, WORKLOADS};
use pcube_benchmark::workloads::{self, RunConfig, RunResult, Scale};

fn run(workload: &str, seed: u64, trace: bool, tag: &str) -> (RunResult, PathBuf) {
    // One directory per call: tests run on parallel threads of one process.
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{workload}-{seed}"));
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 0.5,
        trace,
        scale: Scale::Smoke,
        out_dir,
    };
    let result = workloads::run(&cfg)
        .unwrap_or_else(|e| panic!("{workload} (seed {seed}) did not run: {e}"));
    assert_eq!(
        result.failed, 0,
        "{workload} (seed {seed}): {:?}",
        result.failures
    );
    assert!(result.attempted > 0);
    (result, cfg.out_dir)
}

#[test]
fn one_seed_repeats_every_exact_metric_and_another_seed_changes_the_inputs() {
    for workload in WORKLOADS {
        let (a, _) = run(workload, 7, false, "repeat-a");
        let (b, _) = run(workload, 7, false, "repeat-b");
        let (c, _) = run(workload, 8, false, "repeat-c");
        assert_eq!(
            a.input_digest, b.input_digest,
            "{workload}: one seed, two input sets"
        );
        assert_ne!(
            a.input_digest, c.input_digest,
            "{workload}: seeds 7 and 8 gave the same inputs"
        );
        for def in END_TO_END
            .iter()
            .filter(|d| d.exact && d.applies_to(workload))
        {
            // Two parallel workers prune by what the other has found so far,
            // so this one count depends on their interleaving.
            if workload == "broad_preference" && def.name == "blocks_per_query" {
                continue;
            }
            let (va, vb) = (a.metrics.get(def.name), b.metrics.get(def.name));
            assert!(va.is_some(), "{workload} did not report {}", def.name);
            assert_eq!(
                va.map(f64::to_bits),
                vb.map(f64::to_bits),
                "{workload}: {} differs between two runs of seed 7: {va:?} vs {vb:?}",
                def.name
            );
        }
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_the_manifests_metrics() {
    let manifest = metrics::manifest();
    for workload in WORKLOADS {
        // Untraced: every end-to-end metric that lists this workload, each
        // with the table's unit and a usable value.
        let (plain, _) = run(workload, 11, false, "emit");
        for def in END_TO_END.iter().filter(|d| d.applies_to(workload)) {
            let v = plain
                .metrics
                .0
                .get(def.name)
                .unwrap_or_else(|| panic!("{workload}: no {}", def.name));
            assert_eq!(v.unit, def.unit, "{workload}: unit of {}", def.name);
            assert!(
                v.value.is_finite(),
                "{workload}: {} = {}",
                def.name,
                v.value
            );
            if def.name != "error_rate" {
                assert!(v.value > 0.0, "{workload}: {} must never be 0", def.name);
            }
        }
        for entry in &manifest.end_to_end {
            assert!(
                plain.metrics.0.contains_key(&entry.name),
                "{workload}: no {}",
                entry.name
            );
        }

        // Traced: every per-layer metric of the manifest, and one span file.
        let (traced, out_dir) = run(workload, 11, true, "emit-traced");
        for entry in &manifest.per_layer {
            let v = traced
                .metrics
                .0
                .get(&entry.name)
                .unwrap_or_else(|| panic!("{workload}: no {}", entry.name));
            assert_eq!(v.unit, entry.unit, "{workload}: unit of {}", entry.name);
            assert!(
                v.value.is_finite(),
                "{workload}: {} = {}",
                entry.name,
                v.value
            );
        }
        for name in traced.metrics.0.keys().chain(plain.metrics.0.keys()) {
            assert!(valid_name(name), "{workload}: metric name {name:?}");
        }
        let coverage = traced
            .metrics
            .get("trace.coverage_ratio")
            .expect("checked above");
        assert!(
            coverage >= 0.9,
            "{workload}: spans cover {coverage} of the clients' wall time"
        );

        let path = out_dir.join(format!("trace-{workload}.json"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let spans = Json::parse(&text).expect("span file is JSON");
        let spans = spans
            .get("spans")
            .and_then(Json::as_arr)
            .expect("span file has spans");
        assert!(!spans.is_empty());
        for span in spans {
            let num = |key: &str| {
                span.get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("span without {key}"))
            };
            assert!(num("end_ns") >= num("start_ns"));
            assert!(span.get("name").and_then(Json::as_str).is_some());
            assert!(span.get("request").is_some() && span.get("parent").is_some());
        }
    }
}
