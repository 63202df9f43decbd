//! Tiny-size smoke tests of the benchmark: every named metric is reported
//! and finite, no query fails, deterministic values repeat exactly, and an
//! injected fault shows up in the failure accounting.

use std::path::PathBuf;

use perfbench::report::{Metric, END_TO_END, PER_LAYER};
use perfbench::{Fault, Params, Report, Shape, Workload};

fn tiny(test: &str, workload: Workload, seed: u64, trace: bool) -> Params {
    let mut params = Params::new(workload, seed, 0.2, trace);
    params.shape = Shape::Tiny;
    params.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    params
}

fn run(params: &Params) -> Report {
    perfbench::run(params).expect("benchmark run succeeds")
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn assert_named(report: &Report, expected: &[(&str, &str)]) {
    let names: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(names, expected);
    for metric in report.metrics.iter().chain(&report.extra) {
        assert!(metric.value.is_finite(), "{metric:?}");
    }
}

#[test]
fn every_metric_is_present_finite_and_no_query_fails() {
    for workload in Workload::ALL {
        let timed = run(&tiny("present", workload, 3, false));
        assert_named(&timed, &END_TO_END);
        assert!(timed.correct(), "{}: {}", workload.name(), timed.text());
        assert!(timed.tally.attempted > 0);
        assert_eq!(timed.tally.failed, 0);
        assert_eq!(value(&timed.metrics, "success_frac"), 1.0);
        assert_eq!(value(&timed.extra, "failed_frac"), 0.0);
        for metric in &timed.metrics {
            assert!(metric.value > 0.0, "{metric:?} is never 0");
        }
        let json = timed.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(!json.contains('\n'));

        let traced = run(&tiny("present", workload, 3, true));
        assert_named(&traced, &PER_LAYER);
        assert!(traced.correct(), "{}: {}", workload.name(), traced.text());
        let coverage = value(&traced.metrics, "trace.coverage");
        assert!(coverage > 0.5 && coverage < 2.0, "coverage {coverage}");
    }
}

#[test]
fn deterministic_values_repeat_exactly_for_one_seed() {
    const TRACED_COUNTS: [&str; 12] = [
        "plan.fragments_per_query",
        "plan.pruned_frac",
        "io.pages_per_query",
        "io.cache_hit_rate",
        "bitmap.operands_per_fragment",
        "bitmap.compressed_frac",
        "engine.rows_scanned_per_query",
        "file.page_hit_rate",
        "file.decoded_hit_rate",
        "file.bytes_read_per_query",
        "file.segment_reads_per_query",
        "file.bytes_per_row",
    ];
    for workload in Workload::ALL {
        let [a, b] = [0, 1].map(|_| run(&tiny("repeat", workload, 5, false)));
        for name in ["sim_qps", "index_bytes_per_row"] {
            assert_eq!(
                value(&a.metrics, name).to_bits(),
                value(&b.metrics, name).to_bits(),
                "{} {name}",
                workload.name()
            );
        }
        if workload.file_pool_pages().is_some() {
            assert_eq!(
                value(&a.extra, "file_bytes_per_row").to_bits(),
                value(&b.extra, "file_bytes_per_row").to_bits()
            );
        }
        let [a, b] = [0, 1].map(|_| run(&tiny("repeat", workload, 5, true)));
        for name in TRACED_COUNTS {
            assert_eq!(
                value(&a.metrics, name).to_bits(),
                value(&b.metrics, name).to_bits(),
                "{} {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn injected_faults_raise_failed_frac() {
    for workload in [Workload::MixMem, Workload::ZipfPointFile] {
        for fault in [Fault::FlipMeasureBit, Fault::Panic] {
            let mut params = tiny("faults", workload, 7, false);
            params.fault = Some(fault);
            let report = run(&params);
            assert!(report.tally.failed > 0, "{fault:?} on {}", workload.name());
            assert!(value(&report.extra, "failed_frac") > 0.0);
            assert!(value(&report.metrics, "success_frac") < 1.0);
            assert!(!report.correct());
            assert!(report.json().starts_with("{\"correct\": false"));
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(text.matches(&entry).count(), 1, "{entry}");
    }
    for workload in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\"", workload.name())));
    }
    let entries = text.matches("{\"name\": ").count();
    assert_eq!(
        entries,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
