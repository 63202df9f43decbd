//! Compares the current CI run's `BENCH_*.json` outputs against a baseline
//! (the previous successful run's artifacts, or the committed
//! `bench/baseline/` snapshot on a first run) and fails on a performance
//! regression.
//!
//! ```text
//! bench_regression_check --baseline <dir|file> --current <dir|file> \
//!     [--tolerance 0.15]
//! ```
//!
//! For every `BENCH_*.json` present in `--current`, the checker looks for a
//! file of the same name under `--baseline` (missing baselines are skipped
//! with a note — a brand-new bench cannot regress).  When both are
//! directories, a baseline file with no current counterpart is a regression:
//! a bench that stops writing its JSON, or writes it under a new name, must
//! not silently leave the gate.  From each file it extracts every numeric
//! field and aggregates the *comparable metrics*:
//!
//! * **higher-is-better** — fields named `qps` (mean over all occurrences),
//! * **lower-is-better** — the latency fields `latency_mean_ms`,
//!   `latency_p95_ms`, `latency_p99_ms` and `latency_p999_ms`, so the gate
//!   covers the tail of the distribution, not just its centre.
//!
//! A metric regresses when it moves against its direction by more than the
//! tolerance (default ±15 %).  Aggregating to per-file means keeps the gate
//! robust against single noisy sweep points while still catching the
//! across-the-board slowdowns a perf regression produces.  The process
//! exits non-zero if any metric in any file regressed.
//!
//! JSON parsing is a minimal scanner for `"key": <number>` pairs — every
//! compared file is produced by this repository's own bench binaries through
//! [`bench_support::json`], so a full JSON parser (and the dependency it
//! would drag in) is unnecessary.  A non-finite value is written as `null`,
//! which the scanner skips; a metric that is `null` everywhere in a file is
//! therefore reported missing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench_support::arg_value;

/// Metric fields where larger current values are better.
const HIGHER_IS_BETTER: [&str; 1] = ["qps"];
/// Metric fields where smaller current values are better.
const LOWER_IS_BETTER: [&str; 4] = [
    "latency_mean_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "latency_p999_ms",
];

/// Extracts every `"key": <number>` pair from a JSON document, in order.
fn numeric_fields(json: &str) -> Vec<(String, f64)> {
    let mut fields = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        // A quoted string: find its end (bench JSON never escapes quotes).
        let start = i + 1;
        let Some(len) = json[start..].find('"') else {
            break;
        };
        let key = &json[start..start + len];
        i = start + len + 1;
        // Only `"key":` followed by a numeric literal counts.
        let rest = json[i..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let rest = rest.trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        if end > 0 {
            if let Ok(value) = rest[..end].parse::<f64>() {
                fields.push((key.to_string(), value));
            }
        }
    }
    fields
}

/// Mean of every occurrence of each comparable metric in a document.
fn metric_means(json: &str) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for (key, value) in numeric_fields(json) {
        if HIGHER_IS_BETTER.contains(&key.as_str()) || LOWER_IS_BETTER.contains(&key.as_str()) {
            let entry = sums.entry(key).or_insert((0.0, 0));
            entry.0 += value;
            entry.1 += 1;
        }
    }
    sums.into_iter()
        .map(|(key, (sum, count))| (key, sum / count as f64))
        .collect()
}

/// One metric comparison: `Ok` row text, or `Err` regression description.
fn compare_metric(
    key: &str,
    baseline: f64,
    current: f64,
    tolerance: f64,
) -> Result<String, String> {
    let higher_better = HIGHER_IS_BETTER.contains(&key);
    let change = if baseline.abs() > f64::EPSILON {
        current / baseline - 1.0
    } else {
        0.0
    };
    let regressed = if higher_better {
        current < baseline * (1.0 - tolerance)
    } else {
        current > baseline * (1.0 + tolerance)
    };
    let row = format!(
        "{key:>16}: baseline {baseline:>12.3}  current {current:>12.3}  ({change:+.1}%)",
        change = change * 100.0
    );
    if regressed {
        Err(format!(
            "{row}  REGRESSION (direction: {}, tolerance ±{:.0}%)",
            if higher_better {
                "higher is better"
            } else {
                "lower is better"
            },
            tolerance * 100.0
        ))
    } else {
        Ok(row)
    }
}

/// Compares one current file against its baseline; returns regressions.
fn compare_files(baseline_json: &str, current_json: &str, tolerance: f64) -> Vec<String> {
    let baseline = metric_means(baseline_json);
    let current = metric_means(current_json);
    let mut regressions = Vec::new();
    for (key, &current_value) in &current {
        let Some(&baseline_value) = baseline.get(key) else {
            println!("{key:>16}: no baseline value — skipped (new metric)");
            continue;
        };
        match compare_metric(key, baseline_value, current_value, tolerance) {
            Ok(row) => println!("{row}"),
            Err(row) => {
                println!("{row}");
                regressions.push(row);
            }
        }
    }
    // A metric the baseline gated but the current run no longer emits is a
    // regression too — otherwise renaming or dropping a field silently
    // stops the gate from gating it.
    for key in baseline.keys() {
        if !current.contains_key(key) {
            let row = format!(
                "{key:>16}: present in the baseline but MISSING from the current run — \
                 the gate can no longer check it"
            );
            println!("{row}");
            regressions.push(row);
        }
    }
    regressions
}

/// The `BENCH_*.json` files under `path` (or `path` itself when a file).
fn bench_files(path: &Path) -> Vec<PathBuf> {
    if path.is_file() {
        return vec![path.to_path_buf()];
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Compares every current bench file against its baseline and reports
/// every baseline file the current run no longer produces; returns the
/// regressions.
fn compare_runs(baseline: &Path, current: &Path, tolerance: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    for current_path in &bench_files(current) {
        let name = current_path.file_name().expect("bench file has a name");
        let baseline_path = if baseline.is_file() {
            baseline.to_path_buf()
        } else {
            baseline.join(name)
        };
        println!("== {} ==", name.to_string_lossy());
        if !baseline_path.exists() {
            println!(
                "   no baseline at {} — skipped (new bench)",
                baseline_path.display()
            );
            continue;
        }
        let baseline_json =
            std::fs::read_to_string(&baseline_path).expect("baseline file readable");
        let current_json = std::fs::read_to_string(current_path).expect("current file readable");
        regressions.extend(compare_files(&baseline_json, &current_json, tolerance));
        println!();
    }
    if baseline.is_dir() && current.is_dir() {
        for baseline_path in bench_files(baseline) {
            let name = baseline_path.file_name().expect("bench file has a name");
            if !current.join(name).exists() {
                let row = format!(
                    "{}: present in the baseline but MISSING from the current run — \
                     the gate can no longer check it",
                    name.to_string_lossy()
                );
                println!("{row}");
                regressions.push(row);
            }
        }
    }
    regressions
}

fn main() -> ExitCode {
    let baseline_dir =
        PathBuf::from(arg_value("--baseline").unwrap_or_else(|| "bench/baseline".to_string()));
    let current_dir = PathBuf::from(arg_value("--current").unwrap_or_else(|| ".".to_string()));
    let tolerance: f64 =
        arg_value("--tolerance").map_or(0.15, |t| t.parse().expect("tolerance must be a number"));

    if bench_files(&current_dir).is_empty() {
        eprintln!(
            "no BENCH_*.json files under {} — nothing to compare",
            current_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let regressions = compare_runs(&baseline_dir, &current_dir, tolerance);
    if regressions.is_empty() {
        println!(
            "bench regression check passed (tolerance ±{:.0}%)",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench regression check FAILED: {} regression(s); add `[bench-skip]` to the \
             commit message to bypass deliberately",
            regressions.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_support::json::Json;

    const SAMPLE: &str = r#"{
      "bench": "multiuser_throughput",
      "quick": true,
      "points": [
        {"workers": 2, "mpl": 1, "qps": 100.0, "latency_mean_ms": 4.0, "latency_p95_ms": 9.0,
         "latency_p99_ms": 14.0, "latency_p999_ms": 19.0},
        {"workers": 2, "mpl": 4, "qps": 300.0, "latency_mean_ms": 6.0, "latency_p95_ms": 11.0,
         "latency_p99_ms": 16.0, "latency_p999_ms": 21.0}
      ]
    }"#;

    /// Rescales every occurrence of `key` in `json` by `factor`.
    fn scaled(json: &str, key: &str, factor: f64) -> String {
        let mut out = String::new();
        let needle = format!("\"{key}\": ");
        let mut rest = json;
        while let Some(at) = rest.find(&needle) {
            let value_start = at + needle.len();
            out.push_str(&rest[..value_start]);
            rest = &rest[value_start..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
                .unwrap_or(rest.len());
            let value: f64 = rest[..end].parse().unwrap();
            out.push_str(&format!("{}", value * factor));
            rest = &rest[end..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn extracts_numeric_fields_only() {
        let fields = numeric_fields(SAMPLE);
        assert!(fields.contains(&("qps".to_string(), 100.0)));
        assert!(fields.contains(&("latency_p95_ms".to_string(), 11.0)));
        // String values ("bench") and booleans are not numeric fields.
        assert!(fields.iter().all(|(k, _)| k != "bench" && k != "quick"));
    }

    #[test]
    fn means_aggregate_comparable_metrics() {
        let means = metric_means(SAMPLE);
        assert_eq!(means["qps"], 200.0);
        assert_eq!(means["latency_mean_ms"], 5.0);
        assert_eq!(means["latency_p95_ms"], 10.0);
        // Non-metric numerics (workers, mpl) are not aggregated.
        assert!(!means.contains_key("workers"));
    }

    #[test]
    fn identical_runs_pass() {
        assert!(compare_files(SAMPLE, SAMPLE, 0.15).is_empty());
    }

    #[test]
    fn noise_within_tolerance_passes() {
        let wobbly = scaled(SAMPLE, "qps", 0.9);
        assert!(compare_files(SAMPLE, &wobbly, 0.15).is_empty());
    }

    #[test]
    fn a_30_percent_throughput_drop_fails() {
        let regressed = scaled(SAMPLE, "qps", 0.7);
        let failures = compare_files(SAMPLE, &regressed, 0.15);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("qps"));
        assert!(failures[0].contains("REGRESSION"));
    }

    #[test]
    fn a_30_percent_latency_increase_fails() {
        let regressed = scaled(SAMPLE, "latency_mean_ms", 1.3);
        let failures = compare_files(SAMPLE, &regressed, 0.15);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("latency_mean_ms"));
    }

    #[test]
    fn a_30_percent_tail_latency_increase_fails() {
        // A run whose p99/p999 blow up while mean and p95 hold steady —
        // the shape a lock-convoy or overflow-path regression produces —
        // must still fail the gate.
        let regressed = scaled(
            &scaled(SAMPLE, "latency_p99_ms", 1.3),
            "latency_p999_ms",
            1.4,
        );
        let failures = compare_files(SAMPLE, &regressed, 0.15);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("latency_p99_ms")));
        assert!(failures.iter().any(|f| f.contains("latency_p999_ms")));
    }

    #[test]
    fn dropping_a_gated_metric_fails() {
        // Renaming `qps` away must not silently stop the throughput gate.
        let renamed = SAMPLE.replace("\"qps\"", "\"throughput\"");
        let failures = compare_files(SAMPLE, &renamed, 0.15);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("qps"));
        assert!(failures[0].contains("MISSING"));
    }

    /// A report written by the bench binaries' writer: one point per
    /// `(qps, latency_mean_ms, latency_p99_ms)` triple.
    fn written_report(points: &[(f64, f64, f64)]) -> String {
        Json::object([
            ("bench", "round_trip".into()),
            ("quick", true.into()),
            ("cores", 2usize.into()),
            (
                "points",
                Json::Array(
                    points
                        .iter()
                        .enumerate()
                        .map(|(i, &(qps, mean, p99))| {
                            Json::object([
                                ("workers", (i + 1).into()),
                                ("qps", qps.into()),
                                ("latency_mean_ms", mean.into()),
                                ("latency_p99_ms", p99.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("gate", Json::object([("ratio", 0.5.into())])),
        ])
        .render()
    }

    #[test]
    fn the_gate_reads_back_every_value_the_writer_wrote() {
        let points = [
            (38_745.142_078_123_4, 0.025_810_3, 0.412),
            (1e-7, 123_456.789, 0.1 + 0.2),
            (2.0, 7.0 / 3.0, 1e-3),
        ];
        let fields = numeric_fields(&written_report(&points));
        let read = |key: &str| -> Vec<f64> {
            fields
                .iter()
                .filter(|(k, _)| k == key)
                .map(|&(_, v)| v)
                .collect()
        };
        assert_eq!(read("qps"), points.map(|p| p.0));
        assert_eq!(read("latency_mean_ms"), points.map(|p| p.1));
        assert_eq!(read("latency_p99_ms"), points.map(|p| p.2));
        assert_eq!(read("workers"), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn a_non_finite_gated_value_is_reported_missing() {
        let baseline = written_report(&[(100.0, 4.0, 14.0)]);
        for bad in [f64::NAN, f64::INFINITY] {
            let current = written_report(&[(bad, 4.0, 14.0)]);
            assert!(current.contains("\"qps\": null"), "{current}");
            let failures = compare_files(&baseline, &current, 0.15);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("qps"));
            assert!(failures[0].contains("MISSING"));
        }
    }

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "bench_regression_check_{}_{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn with(self, name: &str, json: &str) -> Self {
            std::fs::write(self.0.join(name), json).unwrap();
            self
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn a_vanished_bench_file_fails() {
        let baseline = TempDir::new("vanished_baseline")
            .with("BENCH_a.json", SAMPLE)
            .with("BENCH_b.json", SAMPLE);
        let current = TempDir::new("vanished_current").with("BENCH_a.json", SAMPLE);
        let failures = compare_runs(&baseline.0, &current.0, 0.15);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("BENCH_b.json"));
        assert!(failures[0].contains("MISSING"));

        let complete = TempDir::new("vanished_complete")
            .with("BENCH_a.json", SAMPLE)
            .with("BENCH_b.json", SAMPLE);
        assert!(compare_runs(&baseline.0, &complete.0, 0.15).is_empty());
    }

    #[test]
    fn improvements_never_fail() {
        let faster = scaled(&scaled(SAMPLE, "qps", 2.0), "latency_mean_ms", 0.5);
        assert!(compare_files(SAMPLE, &faster, 0.15).is_empty());
    }
}
