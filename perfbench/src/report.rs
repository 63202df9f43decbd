//! Metrics, the environment stamp and the report's text and JSON forms.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use crate::oracle::Tally;
use crate::setup::Fixture;
use crate::timed::Timed;
use crate::traced::Layers;
use crate::{median, Params, DISKS, SIM_CACHE_PAGES, WORKERS};

/// The end-to-end metrics of a timed run (`--trace 0`), in output order,
/// with their units.  `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 8] = [
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("sim_qps", "1/s"),
    ("success_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("index_bytes_per_row", "B"),
];

/// The per-layer metrics of a traced run (`--trace 1`), in output order,
/// with their units.  `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("plan.us_per_query", "us"),
    ("plan.fragments_per_query", "count"),
    ("plan.pruned_frac", "ratio"),
    ("io.charge_us_per_query", "us"),
    ("io.charge_us.1MONTH1GROUP", "us"),
    ("io.charge_us.1CODE1QUARTER", "us"),
    ("io.pages_per_query", "count"),
    ("io.cache_hit_rate", "ratio"),
    ("bitmap.select_and_us_per_fragment", "us"),
    ("bitmap.operands_per_fragment", "count"),
    ("bitmap.compressed_frac", "ratio"),
    ("engine.execute_us_per_query", "us"),
    ("engine.execute_us.1MONTH1GROUP", "us"),
    ("engine.execute_us.1CODE1QUARTER", "us"),
    ("engine.aggregate_us_per_query", "us"),
    ("engine.rows_scanned_per_query", "count"),
    ("file.read_us_p50", "us"),
    ("file.read_us_p99", "us"),
    ("file.page_hit_rate", "ratio"),
    ("file.decoded_hit_rate", "ratio"),
    ("file.bytes_read_per_query", "B"),
    ("file.segment_reads_per_query", "count"),
    ("file.write_s", "s"),
    ("file.open_s", "s"),
    ("file.bytes_per_row", "B"),
    ("scheduler.utilisation", "ratio"),
    ("scheduler.admission_wait_p50_ms", "ms"),
    ("scheduler.steal_rate", "ratio"),
    ("session.pool_busy_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples it was computed from.
    pub samples: u64,
}

impl Metric {
    /// A metric named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// A run's report: the environment stamp, the contract metrics, metrics
/// printed for information only, and the failure accounting.
#[derive(Debug, Clone)]
pub struct Report {
    /// Key/value pairs describing machine, build, seed and workload.
    pub env: Vec<(&'static str, String)>,
    /// The metrics of the final JSON line: `END_TO_END` for a timed run,
    /// `PER_LAYER` for a traced run.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the text report only.
    pub extra: Vec<Metric>,
    /// Queries attempted and failed (the timed phase, plus the replay's
    /// checked answers in a traced run).
    pub tally: Tally,
}

impl Report {
    /// A report stamped with `params` and `fixture`'s environment.
    #[must_use]
    pub fn new(params: &Params, fixture: &Fixture) -> Self {
        let workload = params.workload;
        let store = fixture.store();
        let types: Vec<String> = workload.query_types().iter().map(|t| t.name()).collect();
        let env = vec![
            ("workload", workload.name().to_string()),
            ("seed", params.seed.to_string()),
            ("seconds", params.seconds.to_string()),
            ("trace", u8::from(params.trace).to_string()),
            ("cores", cores().to_string()),
            (
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
            ("commit", git_commit(Path::new(env!("CARGO_MANIFEST_DIR")))),
            ("shape", format!("{:?}", params.shape)),
            ("rows", store.total_rows().to_string()),
            ("fragments", store.fragment_count().to_string()),
            ("index_bytes", store.index_size_bytes().to_string()),
            (
                "file_bytes",
                fixture
                    .file
                    .as_ref()
                    .map_or("-".into(), |f| f.bytes.to_string()),
            ),
            (
                "pool_pages",
                fixture
                    .file
                    .as_ref()
                    .map_or("-".into(), |f| f.pool_pages.to_string()),
            ),
            (
                "backing",
                if fixture.file.is_some() {
                    "file"
                } else {
                    "memory"
                }
                .into(),
            ),
            (
                "driver",
                if workload.streams() {
                    "stream"
                } else {
                    "execute"
                }
                .into(),
            ),
            ("clients", workload.clients().to_string()),
            ("workers", WORKERS.to_string()),
            ("disks", DISKS.to_string()),
            ("sim_cache_pages", SIM_CACHE_PAGES.to_string()),
            ("query_types", types.join(",")),
            ("theta", workload.theta().to_string()),
            ("pool_queries", fixture.queries.len().to_string()),
        ];
        Report {
            env,
            metrics: Vec::new(),
            extra: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Records the timed phase's failure accounting and pass count.
    pub fn add_timed(&mut self, timed: &Timed) {
        self.tally.merge(timed.tally);
        self.env.push(("passes", timed.passes.to_string()));
        self.env.push(("windows", timed.windows.len().to_string()));
        self.env
            .push(("quiet_windows", timed.quiet_windows().len().to_string()));
    }

    /// Adds the end-to-end metrics of a timed run.
    pub fn add_end_to_end(
        &mut self,
        timed: &Timed,
        fixture: &Fixture,
        setup_times: &[Duration],
        peak_rss_mb: f64,
    ) {
        let store = fixture.store();
        let rows = store.total_rows() as f64;
        let latencies = timed.latencies_ns.len() as u64;
        let queries = timed.tally.attempted;
        let (sim_queries, _) = timed.sim.unwrap_or_default();
        let quiet = timed.quiet_windows();
        self.metrics = vec![
            Metric::new("qps", "1/s", timed.qps(&quiet), queries),
            Metric::new(
                "latency_p50_ms",
                "ms",
                timed.latency_ms(&quiet, 50.0),
                latencies,
            ),
            Metric::new(
                "latency_p99_ms",
                "ms",
                timed.latency_ms(&quiet, 99.0),
                latencies,
            ),
            Metric::new("sim_qps", "1/s", timed.sim_qps(), sim_queries as u64),
            Metric::new(
                "success_frac",
                "ratio",
                1.0 - timed.tally.failed_frac(),
                queries,
            ),
            Metric::new(
                "setup_s",
                "s",
                median(
                    &setup_times
                        .iter()
                        .map(Duration::as_secs_f64)
                        .collect::<Vec<_>>(),
                ),
                setup_times.len() as u64,
            ),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1),
            Metric::new(
                "index_bytes_per_row",
                "B",
                store.index_size_bytes() as f64 / rows,
                1,
            ),
        ];
        self.extra.push(Metric::new(
            "failed_frac",
            "ratio",
            timed.tally.failed_frac(),
            queries,
        ));
        let all = timed.all_windows();
        self.extra.extend([
            Metric::new("qps_all_windows", "1/s", timed.qps(&all), queries),
            Metric::new(
                "latency_p50_ms_all_windows",
                "ms",
                timed.latency_ms(&all, 50.0),
                latencies,
            ),
            Metric::new(
                "latency_p99_ms_all_windows",
                "ms",
                timed.latency_ms(&all, 99.0),
                latencies,
            ),
            Metric::new(
                "cpu_steal_share",
                "ratio",
                timed.cpu_steal_share(),
                all.len() as u64,
            ),
        ]);
        if let Some(file) = &fixture.file {
            self.extra.push(Metric::new(
                "file_bytes_per_row",
                "B",
                file.bytes as f64 / rows,
                1,
            ));
        }
    }

    /// Adds the per-layer metrics of a traced run.
    pub fn add_layers(&mut self, layers: &Layers) {
        self.metrics.clone_from(&layers.metrics);
        self.extra.extend(layers.extra.iter().cloned());
        self.tally.merge(layers.tally);
        self.env
            .push(("spans", layers.spans_path.display().to_string()));
    }

    /// True when no query failed and every metric is finite.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self
                .metrics
                .iter()
                .chain(&self.extra)
                .all(|m| m.value.is_finite())
    }

    /// The human-readable report: the environment stamp, then one line
    /// per metric with its unit and sample count.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::from("env");
        for (key, value) in &self.env {
            let _ = write!(out, " {key}={value}");
        }
        out.push('\n');
        for (kind, metrics) in [("metric", &self.metrics), ("info", &self.extra)] {
            for m in metrics {
                let _ = writeln!(
                    out,
                    "{kind} {:<36} {:>16} {:<6} n={}",
                    m.name,
                    format!("{:.6}", m.value),
                    m.unit,
                    m.samples
                );
            }
        }
        let _ = writeln!(
            out,
            "queries attempted={} failed={}",
            self.tally.attempted, self.tally.failed
        );
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// contract metrics with their units.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Available parallelism of the machine.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the repository above `dir`, read from `.git`
/// without running git; `unknown` outside a git checkout.
#[must_use]
pub fn git_commit(dir: &Path) -> String {
    let Some(git) = dir.ancestors().map(|d| d.join(".git")).find(|g| g.is_dir()) else {
        return "unknown".into();
    };
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|hash| hash.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
