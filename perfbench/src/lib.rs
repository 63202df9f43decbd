//! `perfbench` — the repository's benchmark.
//!
//! Three closed-loop APB-1 serving workloads run through the public
//! [`warehouse::Session`] API on the `F_MonthGroup` store of
//! [`bench_support::measured_config`]`(true)`, with the simulated disk
//! subsystem (8 disks, 4,096-page cache) on everywhere:
//!
//! * [`Workload::MixMem`] — the standard query mix as a 2-client stream over
//!   the in-memory backing;
//! * [`Workload::MixFile`] — the same stream over a warm `FGMT` file that
//!   fits the page pool;
//! * [`Workload::ZipfPointFile`] — one client executing Zipf-skewed point
//!   queries against a file 9× larger than its page pool.
//!
//! [`run`] sets the workload up ([`setup`]), computes each distinct query's
//! expected answer on the serial in-memory engine ([`oracle`]), runs the
//! timed phase ([`timed`]) and, for a traced run, replays the queries layer
//! by layer ([`traced`]).  Everything it reports is collected in a
//! [`report::Report`].  The program under test sees only the generated
//! `BoundQuery`s; nothing inside it is instrumented.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use warehouse::prelude::*;
use warehouse::schema::apb1::Apb1Config;

pub mod oracle;
pub mod report;
pub mod setup;
pub mod timed;
pub mod traced;

pub use oracle::Fault;
pub use report::Report;

/// Worker threads of every session: the benchmark is sized for 2 cores.
pub const WORKERS: usize = 2;
/// Disks of the simulated I/O subsystem.
pub const DISKS: u64 = 8;
/// Page-cache capacity of the simulated I/O subsystem.
pub const SIM_CACHE_PAGES: usize = 4096;

/// The simulated I/O configuration shared by every workload.
#[must_use]
pub fn io_config() -> IoConfig {
    IoConfig::with_disks(DISKS).cache(SIM_CACHE_PAGES)
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The APB-1 mix as a 2-client stream over the in-memory backing.
    MixMem,
    /// The same stream over a warm `FGMT` file with the default page pool.
    MixFile,
    /// One client, Zipf-skewed point queries, a page pool 1/9 of the file.
    ZipfPointFile,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::MixMem, Workload::MixFile, Workload::ZipfPointFile];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixMem => "mix-mem",
            Workload::MixFile => "mix-file",
            Workload::ZipfPointFile => "zipf-point-file",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The query types interleaved round-robin into the workload's stream.
    #[must_use]
    pub fn query_types(self) -> Vec<QueryType> {
        match self {
            Workload::MixMem | Workload::MixFile => QueryType::standard_mix(),
            Workload::ZipfPointFile => vec![
                QueryType::OneMonthOneGroup,
                QueryType::OneGroupOneStore,
                QueryType::OneCodeOneQuarter,
            ],
        }
    }

    /// Zipf value skew θ of the query generators (0 = uniform).
    #[must_use]
    pub fn theta(self) -> f64 {
        match self {
            Workload::MixMem | Workload::MixFile => 0.0,
            Workload::ZipfPointFile => 1.0,
        }
    }

    /// Page-pool capacity of the file backing; `None` for the in-memory
    /// backing.
    #[must_use]
    pub fn file_pool_pages(self) -> Option<usize> {
        match self {
            Workload::MixMem => None,
            Workload::MixFile => Some(FileStoreOptions::default().cache_pages),
            Workload::ZipfPointFile => Some(2048),
        }
    }

    /// True when the workload drives `Session::stream` (2 clients, MPL 2);
    /// false when one client calls `Session::execute` per query.
    #[must_use]
    pub fn streams(self) -> bool {
        !matches!(self, Workload::ZipfPointFile)
    }

    /// Concurrent clients of the closed loop.
    #[must_use]
    pub fn clients(self) -> usize {
        if self.streams() {
            2
        } else {
            1
        }
    }
}

/// The size of the warehouse and of the query pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The measured APB-1 shape: 1.14 M fact rows in 576 fragments.
    Measured,
    /// A scaled-down shape (8,640 rows) for the benchmark's own tests.
    Tiny,
}

impl Shape {
    /// The APB-1 configuration the store is built from.
    #[must_use]
    pub fn config(self) -> Apb1Config {
        match self {
            Shape::Measured => bench_support::measured_config(true),
            Shape::Tiny => Apb1Config::scaled_down(),
        }
    }

    /// Distinct queries generated per run; the timed phase cycles through
    /// them.  A stream pass submits all of them to one `Session::stream`.
    #[must_use]
    pub fn pool_queries(self, workload: Workload) -> usize {
        match (self, workload.streams()) {
            (Shape::Measured, true) => 500,
            (Shape::Measured, false) => 2000,
            (Shape::Tiny, _) => 30,
        }
    }

    /// How often [`run`] sets the workload up; `setup_s` is the median.
    #[must_use]
    pub fn setup_repeats(self) -> usize {
        match self {
            Shape::Measured => 3,
            Shape::Tiny => 2,
        }
    }
}

/// Everything one benchmark run depends on.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload to run.
    pub workload: Workload,
    /// Seeds the store build and the query generators.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Replay the queries layer by layer and report per-layer metrics.
    pub trace: bool,
    /// Store and query-pool size.
    pub shape: Shape,
    /// A deliberately injected failure, for the benchmark's self-test.
    pub fault: Option<Fault>,
    /// Directory for the `FGMT` files and the span file.
    pub out_dir: PathBuf,
}

impl Params {
    /// Parameters with the measured shape, no fault, and the benchmark's
    /// own `out/` directory.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Params {
            workload,
            seed,
            seconds,
            trace,
            shape: Shape::Measured,
            fault: None,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }

    /// A file in [`Params::out_dir`] unique to this run.
    #[must_use]
    pub fn out_file(&self, tag: &str, extension: &str) -> PathBuf {
        self.out_dir.join(format!(
            "{}-seed{}-{}-{tag}.{extension}",
            self.workload.name(),
            self.seed,
            std::process::id()
        ))
    }
}

/// Runs one workload end to end and collects its report.
///
/// # Errors
///
/// Returns a message when the warehouse cannot be written, opened or read.
pub fn run(params: &Params) -> Result<Report, String> {
    std::fs::create_dir_all(&params.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", params.out_dir.display()))?;
    // Set up several times (a fresh store, file and warm-up each time) and
    // keep the last fixture; `setup_s` is the median.  A traced run reports
    // no end-to-end metrics and sets up once.
    let repeats = if params.trace {
        1
    } else {
        params.shape.setup_repeats()
    };
    let mut setup_times = Vec::with_capacity(repeats);
    let mut fixture = None;
    for _ in 0..repeats {
        drop(fixture.take());
        let started = Instant::now();
        fixture = Some(setup::Fixture::build(params)?);
        setup_times.push(started.elapsed());
    }
    let fixture = fixture.expect("at least one set-up ran");
    let oracle = oracle::Oracle::new(fixture.memory.engine(), &fixture.queries);
    let timed = timed::run(params, &fixture, &oracle);
    let rss_mb = report::peak_rss_mb();
    let mut report = Report::new(params, &fixture);
    report.add_timed(&timed);
    if params.trace {
        let layers = traced::run(params, &fixture, &oracle, &timed)?;
        report.add_layers(&layers);
    } else {
        report.add_end_to_end(&timed, &fixture, &setup_times, rss_mb);
    }
    Ok(report)
}

/// The median of `values`; 0 for none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[mid],
        _ => f64::midpoint(sorted[mid - 1], sorted[mid]),
    }
}

/// The nearest-rank `p`-th percentile of `samples` (any order), the rule
/// `ThroughputMetrics::latency_percentile` uses; 0 for no samples.
#[must_use]
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    sorted[rank.round() as usize]
}
