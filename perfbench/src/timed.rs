//! The timed phase: a closed loop over the query pool for the run's
//! seconds, with every answer checked against the oracle.
//!
//! Stream workloads submit the whole pool to `Session::stream` (2 clients =
//! MPL 2 on 2 workers) pass after pass; `zipf-point-file` has one client
//! calling `Session::execute` per query.  The loop always completes at least
//! one pass, and `sim_qps` is taken from the first pass that returned, so it
//! does not depend on how many passes fit the time.
//!
//! The loop is cut into windows of at least [`WINDOW_QUERIES`] queries (two
//! stream passes, or 1,000 executes; each window's p99 has 10 samples
//! beyond it).  `qps` and the latency percentiles are medians over the
//! run's *quiet* windows: those whose share of CPU time stolen by the
//! hypervisor (`steal` in `/proc/stat`) is at most the median share of the
//! run's windows.  On a shared virtual machine other tenants take the CPU in
//! bursts of seconds; a window that loses 5–10 % of its time that way runs
//! 10–30 % slower, and lock holders preempted in it stretch the tail.  The
//! figures over all windows are printed beside the quiet ones.

use std::time::{Duration, Instant};

use warehouse::prelude::*;

use crate::oracle::{guarded, Fault, Oracle, Tally};
use crate::setup::Fixture;
use crate::{io_config, median, percentile, Params, WORKERS};

/// What the timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Wall time of the whole loop.
    pub elapsed: Duration,
    /// Passes over the query pool (started, including ones that panicked).
    pub passes: usize,
    /// Queries attempted and failed.
    pub tally: Tally,
    /// Response time of every answered query, in ns: `ScheduledQuery`
    /// latency for streams, the benchmark's timer around `execute`
    /// otherwise.
    pub latencies_ns: Vec<u64>,
    /// Admission wait of every answered stream query, in ns.
    pub admission_waits_ns: Vec<u64>,
    /// Queries and simulated milliseconds of the first pass that returned.
    pub sim: Option<(usize, f64)>,
    /// Summed worker busy time of every pool run.
    pub busy: Duration,
    /// Summed wall × workers of every pool run.
    pub capacity: Duration,
    /// Tasks (planned fragments) executed.
    pub tasks: u64,
    /// Tasks that changed worker by stealing.
    pub stolen: u64,
    /// Counter snapshots at window boundaries.
    marks: Vec<Mark>,
    /// The loop cut into windows of at least [`WINDOW_QUERIES`] queries.
    pub windows: Vec<Window>,
}

/// The fewest queries a window holds.
pub const WINDOW_QUERIES: u64 = 1000;

/// The machine's cumulative CPU time in ticks: stolen and total.
#[derive(Debug, Clone, Copy, Default)]
struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the `cpu` line of `/proc/stat`; zero where it is unavailable.
    fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        match fields.as_slice() {
            [.., steal] if fields.len() == 8 => CpuTicks {
                steal: *steal,
                total: fields.iter().sum(),
            },
            _ => CpuTicks::default(),
        }
    }

    /// The share of the CPU time between `self` and `later` that was stolen.
    fn steal_share(self, later: CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// A snapshot of the loop's counters.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    attempted: u64,
    good: u64,
    latencies: usize,
    cpu: CpuTicks,
}

/// One window of the timed phase.
#[derive(Debug, Clone)]
pub struct Window {
    /// Correctly answered queries.
    pub good: u64,
    /// Wall time of the window.
    pub wall: Duration,
    /// The window's entries of [`Timed::latencies_ns`].
    pub latencies: std::ops::Range<usize>,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// window.
    pub cpu_steal: f64,
}

impl Window {
    fn between(start: &Mark, end: &Mark) -> Self {
        Window {
            good: end.good - start.good,
            wall: end.at - start.at,
            latencies: start.latencies..end.latencies,
            cpu_steal: start.cpu.steal_share(end.cpu),
        }
    }
}

impl Timed {
    /// Correctly answered queries per second over `windows`.
    #[must_use]
    pub fn qps(&self, windows: &[&Window]) -> f64 {
        median(
            &windows
                .iter()
                .map(|w| w.good as f64 / w.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    }

    /// The median over `windows` of their `p`-th latency percentile, in ms.
    #[must_use]
    pub fn latency_ms(&self, windows: &[&Window], p: f64) -> f64 {
        median(
            &windows
                .iter()
                .map(|w| percentile(&self.latencies_ns[w.latencies.clone()], p) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Every window.
    #[must_use]
    pub fn all_windows(&self) -> Vec<&Window> {
        self.windows.iter().collect()
    }

    /// The windows whose CPU steal share is at most the median share.
    #[must_use]
    pub fn quiet_windows(&self) -> Vec<&Window> {
        let threshold = median(&self.windows.iter().map(|w| w.cpu_steal).collect::<Vec<_>>());
        self.windows
            .iter()
            .filter(|w| w.cpu_steal <= threshold)
            .collect()
    }

    /// The share of the machine's CPU time the hypervisor stole during the
    /// timed phase.
    #[must_use]
    pub fn cpu_steal_share(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(first), Some(last)) => first.cpu.steal_share(last.cpu),
            _ => 0.0,
        }
    }

    fn snapshot(&self) -> Mark {
        Mark {
            at: Instant::now(),
            attempted: self.tally.attempted,
            good: self.tally.attempted - self.tally.failed,
            latencies: self.latencies_ns.len(),
            cpu: CpuTicks::now(),
        }
    }

    /// Starts a new window once the open one holds [`WINDOW_QUERIES`]
    /// queries (and the first window at the start of the loop).
    fn tick(&mut self) {
        let due = self
            .marks
            .last()
            .is_none_or(|m| self.tally.attempted - m.attempted >= WINDOW_QUERIES);
        if due {
            self.marks.push(self.snapshot());
        }
    }

    /// Closes the last window; one shorter than [`WINDOW_QUERIES`] joins the
    /// window before it.
    fn finish(&mut self) {
        let end = self.snapshot();
        let n = self.marks.len();
        if n >= 2 && end.attempted - self.marks[n - 1].attempted < WINDOW_QUERIES {
            self.marks.pop();
        }
        self.marks.push(end);
        self.windows = self
            .marks
            .windows(2)
            .map(|pair| Window::between(&pair[0], &pair[1]))
            .filter(|w| !w.latencies.is_empty())
            .collect();
    }

    /// Queries per simulated second of the first returned pass.
    #[must_use]
    pub fn sim_qps(&self) -> f64 {
        self.sim
            .map_or(0.0, |(queries, sim_ms)| queries as f64 * 1000.0 / sim_ms)
    }

    /// Worker busy time over pool capacity.
    #[must_use]
    pub fn pool_busy_frac(&self) -> f64 {
        self.busy.as_secs_f64() / self.capacity.as_secs_f64()
    }

    /// Stolen over executed tasks.
    #[must_use]
    pub fn steal_rate(&self) -> f64 {
        self.stolen as f64 / self.tasks as f64
    }

    /// Adds one pool run's accounting.
    pub fn record_pool(&mut self, pool: &ExecMetrics) {
        self.busy += pool.workers.iter().map(|w| w.busy).sum();
        self.capacity += pool.wall * pool.worker_count() as u32;
        self.tasks += pool.total_fragments() as u64;
        self.stolen += pool.total_stolen() as u64;
    }
}

/// The stream workloads' session: 2 workers, simulated I/O, MPL 2.
#[must_use]
pub fn stream_session(warehouse: &Warehouse) -> Session<'_> {
    warehouse
        .session()
        .workers(WORKERS)
        .io(io_config())
        .policy(AdmissionPolicy::Concurrent { max_in_flight: 2 })
        .build()
}

/// The point workload's session: 2 workers, simulated I/O.
#[must_use]
pub fn execute_session(warehouse: &Warehouse) -> Session<'_> {
    warehouse.session().workers(WORKERS).io(io_config()).build()
}

/// Runs the timed phase of `params.workload` on `fixture`.
#[must_use]
pub fn run(params: &Params, fixture: &Fixture, oracle: &Oracle) -> Timed {
    let budget = Duration::from_secs_f64(params.seconds);
    let mut fault = params.fault;
    let mut timed = Timed::default();
    let started = Instant::now();
    if params.workload.streams() {
        run_streams(fixture, oracle, budget, &mut fault, started, &mut timed);
    } else {
        run_executes(fixture, oracle, budget, &mut fault, started, &mut timed);
    }
    timed.finish();
    timed.elapsed = started.elapsed();
    timed
}

fn run_streams(
    fixture: &Fixture,
    oracle: &Oracle,
    budget: Duration,
    fault: &mut Option<Fault>,
    started: Instant,
    timed: &mut Timed,
) {
    let session = stream_session(fixture.backing());
    let queries = &fixture.queries;
    while timed.passes == 0 || started.elapsed() < budget {
        timed.tick();
        timed.passes += 1;
        let panic_now = take(fault, Fault::Panic);
        let Some(mut outcome) = guarded(|| {
            assert!(!panic_now, "injected panic");
            session.stream(queries)
        }) else {
            timed.tally.lost(queries.len());
            continue;
        };
        timed
            .tally
            .lost(queries.len().saturating_sub(outcome.queries.len()));
        for (query, answered) in queries.iter().zip(&mut outcome.queries) {
            if take(fault, Fault::FlipMeasureBit) {
                flip_low_bit(&mut answered.measure_sums);
            }
            timed
                .tally
                .answered(oracle.matches(query, answered.hits, &answered.measure_sums));
            timed.latencies_ns.push(nanos(answered.latency));
            timed
                .admission_waits_ns
                .push(nanos(answered.admission_wait));
        }
        timed.record_pool(&outcome.metrics.pool);
        if timed.sim.is_none() {
            let sim_ms = outcome
                .metrics
                .pool
                .io
                .as_ref()
                .map_or(0.0, |io| io.elapsed_ms);
            timed.sim = Some((queries.len(), sim_ms));
        }
    }
}

fn run_executes(
    fixture: &Fixture,
    oracle: &Oracle,
    budget: Duration,
    fault: &mut Option<Fault>,
    started: Instant,
    timed: &mut Timed,
) {
    let session = execute_session(fixture.backing());
    let queries = &fixture.queries;
    let (mut sim_queries, mut sim_ms) = (0usize, 0.0f64);
    for (i, query) in queries.iter().cycle().enumerate() {
        let first_pass = i < queries.len();
        if !first_pass && started.elapsed() >= budget {
            break;
        }
        timed.tick();
        if i % queries.len() == 0 {
            timed.passes += 1;
        }
        let panic_now = take(fault, Fault::Panic);
        let call_started = Instant::now();
        let Some(mut result) = guarded(|| {
            assert!(!panic_now, "injected panic");
            session.execute(query)
        }) else {
            timed.tally.lost(1);
            continue;
        };
        let latency = call_started.elapsed();
        if take(fault, Fault::FlipMeasureBit) {
            flip_low_bit(&mut result.measure_sums);
        }
        timed
            .tally
            .answered(oracle.matches(query, result.hits, &result.measure_sums));
        timed.latencies_ns.push(nanos(latency));
        timed.record_pool(&result.metrics);
        if first_pass {
            sim_queries += 1;
            sim_ms += result.metrics.io.as_ref().map_or(0.0, |io| io.elapsed_ms);
        }
    }
    timed.sim = Some((sim_queries, sim_ms));
}

/// Clears and returns whether the pending fault is `kind`.
fn take(fault: &mut Option<Fault>, kind: Fault) -> bool {
    let hit = *fault == Some(kind);
    if hit {
        *fault = None;
    }
    hit
}

fn flip_low_bit(sums: &mut [f64]) {
    if let Some(first) = sums.first_mut() {
        *first = f64::from_bits(first.to_bits() ^ 1);
    }
}

/// A duration in whole nanoseconds (saturating).
#[must_use]
pub fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}
