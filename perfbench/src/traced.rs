//! The traced run: a single-threaded replay of the query pool that calls
//! each layer's public functions from the benchmark's own code and times
//! every call as a span.
//!
//! Per query, in pool order:
//!
//! | span     | call                                                           |
//! |----------|----------------------------------------------------------------|
//! | `plan`   | `Warehouse::plan` (`exec::plan`, `mdhf::classify`)             |
//! | `io`     | `SimulatedIo::charge_plan` (`exec::io`, `storage` pool)        |
//! | `engine` | `Session::execute`, 1 worker, no I/O, in memory (`exec::engine`) |
//! | `bitmap` | `select_repr` + `BitmapRepr::and_many_owned` per fragment      |
//! | `file`   | `FileStore::read_fragment` per planned fragment (`exec::file`) |
//! | `serial` | serial execution with the workload's I/O and backing           |
//!
//! `bitmap` runs right after `engine` on the same fragments, so it times
//! the kernels on warm CPU caches while `engine` pays the first touch;
//! `engine.aggregate_us_per_query` (`engine` − `bitmap` − `plan`) therefore
//! includes the cache misses of the scan.
//!
//! The I/O layer is replayed as the timed phase charges it: on one
//! subsystem per pass for the stream workloads, on a fresh subsystem per
//! query for `zipf-point-file`.  The file layer reads through a freshly
//! written and opened store with the workload's page pool (the default pool
//! for `mix-mem`, whose timed phase never touches a file).  `serial` runs on
//! a second fresh open of the same file (the in-memory store for `mix-mem`)
//! and a twin I/O subsystem, so it sees the same cache states the layer
//! spans saw; `trace.coverage` divides the layers it consists of (`io` +
//! `engine`, plus `file` on file workloads) by it.
//!
//! Spans stay in memory and are written as a Chrome/Perfetto trace-event
//! file when the replay ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use warehouse::exec::write_store;
use warehouse::prelude::*;

use crate::oracle::{Oracle, Tally};
use crate::report::Metric;
use crate::setup::{self, Fixture, OwnedFile};
use crate::timed::{self, nanos, Timed};
use crate::{io_config, percentile, Params, WORKERS};

/// Query types whose per-type spans are contract metrics: the types every
/// workload runs.
pub const COMMON_TYPES: [&str; 2] = ["1MONTH1GROUP", "1CODE1QUARTER"];

/// Stream queries replayed through the scheduler for `zipf-point-file`,
/// which has no stream in its timed phase.
const SCHEDULER_REPLAY_QUERIES: usize = 500;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Position of the query in the pool.
    pub query: usize,
    /// The layer (`query` for the root span of one query).
    pub layer: &'static str,
    /// Start, in ns since the replay began.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Spans of the replay, kept in memory until it ends.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(&mut self, query: usize, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.spans.push(Span {
            query,
            layer,
            start_ns: nanos(start - self.origin),
            dur_ns: nanos(start.elapsed()),
        });
        out
    }

    /// Adds a root span over every span of `query` recorded since `first`.
    fn close_query(&mut self, query: usize, first: usize) {
        let spans = &self.spans[first..];
        let start_ns = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end_ns = spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(0);
        self.spans.push(Span {
            query,
            layer: "query",
            start_ns,
            dur_ns: end_ns - start_ns,
        });
    }

    /// Summed duration of `layer`'s spans, in ns.
    fn total_ns(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The spans as a Chrome/Perfetto trace-event document (µs units).
    fn to_trace_events(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = if span.layer == "query" { "" } else { "query" };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"query\":{},\"parent\":\"{parent}\"}}}}",
                if i == 0 { "" } else { ",\n" },
                span.layer,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.query,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-query-type span totals.
#[derive(Debug, Clone, Copy, Default)]
struct TypeTotals {
    queries: u64,
    io_ns: u64,
    engine_ns: u64,
}

impl TypeTotals {
    /// `io.charge_us.<name>` and `engine.execute_us.<name>`.
    fn metrics(&self, name: &str) -> [Metric; 2] {
        let us = |ns: u64| ns as f64 / 1e3 / self.queries.max(1) as f64;
        [
            Metric::new(
                format!("io.charge_us.{name}"),
                "us",
                us(self.io_ns),
                self.queries,
            ),
            Metric::new(
                format!("engine.execute_us.{name}"),
                "us",
                us(self.engine_ns),
                self.queries,
            ),
        ]
    }
}

/// Counts gathered at the layer boundaries during the replay.
#[derive(Debug, Default)]
struct Counts {
    queries: u64,
    fragments: u64,
    pages: u64,
    cache_hits: u64,
    cache_misses: u64,
    bitmap_fragments: u64,
    operands: u64,
    compressed: u64,
    rows_scanned: u64,
    read_ns: Vec<u64>,
    by_type: BTreeMap<String, TypeTotals>,
}

/// What the traced run reports: contract metrics, report-only metrics,
/// the answers it checked and where its spans went.
#[derive(Debug)]
pub struct Layers {
    /// The per-layer contract metrics, in `report::PER_LAYER` order.
    pub metrics: Vec<Metric>,
    /// Per-type metrics of query types outside [`COMMON_TYPES`].
    pub extra: Vec<Metric>,
    /// Replayed answers checked against the oracle.
    pub tally: Tally,
    /// The written span file.
    pub spans_path: PathBuf,
}

/// The file layer's set-up, timed once per traced run.
struct TraceFile {
    file: OwnedFile,
    write_s: f64,
    open_s: f64,
    /// The store the `file` spans read through.
    reader: FileStore,
    /// A second open for the `serial` spans on file workloads.
    serial: Option<Warehouse>,
}

impl TraceFile {
    fn create(params: &Params, store: &FragmentStore) -> Result<Self, String> {
        let pool_pages = params
            .workload
            .file_pool_pages()
            .unwrap_or(FileStoreOptions::default().cache_pages);
        let file = OwnedFile::new(params.out_file("trace", "fgmt"));
        let started = Instant::now();
        write_store(store, file.path()).map_err(|e| format!("cannot write trace store: {e}"))?;
        let write_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let reader = FileStore::open_with(file.path(), setup::options(pool_pages))
            .map_err(|e| format!("cannot open trace store: {e}"))?;
        let open_s = started.elapsed().as_secs_f64();
        let serial = match params.workload.file_pool_pages() {
            Some(_) => Some(setup::open(file.path(), pool_pages)?),
            None => None,
        };
        Ok(TraceFile {
            file,
            write_s,
            open_s,
            reader,
            serial,
        })
    }
}

/// Replays `fixture`'s query pool layer by layer.
///
/// # Errors
///
/// Returns a message when the trace file cannot be written, opened or read.
pub fn run(
    params: &Params,
    fixture: &Fixture,
    oracle: &Oracle,
    timed: &Timed,
) -> Result<Layers, String> {
    let trace_file = TraceFile::create(params, fixture.store())?;
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut counts = Counts::default();
    let mut tally = Tally::default();
    replay(
        params,
        fixture,
        oracle,
        &trace_file,
        &mut tracer,
        &mut counts,
        &mut tally,
    )?;

    let spans_path = params.out_dir.join(format!(
        "{}-seed{}-spans.json",
        params.workload.name(),
        params.seed
    ));
    std::fs::write(&spans_path, tracer.to_trace_events())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let scheduler = scheduler_metrics(params, fixture, oracle, timed, &mut tally);
    let metrics = layer_metrics(fixture, &trace_file, &tracer, &counts, scheduler, timed)?;
    let extra = counts
        .by_type
        .iter()
        .filter(|(name, _)| !COMMON_TYPES.contains(&name.as_str()))
        .flat_map(|(name, totals)| totals.metrics(name))
        .collect();
    Ok(Layers {
        metrics,
        extra,
        tally,
        spans_path,
    })
}

/// Times each layer's call for every query of the pool, in pool order.
fn replay(
    params: &Params,
    fixture: &Fixture,
    oracle: &Oracle,
    trace_file: &TraceFile,
    tracer: &mut Tracer,
    counts: &mut Counts,
    tally: &mut Tally,
) -> Result<(), String> {
    let store = fixture.store();
    let schema = store.schema();
    let serial_wh = trace_file.serial.as_ref().unwrap_or(&fixture.memory);
    let serial_session = serial_wh.session().io(io_config()).build();
    let engine_session = fixture.memory.session().build();
    // Stream passes charge one subsystem; `Session::execute` a fresh one
    // per query.  The twin keeps `serial` on the cache states `io` saw.
    let persistent_io = params.workload.streams().then(|| {
        (
            SimulatedIo::new(io_config(), schema),
            SimulatedIo::new(io_config(), schema),
        )
    });
    for (q, query) in fixture.queries.iter().enumerate() {
        let first_span = tracer.spans.len();
        let plan = tracer.time(q, "plan", || serial_wh.plan(query));
        let charges = tracer.time(q, "io", || match &persistent_io {
            Some((io, _)) => io.charge_plan(&plan, serial_wh.source()),
            None => SimulatedIo::new(io_config(), schema).charge_plan(&plan, serial_wh.source()),
        });
        let engine = tracer.time(q, "engine", || engine_session.execute(query));
        tally.answered(oracle.matches(query, engine.hits, &engine.measure_sums));
        let predicates = plan.bitmap_predicates();
        if !predicates.is_empty() {
            let compressed = tracer.time(q, "bitmap", || {
                let mut compressed = 0u64;
                for &f in plan.fragments() {
                    let fragment = store.fragment(f);
                    let selections = predicates
                        .iter()
                        .map(|p| {
                            fragment
                                .bitmap_index(p.dimension)
                                .select_repr(p.level, p.value)
                        })
                        .collect();
                    let selection = black_box(BitmapRepr::and_many_owned(selections));
                    compressed += u64::from(selection.is_compressed());
                }
                compressed
            });
            let fragments = plan.fragments().len() as u64;
            counts.bitmap_fragments += fragments;
            counts.operands += fragments * predicates.len() as u64;
            counts.compressed += compressed;
        }
        tracer.time(q, "file", || -> Result<(), String> {
            for &f in plan.fragments() {
                let started = Instant::now();
                let fragment = trace_file
                    .reader
                    .read_fragment(f)
                    .map_err(|e| format!("trace read: {e}"))?;
                counts.read_ns.push(nanos(started.elapsed()));
                black_box(fragment);
            }
            Ok(())
        })?;
        let serial = tracer.time(q, "serial", || match &persistent_io {
            Some((_, twin)) => {
                let plan = serial_wh.plan(query);
                serial_wh
                    .engine()
                    .execute_plan_with_io(&plan, serial_session.config(), twin)
            }
            None => serial_session.execute(query),
        });
        tally.answered(oracle.matches(query, serial.hits, &serial.measure_sums));
        tracer.close_query(q, first_span);

        counts.queries += 1;
        counts.fragments += plan.fragments().len() as u64;
        counts.pages += charges.iter().map(|c| c.pages_read).sum::<u64>();
        counts.cache_hits += charges.iter().map(|c| c.cache_hits).sum::<u64>();
        counts.cache_misses += charges.iter().map(|c| c.cache_misses).sum::<u64>();
        counts.rows_scanned += engine.metrics.total_rows_scanned();
        let spans = &tracer.spans[first_span..];
        let duration = |layer: &str| {
            spans
                .iter()
                .find(|s| s.layer == layer)
                .map_or(0, |s| s.dur_ns)
        };
        let totals = counts
            .by_type
            .entry(plan.query_name().to_string())
            .or_default();
        totals.queries += 1;
        totals.io_ns += duration("io");
        totals.engine_ns += duration("engine");
    }
    Ok(())
}

/// The per-layer contract metrics, in `report::PER_LAYER` order.
fn layer_metrics(
    fixture: &Fixture,
    trace_file: &TraceFile,
    tracer: &Tracer,
    counts: &Counts,
    (utilisation, wait_p50_ms, steal_rate): (f64, f64, f64),
    timed: &Timed,
) -> Result<Vec<Metric>, String> {
    let store = fixture.store();
    let queries = counts.queries;
    let n = queries as f64;
    let us_per_query = |layer: &str| tracer.total_ns(layer) as f64 / 1e3 / n;
    let per_query =
        |name: &str, unit, total: u64| Metric::new(name, unit, total as f64 / n, queries);
    let bitmap_fragments = counts.bitmap_fragments;
    let per_fragment = bitmap_fragments.max(1) as f64;
    let reads = counts.read_ns.len() as u64;
    let file_io = trace_file.reader.metrics();
    let pool = file_io.pool;
    let common = |layer: usize| {
        COMMON_TYPES.map(|name| {
            counts
                .by_type
                .get(name)
                .copied()
                .unwrap_or_default()
                .metrics(name)[layer]
                .clone()
        })
    };
    let [io_type_a, io_type_b] = common(0);
    let [engine_type_a, engine_type_b] = common(1);
    // `serial` consists of these layers: `file` only when it reads a file.
    let covered = tracer.total_ns("io")
        + tracer.total_ns("engine")
        + trace_file
            .serial
            .as_ref()
            .map_or(0, |_| tracer.total_ns("file"));
    Ok(vec![
        Metric::new("plan.us_per_query", "us", us_per_query("plan"), queries),
        per_query("plan.fragments_per_query", "count", counts.fragments),
        Metric::new(
            "plan.pruned_frac",
            "ratio",
            1.0 - counts.fragments as f64 / (n * store.fragment_count() as f64),
            queries,
        ),
        Metric::new("io.charge_us_per_query", "us", us_per_query("io"), queries),
        io_type_a,
        io_type_b,
        per_query("io.pages_per_query", "count", counts.pages),
        Metric::new(
            "io.cache_hit_rate",
            "ratio",
            ratio(counts.cache_hits, counts.cache_hits + counts.cache_misses),
            counts.cache_hits + counts.cache_misses,
        ),
        Metric::new(
            "bitmap.select_and_us_per_fragment",
            "us",
            tracer.total_ns("bitmap") as f64 / 1e3 / per_fragment,
            bitmap_fragments,
        ),
        Metric::new(
            "bitmap.operands_per_fragment",
            "count",
            counts.operands as f64 / per_fragment,
            bitmap_fragments,
        ),
        Metric::new(
            "bitmap.compressed_frac",
            "ratio",
            ratio(counts.compressed, bitmap_fragments),
            bitmap_fragments,
        ),
        Metric::new(
            "engine.execute_us_per_query",
            "us",
            us_per_query("engine"),
            queries,
        ),
        engine_type_a,
        engine_type_b,
        Metric::new(
            "engine.aggregate_us_per_query",
            "us",
            us_per_query("engine") - us_per_query("bitmap") - us_per_query("plan"),
            queries,
        ),
        per_query(
            "engine.rows_scanned_per_query",
            "count",
            counts.rows_scanned,
        ),
        Metric::new(
            "file.read_us_p50",
            "us",
            percentile(&counts.read_ns, 50.0) as f64 / 1e3,
            reads,
        ),
        Metric::new(
            "file.read_us_p99",
            "us",
            percentile(&counts.read_ns, 99.0) as f64 / 1e3,
            reads,
        ),
        Metric::new(
            "file.page_hit_rate",
            "ratio",
            pool.hit_ratio(),
            pool.hits + pool.misses,
        ),
        Metric::new(
            "file.decoded_hit_rate",
            "ratio",
            ratio(file_io.decoded_cache_hits, reads),
            reads,
        ),
        per_query("file.bytes_read_per_query", "B", file_io.bytes_read),
        per_query(
            "file.segment_reads_per_query",
            "count",
            file_io.segment_reads,
        ),
        Metric::new("file.write_s", "s", trace_file.write_s, 1),
        Metric::new("file.open_s", "s", trace_file.open_s, 1),
        Metric::new(
            "file.bytes_per_row",
            "B",
            trace_file.file.size()? as f64 / store.total_rows() as f64,
            1,
        ),
        Metric::new("scheduler.utilisation", "ratio", utilisation, 1),
        Metric::new("scheduler.admission_wait_p50_ms", "ms", wait_p50_ms, 1),
        Metric::new("scheduler.steal_rate", "ratio", steal_rate, 1),
        Metric::new("session.pool_busy_frac", "ratio", timed.pool_busy_frac(), 1),
        Metric::new(
            "trace.coverage",
            "ratio",
            covered as f64 / tracer.total_ns("serial") as f64,
            queries,
        ),
    ])
}

/// Scheduler utilisation, admission-wait p50 (ms) and steal rate: from the
/// timed phase's streams, or — for `zipf-point-file`, whose timed phase has
/// no stream — from replaying the first queries of its pool through
/// `Session::stream` with its one client (MPL 1) on the same backing.
fn scheduler_metrics(
    params: &Params,
    fixture: &Fixture,
    oracle: &Oracle,
    timed: &Timed,
    tally: &mut Tally,
) -> (f64, f64, f64) {
    if params.workload.streams() {
        return (
            timed.pool_busy_frac(),
            percentile(&timed.admission_waits_ns, 50.0) as f64 / 1e6,
            timed.steal_rate(),
        );
    }
    let queries = &fixture.queries[..fixture.queries.len().min(SCHEDULER_REPLAY_QUERIES)];
    let session = fixture
        .backing()
        .session()
        .workers(WORKERS)
        .io(io_config())
        .policy(AdmissionPolicy::Exclusive)
        .build();
    let outcome = session.stream(queries);
    for (query, answered) in queries.iter().zip(&outcome.queries) {
        tally.answered(oracle.matches(query, answered.hits, &answered.measure_sums));
    }
    let mut replay = Timed::default();
    replay.record_pool(&outcome.metrics.pool);
    let waits: Vec<u64> = outcome
        .queries
        .iter()
        .map(|q| timed::nanos(q.admission_wait))
        .collect();
    (
        replay.pool_busy_frac(),
        percentile(&waits, 50.0) as f64 / 1e6,
        replay.steal_rate(),
    )
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
