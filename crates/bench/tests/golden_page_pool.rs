//! Golden pin of the LRU page pool's replacement order.
//!
//! Every other determinism test compares a run with another run of the same
//! code, so a replacement policy that is different but still deterministic
//! would pass them all.  These tests pin exact values — simulated elapsed
//! time to the bit, cache hits, misses and evictions, per-disk pages read,
//! trace digests and `FileStore` I/O counters — for fixed seeded inputs on
//! the quick measured store.  They were recorded on the two-`BTreeMap` pool
//! and must hold unchanged for any faithful LRU implementation.  The one
//! exception is the single-query full-trace digest, which also pins the
//! one-query stream's lifecycle events (admission stamped at the warm
//! subsystem's elapsed simulated time, no row count at completion); the
//! charge-event digest next to it pins the I/O layer alone.

use std::path::PathBuf;

use warehouse::exec::write_store;
use warehouse::obs::{EventKind, Trace};
use warehouse::prelude::*;
use warehouse::storage;

/// The quick measured store (`F_MonthGroup`, seed 7).
fn engine() -> StarJoinEngine {
    StarJoinEngine::new(bench_support::measured_store(true))
}

/// A fixed 20-query standard-mix stream.
fn stream(engine: &StarJoinEngine) -> Vec<BoundQuery> {
    InterleavedStream::new(engine.store().schema(), &QueryType::standard_mix(), 5)
        .with_value_skew(1.0)
        .take_queries(20)
}

/// What one simulated run pins: `(elapsed_ms bits, hits, misses,
/// evictions, per-disk pages read, trace digest)`.
type Pin = (u64, u64, u64, u64, Vec<u64>, u64);

fn pin_of(io: &IoMetrics, trace: &warehouse::obs::Trace) -> Pin {
    assert_eq!(trace.dropped, 0, "the pinned trace must be complete");
    (
        io.elapsed_ms.to_bits(),
        io.cache.hits,
        io.cache.misses,
        io.cache.evictions,
        io.per_disk.iter().map(|d| d.pages_read).collect(),
        trace.digest(),
    )
}

fn run_stream(io: IoConfig) -> Pin {
    let engine = engine();
    let queries = stream(&engine);
    let outcome = engine.execute_stream(
        &queries,
        &SchedulerConfig::new(2, 2)
            .with_io(io)
            .with_obs(ObsConfig::enabled()),
    );
    let metrics = outcome.metrics.pool.io.as_ref().expect("I/O metrics");
    pin_of(metrics, outcome.trace.as_ref().expect("tracing enabled"))
}

#[test]
fn shared_disk_stream_is_pinned() {
    assert_eq!(
        run_stream(IoConfig::with_disks(8).cache(4_096)),
        (
            4_676_037_986_900_550_621,
            2_008,
            42_562,
            38_466,
            vec![5_307, 5_273, 5_343, 5_437, 5_347, 5_281, 5_257, 5_317],
            9_568_973_614_434_915_300,
        )
    );
}

#[test]
fn two_node_shared_nothing_stream_is_pinned() {
    let io = IoConfig {
        nodes: 2,
        node_strategy: NodeStrategy::SharedNothing,
        ..IoConfig::with_disks(8).cache(4_096)
    };
    assert_eq!(
        run_stream(io),
        (
            4_675_793_706_615_501_231,
            4_149,
            40_421,
            32_229,
            vec![5_091, 5_086, 4_915, 5_151, 4_991, 5_125, 5_091, 4_971],
            290_005_104_139_046_868,
        )
    );
}

#[test]
fn single_query_plan_charging_is_pinned() {
    // Single-query execution: each query runs as a one-query stream charged
    // in plan order against one subsystem whose cache persists across the
    // queries.
    let engine = engine();
    let queries = stream(&engine);
    let io = SimulatedIo::new(
        IoConfig::with_disks(8).cache(4_096),
        engine.store().schema(),
    );
    let config = ExecConfig {
        workers: 2,
        obs: ObsConfig::enabled(),
        ..ExecConfig::default()
    };
    let (digests, charge_digests): (Vec<u64>, Vec<u64>) = queries
        .iter()
        .map(|q| {
            let result = engine.execute_plan_with_io(&engine.plan(q), &config, &io);
            let trace = result.trace.expect("tracing enabled");
            assert_eq!(trace.dropped, 0);
            // The charge events alone: what the simulated I/O layer did,
            // independent of how the query's lifecycle is recorded.
            let charges = Trace {
                events: trace
                    .events
                    .iter()
                    .filter(|e| {
                        matches!(
                            e.kind,
                            EventKind::Scan | EventKind::DiskService | EventKind::NetTransfer
                        )
                    })
                    .cloned()
                    .collect(),
                ..trace.clone()
            };
            (trace.digest(), charges.digest())
        })
        .unzip();
    let metrics = io.metrics();
    // Per-query digests folded into one value, order-sensitively.
    let fold = |digests: &[u64]| digests.iter().fold(0u64, |acc, d| acc.rotate_left(7) ^ d);
    let digest_fold = fold(&digests);
    let charge_fold = fold(&charge_digests);
    // Charging each plan in plan order against one persistent subsystem
    // replays exactly the stream's admission-order charges.
    assert_eq!(
        (
            metrics.elapsed_ms.to_bits(),
            metrics.cache.hits,
            metrics.cache.misses,
            metrics.cache.evictions,
            metrics
                .per_disk
                .iter()
                .map(|d| d.pages_read)
                .collect::<Vec<_>>(),
            digest_fold,
            charge_fold,
        ),
        (
            4_676_037_986_900_550_621,
            2_008,
            42_562,
            38_466,
            vec![5_307, 5_273, 5_343, 5_437, 5_347, 5_281, 5_257, 5_317],
            7_851_235_966_821_788_135,
            4_377_486_855_382_374_382,
        )
    );
}

/// A file in the system temp directory, removed on drop.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn file_store_read_sequence_is_pinned() {
    let store = bench_support::measured_store(true);
    let file = TempFile(
        std::env::temp_dir().join(format!("golden_page_pool_{}.fgmt", std::process::id())),
    );
    write_store(&store, &file.0).expect("write the fragment file");
    // A pool of a few fragments' pages: a hot set of five fragments keeps
    // returning while a strided cold sweep forces evictions.
    let files = FileStore::open_with(
        &file.0,
        FileStoreOptions {
            cache_pages: 320,
            verify: false,
        },
    )
    .expect("open the fragment file");
    let fragments = files.fragment_count();
    for i in 0..400u64 {
        let fragment = if i % 3 == 0 {
            (i * 37) % fragments
        } else {
            i % 5
        };
        files.read_fragment(fragment).expect("read a fragment");
    }
    assert_eq!(
        files.metrics(),
        FileIoMetrics {
            pool: storage::buffer::BufferPoolStats {
                hits: 8_416,
                misses: 4_384,
                evictions: 4_064,
            },
            segment_reads: 1_507,
            bytes_read: 15_837_446,
            decoded_cache_hits: 263,
        }
    );
}
