//! The result oracle and failure accounting.
//!
//! Every distinct query of the pool is answered once by
//! [`StarJoinEngine::execute_serial`] on the in-memory store, outside the
//! timed phase.  A benchmarked query fails when its call panics or its
//! `hits` or measure-sum bits differ from that answer.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use warehouse::prelude::*;

/// A failure injected on purpose, to show the accounting catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip the lowest bit of the first measure sum of the first query
    /// answered in the timed phase.
    FlipMeasureBit,
    /// Panic inside the first guarded call of the timed phase.
    Panic,
}

/// A query's identity: its type name and bound values.
type QueryKey = (String, Vec<u64>);

/// The expected answer: hit count and the bits of every measure sum.
type Answer = (u64, Vec<u64>);

/// Expected answers of a query pool.
#[derive(Debug)]
pub struct Oracle {
    answers: BTreeMap<QueryKey, Answer>,
}

fn key(query: &BoundQuery) -> QueryKey {
    (query.query().name().to_string(), query.values().to_vec())
}

fn answer(hits: u64, sums: &[f64]) -> Answer {
    (hits, sums.iter().map(|s| s.to_bits()).collect())
}

impl Oracle {
    /// Answers every distinct query of `queries` serially on `engine`,
    /// which must be in-memory.
    #[must_use]
    pub fn new(engine: &StarJoinEngine, queries: &[BoundQuery]) -> Self {
        let mut answers = BTreeMap::new();
        for query in queries {
            answers.entry(key(query)).or_insert_with(|| {
                let result = engine.execute_serial(query);
                answer(result.hits, &result.measure_sums)
            });
        }
        Oracle { answers }
    }

    /// True when `hits` and `sums` are bit-identical to the expected
    /// answer of `query`.
    #[must_use]
    pub fn matches(&self, query: &BoundQuery, hits: u64, sums: &[f64]) -> bool {
        self.answers.get(&key(query)) == Some(&answer(hits, sums))
    }
}

/// Queries attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries submitted.
    pub attempted: u64,
    /// Queries that panicked or returned a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Counts one answered query, failed unless `correct`.
    pub fn answered(&mut self, correct: bool) {
        self.attempted += 1;
        self.failed += u64::from(!correct);
    }

    /// Counts `queries` lost to a panic.
    pub fn lost(&mut self, queries: usize) {
        self.attempted += queries as u64;
        self.failed += queries as u64;
    }

    /// Failed over attempted queries (0 when nothing was attempted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Runs `call`, turning a panic into `None` so that one failing call costs
/// its queries instead of the run.
pub fn guarded<T>(call: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(call)).ok()
}
