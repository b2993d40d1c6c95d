//! The recorded-trace reference path, kept as an executable specification
//! of streamed I-cache scoring.
//!
//! Cycle scoring once wrapped the per-fetch engines in [`TracingFetch`],
//! recorded one [`FetchRef`] per fetch, and [`replay`]ed the whole trace
//! into a cache model that bumped the `cache.*` counters on every access.
//! Production now streams the same references from
//! `codense_vm::run_predecoded_with` into `Cache::access_nibbles`, with
//! the counts published once per run. This module keeps that path —
//! including the original cache model, [`SpecCache`] — so tests can assert
//! the two agree reference for reference, miss for miss and counter for
//! counter.
//!
//! Shared by the `codense-cache` and `codense-profile` test suites
//! (`#[path]`-included), so not every item is used by every includer.
#![allow(dead_code)]

use codense_cache::{CacheConfig, CacheStats};
use codense_core::telemetry;
use codense_vm::fetch::Fetched;
use codense_vm::{Fetch, FetchStats, MachineError};

/// The original set-associative true-LRU cache: every access searches its
/// set and updates the global counters.
#[derive(Debug, Clone)]
pub struct SpecCache {
    config: CacheConfig,
    /// `sets[s]` holds up to `ways` tags, most recently used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl SpecCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> SpecCache {
        SpecCache { config, sets: vec![Vec::new(); config.sets()], stats: CacheStats::default() }
    }

    /// Accesses the line containing byte `addr`. Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let set = (line as usize) % self.config.sets();
        let tags = &mut self.sets[set];
        self.stats.accesses += 1;
        telemetry::CACHE_ACCESSES.inc();
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            let tag = tags.remove(pos);
            tags.push(tag);
            telemetry::CACHE_HITS.inc();
            true
        } else {
            self.stats.misses += 1;
            telemetry::CACHE_MISSES.inc();
            if tags.len() == self.config.ways {
                tags.remove(0);
                telemetry::CACHE_EVICTIONS.inc();
            }
            tags.push(line);
            false
        }
    }

    /// Accesses every line overlapping the byte range `[addr, addr + len)`.
    pub fn access_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let lb = self.config.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + len - 1) / lb;
        for line in first..=last {
            self.access(line * lb);
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A program-memory reference: starting *nibble* address and nibble length
/// (the fetch domain's units; divide by two for bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRef {
    /// Starting nibble address.
    pub nibble_addr: u64,
    /// Nibbles consumed from program memory (0 for instructions delivered
    /// out of the dictionary expansion buffer).
    pub nibbles: u64,
}

/// Wraps any fetch engine and records each program-memory reference it
/// makes (derived from its own fetch counters, so buffered dictionary
/// deliveries correctly record zero memory traffic).
#[derive(Debug)]
pub struct TracingFetch<F> {
    inner: F,
    trace: Vec<FetchRef>,
}

impl<F: Fetch> TracingFetch<F> {
    /// Wraps a fetch engine.
    pub fn new(inner: F) -> TracingFetch<F> {
        TracingFetch { inner, trace: Vec::new() }
    }

    /// The recorded reference trace.
    pub fn trace(&self) -> &[FetchRef] {
        &self.trace
    }

    /// Replays the recorded trace against a cache.
    pub fn replay(&self, cache: &mut SpecCache) {
        replay(&self.trace, cache);
    }
}

/// Replays a reference trace against a cache (nibble addresses halved to
/// bytes, lengths rounded out to whole bytes).
pub fn replay(trace: &[FetchRef], cache: &mut SpecCache) {
    telemetry::CACHE_REPLAYS.inc();
    for r in trace {
        if r.nibbles == 0 {
            continue;
        }
        let start = r.nibble_addr / 2;
        let end = (r.nibble_addr + r.nibbles).div_ceil(2);
        cache.access_range(start, end - start);
    }
}

impl<F: Fetch> Fetch for TracingFetch<F> {
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        let before = self.inner.stats().nibbles_fetched;
        let out = self.inner.fetch(pc)?;
        let consumed = self.inner.stats().nibbles_fetched - before;
        self.trace.push(FetchRef { nibble_addr: pc, nibbles: consumed });
        Ok(out)
    }

    fn granule(&self) -> u32 {
        self.inner.granule()
    }

    fn stats(&self) -> FetchStats {
        self.inner.stats()
    }
}
