//! Streamed I-cache scoring against its recorded-trace spec
//! ([`tracing`]): a predecoded run whose observer feeds the cache must
//! make exactly the references a per-fetch run records, and miss exactly
//! where replaying that trace through the original cache model misses —
//! for linear text and for compressed images alike, at several geometries.

mod tracing;

use codense_cache::{Cache, CacheConfig};
use codense_core::{CompressionConfig, Compressor};
use codense_vm::kernels::{self, Kernel};
use codense_vm::reference::{run, CompressedFetcher, LinearFetcher};
use codense_vm::{run_predecoded_with, Machine};
use codense_vm::{Fetch, PredecodedFetcher};
use tracing::{FetchRef, SpecCache, TracingFetch};

fn machine(kernel: &Kernel) -> Machine {
    let mut machine = Machine::new(1 << 20);
    kernel.apply_init(&mut machine);
    machine
}

/// Small enough that the kernels' loops conflict and evict: direct-mapped,
/// 2-way, and fully associative (one set of 8 ways).
const GEOMETRIES: [CacheConfig; 3] = [
    CacheConfig { size_bytes: 64, line_bytes: 16, ways: 1 },
    CacheConfig { size_bytes: 64, line_bytes: 8, ways: 2 },
    CacheConfig { size_bytes: 128, line_bytes: 16, ways: 8 },
];

/// Asserts a streamed run makes the references a traced per-fetch run
/// records, and that its caches end where replaying the trace does.
fn assert_streamed_matches(kernel: &Kernel, spec: impl Fetch, mut fast: PredecodedFetcher) {
    let mut traced = TracingFetch::new(spec);
    run(&mut machine(kernel), &mut traced, 0, 10_000_000).expect("traced run");
    let mut refs = Vec::new();
    let mut caches = GEOMETRIES.map(Cache::new);
    run_predecoded_with(&mut machine(kernel), &mut fast, 0, 10_000_000, |pc, nibbles| {
        refs.push(FetchRef { nibble_addr: pc, nibbles });
        for cache in &mut caches {
            cache.access_nibbles(pc, nibbles);
        }
    })
    .expect("streamed run");
    assert_eq!(refs, traced.trace(), "{}", kernel.name);
    for (config, cache) in GEOMETRIES.into_iter().zip(caches) {
        let mut spec = SpecCache::new(config);
        traced.replay(&mut spec);
        assert_eq!(cache.finish(), spec.stats(), "{} {config:?}", kernel.name);
    }
}

#[test]
fn streamed_references_match_trace_replay() {
    for kernel in kernels::all() {
        let code = kernel.module.code.clone();
        assert_streamed_matches(
            &kernel,
            LinearFetcher::new(code.clone()),
            PredecodedFetcher::linear(code),
        );
        let compressed =
            Compressor::new(CompressionConfig::huffman()).compress(&kernel.module).unwrap();
        assert_streamed_matches(
            &kernel,
            CompressedFetcher::new(&compressed),
            PredecodedFetcher::new(&compressed),
        );
    }
}
