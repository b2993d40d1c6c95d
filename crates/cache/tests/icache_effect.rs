//! The paper's §1 motivation, measured honestly: compression shrinks the
//! code working set *when there is redundancy to harvest*. The hand-written
//! kernels are small and mostly unique code, so per-kernel results vary
//! (escape nibbles can even grow a tiny program); the defensible claims are
//! aggregate ones, plus a strong per-program claim on the real benchmark
//! images whose redundancy the scheme targets.

use codense_cache::{Cache, CacheConfig};
use codense_core::{CompressionConfig, Compressor};
use codense_vm::kernels::{self, Kernel};
use codense_vm::{machine::Machine, run_predecoded_with, PredecodedFetcher};

/// Misses of one checked run, with the cache fed as the program runs.
fn misses(kernel: &Kernel, mut fetch: PredecodedFetcher, config: CacheConfig) -> u64 {
    let mut machine = Machine::new(1 << 20);
    kernel.apply_init(&mut machine);
    let mut cache = Cache::new(config);
    let r = run_predecoded_with(&mut machine, &mut fetch, 0, 10_000_000, |pc, n| {
        cache.access_nibbles(pc, n)
    })
    .expect("kernel run");
    assert_eq!(r.exit_code, kernel.expected);
    cache.finish().misses
}

fn miss_counts(kernel: &Kernel, config: CacheConfig) -> (u64, u64) {
    let compressed = Compressor::new(CompressionConfig::nibble_aligned())
        .compress(&kernel.module)
        .expect("compress");
    let plain = misses(kernel, PredecodedFetcher::linear(kernel.module.code.clone()), config);
    (plain, misses(kernel, PredecodedFetcher::new(&compressed), config))
}

#[test]
fn aggregate_misses_shrink_at_realistic_sizes() {
    // At 128B+ caches the compressed kernels win in aggregate, and no
    // kernel degrades badly (a line or two of layout wobble at most).
    for size in [128usize, 256, 512] {
        let config = CacheConfig { size_bytes: size, line_bytes: 16, ways: 1 };
        let mut plain_total = 0u64;
        let mut compressed_total = 0u64;
        for kernel in kernels::all() {
            let (plain, compressed) = miss_counts(&kernel, config);
            assert!(
                compressed <= plain + 2,
                "{} @ {size}B: compressed {compressed} vs plain {plain}",
                kernel.name
            );
            plain_total += plain;
            compressed_total += compressed;
        }
        assert!(compressed_total < plain_total, "@ {size}B: {compressed_total} vs {plain_total}");
    }
}

#[test]
fn redundant_kernels_win_even_when_tiny_ones_lose() {
    // memcpy and sieve have repetitive bodies the dictionary harvests;
    // their compressed forms never touch more lines at these sizes.
    for kernel in [kernels::memcpy(), kernels::sieve()] {
        for size in [64usize, 128, 256] {
            let config = CacheConfig { size_bytes: size, line_bytes: 16, ways: 1 };
            let (plain, compressed) = miss_counts(&kernel, config);
            assert!(
                compressed <= plain,
                "{} @ {size}B: compressed {compressed} vs plain {plain}",
                kernel.name
            );
        }
    }
}

#[test]
fn benchmark_images_halve_their_cold_footprint() {
    // For the real benchmark images (where the paper's redundancy premise
    // holds), the cold-line footprint tracks the compression ratio: a
    // straight-line walk of the compressed image touches roughly half the
    // lines of the original.
    let module = codense_codegen::benchmark("compress").unwrap();
    let compressed =
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&module).unwrap();

    let line = 16u64;
    let plain_lines = (module.text_bytes() as u64).div_ceil(line);
    let comp_lines = (compressed.text_bytes() as u64).div_ceil(line);
    let ratio = comp_lines as f64 / plain_lines as f64;
    assert!(
        (0.40..0.60).contains(&ratio),
        "cold footprint ratio {ratio:.2} should track the compression ratio"
    );
}
