//! Throughput benchmarks: compression, expansion, fetch-path execution, and
//! the baseline compressors.

use std::sync::OnceLock;

use codense_bench::{black_box, Harness};
use codense_core::{CompressionConfig, Compressor};
use codense_obj::ObjectModule;
use codense_vm::{kernels, machine::Machine, run_predecoded, PredecodedFetcher};

fn module() -> &'static ObjectModule {
    static M: OnceLock<ObjectModule> = OnceLock::new();
    M.get_or_init(|| codense_codegen::benchmark("compress").expect("compress benchmark"))
}

fn main() {
    let h = Harness::new("throughput");
    let m = module();

    for (tag, config) in [
        ("compress_throughput/baseline", CompressionConfig::baseline()),
        ("compress_throughput/one_byte_32", CompressionConfig::small_dictionary(32)),
        ("compress_throughput/nibble", CompressionConfig::nibble_aligned()),
    ] {
        let compressor = Compressor::new(config);
        h.bench(tag, || black_box(compressor.compress(black_box(m)).unwrap()));
    }

    let compressed = Compressor::new(CompressionConfig::nibble_aligned()).compress(m).unwrap();
    h.bench("expand_throughput/logical_expand", || black_box(compressed.expand()));
    h.bench("expand_throughput/fetch_path_walk", || {
        // Walk the packed image through the fetch path from a cold cache.
        let mut fetch = PredecodedFetcher::new(&compressed);
        let mut pc = 0u64;
        let mut n = 0usize;
        use codense_vm::Fetch;
        while let Ok(f) = fetch.fetch(pc) {
            pc = f.next_pc;
            n += 1;
            if n >= m.len() {
                break;
            }
        }
        black_box(n)
    });

    let image = m.text_image();
    h.bench("baseline_compressors/lzw", || black_box(codense_lzw::compress(black_box(&image))));
    h.bench("baseline_compressors/ccrp_huffman_lines", || {
        black_box(codense_ccrp::compress(black_box(m), codense_ccrp::CcrpConfig::default()))
    });
    h.bench("baseline_compressors/liao_call_dictionary", || {
        black_box(codense_liao::compress(black_box(m), codense_liao::LiaoMethod::CallDictionary, 4))
    });

    // Dynamic overhead of the compressed fetch path on a real workload.
    let kernel = kernels::bubble_sort();
    let kc = Compressor::new(CompressionConfig::nibble_aligned()).compress(&kernel.module).unwrap();
    h.bench("execution/uncompressed", || {
        let mut machine = Machine::new(1 << 20);
        kernel.apply_init(&mut machine);
        let mut fetch = PredecodedFetcher::linear(kernel.module.code.clone());
        black_box(run_predecoded(&mut machine, &mut fetch, 0, 10_000_000).unwrap())
    });
    h.bench("execution/compressed_nibble", || {
        let mut machine = Machine::new(1 << 20);
        kernel.apply_init(&mut machine);
        let mut fetch = PredecodedFetcher::new(&kc);
        black_box(run_predecoded(&mut machine, &mut fetch, 0, 10_000_000).unwrap())
    });

    h.bench("codegen/generate_compress_benchmark", || {
        black_box(codense_codegen::benchmark("compress").unwrap())
    });
}
