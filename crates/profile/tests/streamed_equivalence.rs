//! The streamed profiling and scoring path against its executable spec.
//!
//! Production profiles and scores on the predecoded engine: per-instruction
//! counts and I-cache references arrive through `run_predecoded_with`'s
//! per-step observer and go straight into the counts table and the cache
//! model. The spec below is the path that preceded it: the per-fetch `run`
//! loop over `LinearFetcher` / `CompressedFetcher`, wrapped in a recording
//! `TracingFetch`, with the trace counted and then replayed through the
//! original per-access cache model. Both must agree field by field on
//! every `Profile`, `FetchEvents` and `Score`, and move every telemetry
//! counter by the same amount. The profile spec is the native counting run
//! alone; the reference compressed run behind `FetchEvents` has its own
//! spec on the re-parsing `CompressedFetcher`.
//!
//! Telemetry counters are process-global, so every test here holds
//! [`SERIAL`] while it measures.

#[path = "../../cache/tests/tracing/mod.rs"]
mod tracing;

use std::sync::Mutex;

use codense_core::{telemetry, CompressedProgram, CompressionConfig, Compressor, EncodingKind};
use codense_obj::BasicBlocks;
use codense_profile::{
    bench, collect_subject, fetch_events, hot_mask, score_compressed_subject, score_native_subject,
    BlockStat, CostParams, FetchEvents, HotnessPolicy, Profile, ProfileError, Score, Subject,
};
use codense_vm::reference::{run, CompressedFetcher, LinearFetcher};
use codense_vm::{run_predecoded, Fetch, Machine, MachineError, PredecodedFetcher, RunResult};
use tracing::{SpecCache, TracingFetch};

static SERIAL: Mutex<()> = Mutex::new(());

const MAX_STEPS: u64 = 10_000_000;

const ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Baseline,
    EncodingKind::OneByte,
    EncodingKind::NibbleAligned,
    EncodingKind::Huffman,
];

// ---- the spec -------------------------------------------------------------

/// A per-fetch run through a recording fetcher, checked against the
/// subject's expected exit.
fn spec_run<F: Fetch>(
    subject: &Subject,
    mut machine: Machine,
    fetch: F,
    max_steps: u64,
) -> Result<(RunResult, TracingFetch<F>), ProfileError> {
    let mut fetch = TracingFetch::new(fetch);
    let result = run(&mut machine, &mut fetch, 0, max_steps)?;
    if result.exit_code != subject.expected {
        return Err(ProfileError::WrongExit { got: result.exit_code, want: subject.expected });
    }
    Ok((result, fetch))
}

/// The native counting run: a traced per-fetch run, its trace counted.
fn spec_collect(
    subject: &Subject,
    encoding: EncodingKind,
    max_steps: u64,
) -> Result<Profile, ProfileError> {
    telemetry::PROFILE_RUNS.inc();
    let _phase = telemetry::phase("profile");
    let linear = LinearFetcher::new(subject.module.code.clone());
    let (native, traced) = spec_run(subject, subject.machine_native(), linear, max_steps)?;
    let mut counts = vec![0u64; subject.module.len()];
    for r in traced.trace() {
        counts[(r.nibble_addr / 8) as usize] += 1;
    }
    let blocks: Vec<BlockStat> = BasicBlocks::compute(&subject.module)
        .blocks()
        .iter()
        .map(|&(start, end)| BlockStat {
            start,
            end,
            entries: counts[start],
            weight: counts[start..end].iter().sum(),
        })
        .collect();
    telemetry::PROFILE_BLOCKS.add(blocks.len() as u64);
    telemetry::PROFILE_INSNS_COUNTED.add(native.steps);
    Ok(Profile {
        bench: subject.name.clone(),
        encoding,
        insns: subject.module.len(),
        steps: native.steps,
        exit: native.exit_code,
        counts,
        blocks,
    })
}

/// The reference compressed run behind the artifact's fetch block, on the
/// re-parsing `CompressedFetcher`.
fn spec_fetch_events(
    subject: &Subject,
    profile: &Profile,
    max_steps: u64,
) -> Result<FetchEvents, ProfileError> {
    let _phase = telemetry::phase("fetch_events");
    let encoding = profile.encoding;
    let config =
        CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding };
    let compressed = Compressor::new(config).compress(&subject.module)?;
    let cfetch = CompressedFetcher::new(&compressed);
    let (creference, _) =
        spec_run(subject, subject.machine_compressed(&compressed), cfetch, max_steps)?;
    let cstats = creference.stats;
    Ok(FetchEvents {
        escapes: cstats.insns - cstats.expanded_insns,
        codewords: cstats.codewords,
        expanded_insns: cstats.expanded_insns,
        nibbles: cstats.nibbles_fetched,
        realigns: cstats.realigns,
    })
}

/// Scores a recorded run: the trace replayed into a fresh cache.
fn spec_score<F: Fetch>(
    params: &CostParams,
    result: RunResult,
    traced: &TracingFetch<F>,
    compressed: bool,
) -> Score {
    let mut cache = SpecCache::new(params.cache);
    traced.replay(&mut cache);
    let cache = cache.stats();
    let s = result.stats;
    let (escapes, expanded, realigns) = if compressed {
        (s.insns - s.expanded_insns, s.expanded_insns, s.realigns)
    } else {
        (0, 0, 0)
    };
    Score {
        cycles: s.insns * params.native_cycles
            + escapes * params.escape_cycles
            + expanded * params.expand_cycles
            + realigns * params.realign_cycles
            + cache.misses * params.miss_penalty,
        insns: s.insns,
        escapes,
        expanded_insns: expanded,
        realigns,
        cache_accesses: cache.accesses,
        cache_misses: cache.misses,
        steps: result.steps,
        exit: result.exit_code,
    }
}

fn spec_score_native(
    subject: &Subject,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    let linear = LinearFetcher::new(subject.module.code.clone());
    let (result, traced) = spec_run(subject, subject.machine_native(), linear, max_steps)?;
    Ok(spec_score(params, result, &traced, false))
}

fn spec_score_compressed(
    subject: &Subject,
    program: &CompressedProgram,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    let fetch = CompressedFetcher::new(program);
    let (result, traced) =
        spec_run(subject, subject.machine_compressed(program), fetch, max_steps)?;
    Ok(spec_score(params, result, &traced, true))
}

// ---- comparison -----------------------------------------------------------

/// Runs `f` and returns its result with every counter's delta.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Vec<(&'static str, u64)>) {
    let before = telemetry::counter_snapshot();
    let out = f();
    let after = telemetry::counter_snapshot();
    let deltas = after.iter().zip(&before).map(|(&(name, a), &(_, b))| (name, a - b)).collect();
    (out, deltas)
}

/// Asserts the production call and its spec agree on the result (or the
/// error) and on every telemetry counter delta; returns whether they
/// succeeded.
fn assert_same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    fast: impl FnOnce() -> Result<T, ProfileError>,
    spec: impl FnOnce() -> Result<T, ProfileError>,
) -> bool {
    let (got, got_counters) = measured(fast);
    let (want, want_counters) = measured(spec);
    let (got, want) = (got.map_err(|e| e.to_string()), want.map_err(|e| e.to_string()));
    assert_eq!(got, want, "{what}");
    assert_eq!(got_counters, want_counters, "{what}: telemetry deltas");
    want.is_ok()
}

/// Profiles and scores `subject` both ways under `encoding`: the profile,
/// the native score, and the scores of the fully compressed image and of a
/// hybrid image with the hottest half of the run exempt.
fn check_subject(subject: &Subject, encoding: EncodingKind, max_steps: u64) {
    let what = format!("{} / {encoding:?}", subject.name);
    let params = CostParams::default();
    assert!(assert_same(
        &format!("{what}: profile"),
        || collect_subject(subject, encoding, max_steps),
        || spec_collect(subject, encoding, max_steps),
    ));
    let profile = collect_subject(subject, encoding, max_steps).unwrap();
    assert!(assert_same(
        &format!("{what}: fetch events"),
        || fetch_events(subject, &profile, max_steps),
        || spec_fetch_events(subject, &profile, max_steps),
    ));
    assert!(assert_same(
        &format!("{what}: native score"),
        || score_native_subject(subject, &params, max_steps),
        || spec_score_native(subject, &params, max_steps),
    ));
    let config =
        CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding };
    let compressor = Compressor::new(config);
    let full = compressor.compress(&subject.module).unwrap();
    let mask = hot_mask(&profile, HotnessPolicy::TopCoverage(0.5));
    let hybrid = compressor.compress_masked(&subject.module, &mask.exempt).unwrap();
    for (kind, image) in [("full", &full), ("hybrid", &hybrid)] {
        assert!(assert_same(
            &format!("{what}: {kind} score"),
            || score_compressed_subject(subject, image, &params, max_steps),
            || spec_score_compressed(subject, image, &params, max_steps),
        ));
    }
}

#[test]
fn bench_kernels_profile_and_score_identically_under_every_encoding() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for kernel in bench::benches() {
        let subject = Subject::from_kernel(&kernel);
        for encoding in ENCODINGS {
            check_subject(&subject, encoding, MAX_STEPS);
        }
    }
}

#[test]
fn corpus_program_profiles_and_scores_identically() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = codense_corpus::CorpusSpec {
        insns: 10_000,
        dynamic_target: 100_000,
        ..codense_corpus::CorpusSpec::default()
    };
    let p = codense_corpus::build(&spec, codense_corpus::CorpusIsa::Ppc).unwrap();
    let subject = Subject {
        name: "corpus-10k".into(),
        module: p.module.clone(),
        init_mem: Vec::new(),
        table_addrs: p.table_addrs.clone(),
        expected: p.stats.exit_code,
        mem_bytes: codense_corpus::MEM_BYTES,
    };
    check_subject(&subject, EncodingKind::NibbleAligned, p.stats.dynamic_insns * 4 + 1_000_000);
}

#[test]
fn errors_match_the_spec() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let kernel = bench::bench("fib").unwrap();
    let subject = Subject::from_kernel(&kernel);
    let params = CostParams::default();
    let full =
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&kernel.module).unwrap();
    // Out of steps, and a wrong expected exit.
    let wrong_exit = Subject { expected: kernel.expected + 1, ..subject.clone() };
    let nibble = EncodingKind::NibbleAligned;
    let profile = collect_subject(&subject, nibble, MAX_STEPS).unwrap();
    for (s, steps) in [(&subject, 100), (&wrong_exit, MAX_STEPS)] {
        let ok = [
            assert_same(
                "profile",
                || collect_subject(s, nibble, steps),
                || spec_collect(s, nibble, steps),
            ),
            assert_same(
                "fetch events",
                || fetch_events(s, &profile, steps),
                || spec_fetch_events(s, &profile, steps),
            ),
            assert_same(
                "native score",
                || score_native_subject(s, &params, steps),
                || spec_score_native(s, &params, steps),
            ),
            assert_same(
                "compressed score",
                || score_compressed_subject(s, &full, &params, steps),
                || spec_score_compressed(s, &full, &params, steps),
            ),
        ];
        assert_eq!(ok, [false; 4], "{steps} steps, exit {}", s.expected);
    }
}

#[test]
fn collecting_a_profile_neither_compresses_nor_runs_compressed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for kernel in bench::benches() {
        let subject = Subject::from_kernel(&kernel);
        let (profile, deltas) =
            measured(|| collect_subject(&subject, EncodingKind::NibbleAligned, MAX_STEPS));
        assert!(profile.is_ok(), "{}", kernel.name);
        for name in ["compress.runs", "vm.fetch.codewords", "vm.fetch.escapes"] {
            let moved = deltas.iter().find(|d| d.0 == name).expect("known counter").1;
            assert_eq!(moved, 0, "{}: {name}", kernel.name);
        }
    }
}

// ---- linear-mode faults ---------------------------------------------------

fn three_insns() -> Vec<u32> {
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::{R0, R3};
    [Insn::Addi { rt: R3, ra: R0, si: 1 }, Insn::Addi { rt: R3, ra: R3, si: 2 }, Insn::Sc]
        .iter()
        .map(codense_ppc::encode)
        .collect()
}

#[test]
fn linear_fetch_faults_like_linear_fetcher() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let code = three_insns();
    let end = 8 * code.len() as u64;
    // Each sequence is fetched in order from fresh engines; the faulting
    // fetches sit after successful ones so the stats have history.
    for pcs in [vec![0, 4], vec![0, 8, end], vec![end + 4], vec![3], vec![0, u64::MAX - 7]] {
        let spec = measured(|| {
            let mut f = LinearFetcher::new(code.clone());
            let got: Vec<_> = pcs.iter().map(|&pc| f.fetch(pc)).collect();
            (got, f.stats(), f.granule())
        });
        let fast = measured(|| {
            let mut f = PredecodedFetcher::linear(code.clone());
            let got: Vec<_> = pcs.iter().map(|&pc| f.fetch(pc)).collect();
            (got, f.stats(), f.granule())
        });
        assert!(matches!(spec.0 .0.last(), Some(Err(MachineError::FetchFault { .. }))));
        assert_eq!(fast, spec, "pcs {pcs:?}");
    }
}

#[test]
fn linear_run_faults_like_linear_fetcher() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let code = three_insns();
    let no_halt = code[..2].to_vec();
    let end = 8 * code.len() as u64;
    // (program, entry): an unaligned entry, an entry past the end, and a
    // program that runs off its end.
    for (program, entry) in [(&code, 4), (&code, end), (&code, end + 1), (&no_halt, 0)] {
        let spec = measured(|| {
            let mut f = LinearFetcher::new(program.clone());
            let r = run(&mut Machine::new(4096), &mut f, entry, 100);
            (r, f.stats())
        });
        let fast = measured(|| {
            let mut f = PredecodedFetcher::linear(program.clone());
            let r = run_predecoded(&mut Machine::new(4096), &mut f, entry, 100);
            (r, f.stats())
        });
        assert!(matches!(spec.0 .0, Err(MachineError::FetchFault { .. })));
        assert_eq!(fast, spec, "entry {entry}");
    }
}
