//! The fuzz campaign driver: seeded case generation, parallel execution,
//! shrinking of failures, and a deterministic report.
//!
//! Every case derives its own RNG stream from the campaign seed, so the
//! report is byte-identical for a given `(cases, seed)` pair regardless of
//! the worker count: `codense_core::parallel::par_map` preserves order, the
//! report carries no timing, and each case is self-contained.
//!
//! One driver serves both ISAs. The per-ISA parts are the program generator
//! ([`generate_spec`] + [`build`] on PowerPC, [`generate_mips`] on MIPS)
//! and the trace mask; shrinking needs a [`ProgramSpec`], so it applies to
//! PowerPC failures only. Both ISAs walk the same case-seed stream, so one
//! campaign seed exercises both compressor ports on decorrelated but
//! reproducible inputs.

use codense_codegen::Rng;
use codense_core::parallel::par_map;
use codense_core::{
    telemetry, verify, CompressError, CompressedProgram, CompressionConfig, Compressor,
};
use codense_isa::IsaRef;
use codense_obj::{BasicBlocks, ObjectModule};
use codense_vm::fetch::PredecodedFetcher;

use crate::faults::{
    container_battery, entropy_decoder_battery, module_battery, nibble_soup_battery, FaultReport,
};
use crate::gen::{generate_spec, GenConfig};
use crate::mips::{generate_mips, ADDRESS_REGS};
use crate::oracle::{lockstep, lockstep_with, LockstepOk, TraceMask};
use crate::shrink::shrink;
use crate::spec::{build, BuiltProgram, ProgramSpec, JT_BASE, MEM_BYTES};

/// Golden-ratio increment used to derive per-case seeds (SplitMix64's own
/// stream constant, so cases are decorrelated).
const CASE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Extra salt separating the fault-injection stream from generation.
const FAULT_SALT: u64 = 0xD1B5_4A32_D192_ED03;
/// Extra salt for the hybrid hotness-mask stream (`--hybrid` campaigns).
const HYBRID_SALT: u64 = 0x94D0_49BB_1331_11EB;
/// The PowerPC backend: the default campaign ISA, and the only one with a
/// [`ProgramSpec`] to shrink.
const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

/// Campaign options.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of differential cases to run.
    pub cases: usize,
    /// Campaign seed; every printed failure carries the derived case seed.
    pub seed: u64,
    /// Per-run instruction budget for the lockstep oracle.
    pub max_steps: u64,
    /// Randomized corruption attempts per fault battery per case.
    pub fault_tries: usize,
    /// Additionally fuzz hybrid images: per case, derive a random
    /// block-aligned hotness mask from the case seed and run the lockstep
    /// oracle on the partially compressed program under every encoding.
    pub hybrid: bool,
    /// Target ISA: picks the program generator and the trace mask.
    pub isa: IsaRef,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            cases: 100,
            seed: 1,
            max_steps: 200_000,
            fault_tries: 4,
            hybrid: false,
            isa: PPC,
        }
    }
}

/// The four encodings every case is checked under.
fn encodings() -> [(&'static str, CompressionConfig); 4] {
    [
        ("baseline", CompressionConfig::baseline()),
        ("one-byte", CompressionConfig::small_dictionary(32)),
        ("nibble", CompressionConfig::nibble_aligned()),
        ("huffman", CompressionConfig::huffman()),
    ]
}

/// A generated case program. PowerPC programs keep the spec they were
/// built from, which is what the shrinker minimizes.
struct Case {
    built: BuiltProgram,
    spec: Option<ProgramSpec>,
}

/// Draws one program for `isa` from the RNG stream.
fn generate(isa: IsaRef, rng: &mut Rng, cfg: &GenConfig) -> Result<Case, String> {
    if isa == PPC {
        let spec = generate_spec(rng, cfg);
        build(&spec).map(|built| Case { built, spec: Some(spec) }).map_err(|e| e.to_string())
    } else {
        generate_mips(rng, cfg).map(|built| Case { built, spec: None })
    }
}

/// The oracle mask for generated programs: the registers that carry
/// fetch-domain addresses in dispatch sequences (`r11` on PowerPC; see
/// [`ADDRESS_REGS`] for MIPS), and the jump-table region of data memory,
/// whose entries are domain-specific by construction.
fn fuzz_mask(isa: IsaRef, built: &BuiltProgram) -> TraceMask {
    let entries: usize = built.module.jump_tables.iter().map(|t| t.targets.len()).sum();
    let regs: &[u8] = if isa == PPC { &[11] } else { &ADDRESS_REGS };
    TraceMask {
        mem_skip: std::iter::once(JT_BASE as usize..JT_BASE as usize + 4 * entries).collect(),
        ..TraceMask::skipping_gprs(regs)
    }
}

/// Derives the per-case block-aligned hotness mask for hybrid fuzzing.
/// Recomputed from whatever module is at hand, so shrunk candidates get a
/// mask over their *own* basic blocks from the same random stream.
fn hybrid_mask(module: &ObjectModule, isa: IsaRef, case_seed: u64) -> Vec<bool> {
    let mut rng = Rng::new(case_seed ^ HYBRID_SALT);
    // Per-case hot fraction between 10% and 60% of blocks.
    let pct = rng.range(10, 60);
    let mut exempt = vec![false; module.len()];
    for &(start, end) in BasicBlocks::compute_with(module, isa).blocks() {
        if rng.below(100) < pct {
            exempt[start..end].iter_mut().for_each(|e| *e = true);
        }
    }
    exempt
}

/// Compresses `module` for `isa`, as a hybrid image when `exempt` is given.
fn compress(
    isa: IsaRef,
    config: &CompressionConfig,
    module: &ObjectModule,
    exempt: Option<&[bool]>,
) -> Result<CompressedProgram, CompressError> {
    let compressor = Compressor::new(config.clone()).with_isa(isa);
    match exempt {
        Some(exempt) => compressor.compress_masked(module, exempt),
        None => compressor.compress(module),
    }
}

/// Outcome of one case, aggregated into the report.
#[derive(Debug, Clone, Default)]
struct CaseOutcome {
    /// Completed lockstep runs per encoding: `[0]` full images, `[1]`
    /// hybrid images (`--hybrid` only).
    completed: [[u64; 4]; 2],
    /// Skipped (overflow rewriting) runs, indexed like `completed`.
    skipped: [[u64; 4]; 2],
    /// Both-sides-faulted runs (the program was faulty, traces agreed).
    agreed_faults: u64,
    faults: FaultReport,
    /// Failure lines (empty when the case passed).
    failures: Vec<String>,
}

/// Runs the full differential pipeline for one case seed.
fn run_case(opts: &FuzzOptions, case: usize) -> CaseOutcome {
    telemetry::FUZZ_CASES.inc();
    let case_seed = opts.seed ^ (case as u64 + 1).wrapping_mul(CASE_SALT);
    let tag = format!("case {case} seed {case_seed:#018x}");
    let mut out = CaseOutcome::default();
    let mut rng = Rng::new(case_seed);
    let program = match generate(opts.isa, &mut rng, &GenConfig::default()) {
        Ok(p) => p,
        Err(e) => {
            out.failures.push(format!("{tag}: build failed: {e}"));
            return out;
        }
    };
    let (module, table_addrs) = (&program.built.module, &program.built.table_addrs);
    let mask = fuzz_mask(opts.isa, &program.built);

    let exempt = opts.hybrid.then(|| hybrid_mask(module, opts.isa, case_seed));
    let full = std::iter::once(("", None));
    let hybrid = exempt.as_deref().map(|e| ("/hybrid", Some(e)));
    for (variant, (suffix, exempt)) in full.chain(hybrid).enumerate() {
        for (ei, (label, config)) in encodings().into_iter().enumerate() {
            let failure = |what: String| format!("{tag}: [{label}{suffix}] {what}");
            let compressed = match compress(opts.isa, &config, module, exempt) {
                Ok(c) => c,
                Err(e) => {
                    out.failures.push(failure(format!("compress error: {e}")));
                    continue;
                }
            };
            if let Err(e) = verify::verify(module, &compressed) {
                out.failures.push(failure(format!("verify error: {e}")));
                continue;
            }
            telemetry::FUZZ_LOCKSTEP_RUNS.inc();
            match lockstep(
                module,
                &compressed,
                table_addrs,
                &|_| {},
                &mask,
                MEM_BYTES,
                opts.max_steps,
            ) {
                Ok(LockstepOk::Completed { .. }) => out.completed[variant][ei] += 1,
                Ok(LockstepOk::Faulted { .. }) => out.agreed_faults += 1,
                Ok(LockstepOk::SkippedOverflow) => out.skipped[variant][ei] += 1,
                Err(divergence) => {
                    telemetry::FUZZ_DIVERGENCES.inc();
                    let mut line = failure(divergence.to_string());
                    if let Some(spec) = &program.spec {
                        let hybrid_seed = exempt.map(|_| case_seed);
                        let small = shrink(spec, &|cand| {
                            diverges_under(cand, &config, hybrid_seed, opts.max_steps)
                        });
                        line += &format!(
                            "; reproducer shrunk weight {} -> {}",
                            spec.weight(),
                            small.weight()
                        );
                    }
                    out.failures.push(line);
                }
            }
        }
    }

    // Fault-injection stream: independent of the generation stream so
    // adding mutators never perturbs generated programs.
    let mut frng = Rng::new(case_seed ^ FAULT_SALT);
    for config in [CompressionConfig::nibble_aligned(), CompressionConfig::huffman()] {
        if let Ok(compressed) = compress(opts.isa, &config, module, None) {
            out.faults.absorb(container_battery(&compressed, &mut frng, opts.fault_tries));
        }
    }
    out.faults.absorb(module_battery(module, opts.isa, &mut frng, opts.fault_tries));
    out.faults.absorb(nibble_soup_battery(opts.isa, &mut frng, opts.fault_tries));
    out.faults.absorb(entropy_decoder_battery(&mut frng, opts.fault_tries));
    telemetry::FUZZ_FAULT_CHECKS.add(out.faults.checks);
    out
}

/// Whether the PowerPC `spec` (still) diverges under `config` — the
/// shrinking predicate. With `hybrid_seed`, the candidate is compressed as
/// a hybrid image whose mask is re-derived from its own blocks.
fn diverges_under(
    spec: &ProgramSpec,
    config: &CompressionConfig,
    hybrid_seed: Option<u64>,
    max_steps: u64,
) -> bool {
    telemetry::FUZZ_SHRINK_CANDIDATES.inc();
    let Ok(built) = build(spec) else { return false };
    let exempt = hybrid_seed.map(|seed| hybrid_mask(&built.module, PPC, seed));
    let Ok(compressed) = compress(PPC, config, &built.module, exempt.as_deref()) else {
        return false;
    };
    let mask = fuzz_mask(PPC, &built);
    lockstep(&built.module, &compressed, &built.table_addrs, &|_| {}, &mask, MEM_BYTES, max_steps)
        .is_err()
}

/// Result of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Rendered report lines (deterministic for a given options value).
    pub lines: Vec<String>,
    /// Total failures (divergences, panics, self-test misses).
    pub failures: usize,
}

impl FuzzReport {
    /// Whether the campaign found nothing.
    pub fn ok(&self) -> bool {
        self.failures == 0
    }

    /// The report as one printable string.
    pub fn render(&self) -> String {
        self.lines.join("\n")
    }
}

/// The fault-injection self-test: corrupt a dictionary entry of a known
/// program, prove the oracle catches it, and (on PowerPC) shrink the
/// program to a minimal reproducer; then the hybrid smoke test. Returns
/// report lines and the failure count (0 when the corruption was caught and
/// the reproducer still reproduces).
fn self_test(isa: IsaRef, max_steps: u64) -> (Vec<String>, usize) {
    let mut rng = Rng::new(0xC0DE_D0C5);
    let cfg = GenConfig { max_funcs: 2, ..GenConfig::default() };
    // Generated programs draw from a vocabulary, so a dictionary always
    // forms; search a few seeds for one whose hottest entries sit on the
    // hot path.
    let found = (0..20).find_map(|_| {
        let case = generate(isa, &mut rng, &cfg).ok()?;
        detectable_rank(&case.built, isa, max_steps).map(|(rank, kind)| (case, rank, kind))
    });
    let Some((case, rank, kind)) = found else {
        return (vec!["self-test: FAILED - no seeded corruption was ever detected".into()], 1);
    };

    let mut lines = vec![format!("self-test: corrupt dictionary rank {rank} caught ({kind})")];
    let mut failures = 0;
    if let Some(spec) = &case.spec {
        let detectable = |cand: &ProgramSpec| {
            build(cand).is_ok_and(|b| detectable_rank(&b, PPC, max_steps).is_some())
        };
        let small = shrink(spec, &detectable);
        lines[0] += &format!("; reproducer shrunk weight {} -> {}", spec.weight(), small.weight());
        if !detectable(&small) {
            lines.push("self-test: FAILED - shrunk reproducer lost the failure".into());
            failures += 1;
        }
    }
    let (h_line, h_fail) = hybrid_smoke(isa, max_steps);
    lines.push(h_line);
    (lines, failures + h_fail)
}

/// Hybrid smoke test: a fixed-seed program under a fixed-seed hotness mask
/// must survive full-trace lockstep under the nibble encoding.
fn hybrid_smoke(isa: IsaRef, max_steps: u64) -> (String, usize) {
    // Chosen so the derived PowerPC mask exempts a real fraction of the
    // program (84 of 208 instructions) — an empty mask would smoke-test
    // nothing.
    const SMOKE_SEED: u64 = 0x4B1D_C005;
    // The smoke program is fixed-seed, so it must be allowed to halt even
    // when the campaign runs with a tiny `--max-steps`.
    let max_steps = max_steps.max(1 << 20);
    let mut rng = Rng::new(SMOKE_SEED);
    let built = match generate(isa, &mut rng, &GenConfig { max_funcs: 2, ..GenConfig::default() }) {
        Ok(case) => case.built,
        Err(e) => return (format!("self-test: FAILED - hybrid smoke build: {e}"), 1),
    };
    let exempt = hybrid_mask(&built.module, isa, SMOKE_SEED);
    let config = CompressionConfig::nibble_aligned();
    let hybrid = match compress(isa, &config, &built.module, Some(&exempt)) {
        Ok(c) => c,
        Err(e) => return (format!("self-test: FAILED - hybrid smoke compress: {e}"), 1),
    };
    if let Err(e) = verify::verify(&built.module, &hybrid) {
        return (format!("self-test: FAILED - hybrid smoke verify: {e}"), 1);
    }
    let mask = fuzz_mask(isa, &built);
    telemetry::FUZZ_LOCKSTEP_RUNS.inc();
    match lockstep(&built.module, &hybrid, &built.table_addrs, &|_| {}, &mask, MEM_BYTES, max_steps)
    {
        Ok(_) => (
            format!(
                "self-test: hybrid smoke ok ({} of {} insns exempt)",
                exempt.iter().filter(|&&e| e).count(),
                exempt.len()
            ),
            0,
        ),
        Err(d) => (format!("self-test: FAILED - hybrid smoke diverged: {d}"), 1),
    }
}

/// Finds the lowest dictionary rank whose single-bit corruption makes the
/// lockstep oracle diverge for this program (nibble encoding), with the
/// divergence kind. `None` if the program builds no detectable dictionary
/// use.
fn detectable_rank(built: &BuiltProgram, isa: IsaRef, max_steps: u64) -> Option<(u32, String)> {
    let config = CompressionConfig::nibble_aligned();
    let compressed = compress(isa, &config, &built.module, None).ok()?;
    let mask = fuzz_mask(isa, built);
    for rank in 0..compressed.dictionary.len() as u32 {
        telemetry::FUZZ_LOCKSTEP_RUNS.inc();
        let mut image = compressed.to_image();
        image.dictionary_by_rank[rank as usize][0] ^= 1 << 21;
        let fetcher = PredecodedFetcher::from_image_with(&image, isa);
        if let Err(d) = lockstep_with(
            fetcher,
            &built.module,
            &compressed,
            &built.table_addrs,
            &|_| {},
            &mask,
            MEM_BYTES,
            max_steps,
        ) {
            return Some((rank, d.kind.to_string()));
        }
    }
    None
}

/// Runs a fuzz campaign for [`FuzzOptions::isa`]. Worker count comes from
/// [`codense_core::parallel::jobs`]; the report is independent of it.
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    // PowerPC reports keep their original header; other ISAs name theirs.
    let isa_tag = if opts.isa == PPC { String::new() } else { format!("isa={} ", opts.isa.name()) };
    let mut lines = vec![format!(
        "codense fuzz: {isa_tag}cases={} seed={:#x} max-steps={} fault-tries={} hybrid={}",
        opts.cases, opts.seed, opts.max_steps, opts.fault_tries, opts.hybrid
    )];
    let (st_lines, mut failures) = {
        let _phase = telemetry::phase("fuzz-self-test");
        self_test(opts.isa, opts.max_steps)
    };
    lines.extend(st_lines);

    let cases_phase = telemetry::phase("fuzz-cases");
    let outcomes = par_map((0..opts.cases).collect(), |_, case| run_case(opts, case));
    drop(cases_phase);

    let mut total = CaseOutcome::default();
    for out in outcomes {
        for v in 0..2 {
            for e in 0..4 {
                total.completed[v][e] += out.completed[v][e];
                total.skipped[v][e] += out.skipped[v][e];
            }
        }
        total.agreed_faults += out.agreed_faults;
        total.faults.absorb(out.faults);
        total.failures.extend(out.failures);
    }
    let faults = total.faults;
    failures += total.failures.len() + faults.panics as usize;

    let variants: &[&str] = if opts.hybrid { &["encoding", "hybrid"] } else { &["encoding"] };
    for (v, name) in variants.iter().enumerate() {
        for (e, (label, _)) in encodings().iter().enumerate() {
            lines.push(format!(
                "{name} {label}: completed={} skipped-overflow={}",
                total.completed[v][e], total.skipped[v][e]
            ));
        }
    }
    lines.push(format!("agreed-faults={}", total.agreed_faults));
    lines.push(format!(
        "fault-injection: checks={} typed-errors={} accepted={} executed={} panics={}",
        faults.checks, faults.typed_errors, faults.accepted, faults.executed, faults.panics
    ));
    lines.extend(total.failures);
    lines.push(if failures == 0 {
        format!("result: OK ({} cases, 0 divergences, 0 panics)", opts.cases)
    } else {
        format!("result: FAIL ({failures} failures over {} cases)", opts.cases)
    });
    FuzzReport { lines, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ISAS: [IsaRef; 2] = [PPC, IsaRef(&codense_mips::ISA)];

    #[test]
    fn tiny_campaign_is_clean_and_deterministic() {
        for isa in ISAS {
            let opts =
                FuzzOptions { cases: 6, seed: 99, fault_tries: 2, isa, ..Default::default() };
            let a = run(&opts);
            assert!(a.ok(), "campaign found failures:\n{}", a.render());
            let b = run(&opts);
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn tiny_hybrid_campaign_is_clean_and_deterministic() {
        for isa in ISAS {
            let opts = FuzzOptions {
                cases: 4,
                seed: 7,
                fault_tries: 1,
                hybrid: true,
                isa,
                ..Default::default()
            };
            let a = run(&opts);
            assert!(a.ok(), "hybrid campaign found failures:\n{}", a.render());
            assert!(a.render().contains("hybrid nibble: completed="), "{}", a.render());
            let b = run(&opts);
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn self_test_detects_seeded_corruption() {
        let (lines, failures) = self_test(PPC, 200_000);
        assert_eq!(failures, 0, "{lines:?}");
        assert!(lines[0].contains("caught"), "{lines:?}");
    }
}
