//! The compress, VM and hybrid stages: each times calls into the public
//! functions of `codense-core`, `codense-vm` and `codense-profile` on the
//! workload's corpus programs and checks every output.

use codense_core::container::{self, ProgramImage};
use codense_core::greedy::{run_greedy_with, CostModel, GreedyParams};
use codense_core::model::ProgramModel;
use codense_core::verify::verify;
use codense_core::{
    telemetry, CandidateIndex, CompressedProgram, CompressionConfig, Compressor, Dictionary,
    EncodingKind, SelectorKind,
};
use codense_corpus::{CorpusIsa, CorpusProgram, MEM_BYTES};
use codense_isa::PredecodeCore;
use codense_obj::ObjectModule;
use codense_profile::{
    collect_subject, hot_mask, score_compressed_subject, CostParams, HotnessPolicy, Subject,
};
use codense_vm::{run_predecoded, FetchStats, PredecodedFetcher};

use crate::host::thread_cpu_s;
use crate::trace::{median, Tracer};
use crate::{Ledger, Metrics};

/// Longest dictionary entry, as in the paper's configuration.
pub const MAX_ENTRY_LEN: usize = 4;

/// Hotness policy of the hybrid flow: exempt the hottest blocks covering
/// 90% of dynamic execution.
const HOT_COVERAGE: f64 = 0.9;

/// Traced runs split compress into its layers at least this many times,
/// and for at least [`DECOMPOSE_S`] seconds, so small programs get enough
/// rounds for a steady median.
const DECOMPOSITIONS: usize = 2;
const DECOMPOSE_S: f64 = 1.0;

pub fn config(encoding: EncodingKind) -> CompressionConfig {
    CompressionConfig { max_entry_len: MAX_ENTRY_LEN, max_codewords: encoding.capacity(), encoding }
}

pub fn compressor(isa: CorpusIsa, encoding: EncodingKind, selector: SelectorKind) -> Compressor {
    Compressor::new(config(encoding)).with_isa(isa.isa_ref()).with_selector(selector)
}

/// Telemetry counters that moved, with how much.
type Deltas = Vec<(&'static str, u64)>;

/// Counter deltas across `f`, for every counter that moved.
fn counter_delta<R>(f: impl FnOnce() -> R) -> (R, Deltas) {
    let before = telemetry::counter_snapshot();
    let r = f();
    let after = telemetry::counter_snapshot();
    let delta = before
        .iter()
        .zip(&after)
        .filter(|((_, b), (_, a))| a != b)
        .map(|((name, b), (_, a))| (*name, a - b))
        .collect();
    (r, delta)
}

fn counter(delta: &[(&'static str, u64)], name: &str) -> u64 {
    delta.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
}

/// Summed wall time of every telemetry phase whose path ends in one of
/// `suffixes`.
fn phase_total_s(suffixes: &[&str]) -> f64 {
    telemetry::phase_snapshot()
        .iter()
        .filter(|(path, _)| suffixes.iter().any(|s| path.ends_with(s)))
        .map(|(_, stat)| stat.total_ns as f64 * 1e-9)
        .sum()
}

/// The numerator of the paper's Eq. 1: text + dictionary + overflow table
/// + Huffman table bytes.
fn eq1_bytes(c: &CompressedProgram) -> usize {
    c.text_bytes() + c.dictionary_bytes() + c.overflow_table_bytes() + c.huffman_table_bytes()
}

/// One round of a stage; the run interleaves the stages round by round so
/// that each one samples the whole run, not one stretch of it.
pub trait Stage {
    fn step(&mut self, tracer: &Tracer, ledger: &mut Ledger);
    fn rounds(&self) -> usize;
}

/// The verified container of a corpus program: compressed once, before
/// timing, for the VM stage and the corpus workloads' serve traffic.
pub fn container_of(
    p: &CorpusProgram,
    encoding: EncodingKind,
    selector: SelectorKind,
) -> Result<Vec<u8>, String> {
    let c = compressor(p.isa, encoding, selector).compress(&p.module).map_err(|e| e.to_string())?;
    verify(&p.module, &c).map_err(|e| e.to_string())?;
    Ok(container::serialize(&c))
}

/// One compression of every compress round: a module under one encoding.
pub struct Job<'a> {
    pub module: &'a ObjectModule,
    pub isa: CorpusIsa,
    pub encoding: EncodingKind,
}

/// Compress + verify of every job, then serialization of the images. Each
/// round must reproduce the first one's ratio, container bytes and
/// telemetry counters exactly.
pub struct CompressStage<'a> {
    jobs: Vec<Job<'a>>,
    selector: SelectorKind,
    /// The first correct round: containers, ratio and counter deltas.
    first: Option<(Vec<Vec<u8>>, f64, Deltas)>,
    iter: u64,
    /// CPU seconds of compress + verify, one per correct round.
    cpu_s: Vec<f64>,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    compress_s: Vec<f64>,
    verify_s: Vec<f64>,
    serialize_s: Vec<f64>,
}

impl<'a> CompressStage<'a> {
    pub fn new(jobs: Vec<Job<'a>>, selector: SelectorKind) -> Self {
        CompressStage {
            jobs,
            selector,
            first: None,
            iter: 0,
            cpu_s: Vec::new(),
            traced_s: Vec::new(),
            untraced_s: Vec::new(),
            compress_s: Vec::new(),
            verify_s: Vec::new(),
            serialize_s: Vec::new(),
        }
    }

    /// Reports the stage's metrics and, traced, splits compress into its
    /// layers. `scale` holds each round's host-speed factor.
    pub fn finish(
        self,
        scale: &[f64],
        tracer: &Tracer,
        ledger: &mut Ledger,
        e2e: &mut Metrics,
        layers: &mut Metrics,
    ) {
        let Some((_, ratio, delta)) = self.first else {
            return;
        };
        let static_insns = self.jobs.iter().map(|j| j.module.len()).sum::<usize>() as f64;
        let rates: Vec<f64> =
            self.cpu_s.iter().zip(scale).map(|(s, k)| static_insns / (s * k)).collect();
        e2e.put("compress_insns_per_cpu_s", median(&rates), "insns/s");
        e2e.put("compression_ratio", ratio, "ratio");
        report("compress", "insns/s", &rates);
        unscaled("compress", "insns/s", self.cpu_s.iter().map(|s| static_insns / s));
        if tracer.enabled() {
            layers.put("core.verify_s", median(&self.verify_s), "s");
            layers.put("container.serialize_s", median(&self.serialize_s), "s");
            layers.put(
                "trace.compress_overhead",
                overhead(&self.traced_s, &self.untraced_s),
                "share",
            );
            for name in [
                "greedy.window_adds",
                "greedy.window_removes",
                "greedy.replacements",
                "greedy.heap_pops",
                "greedy.picks_accepted",
            ] {
                layers.put(name, counter(&delta, name) as f64, "count");
            }
            let pops = counter(&delta, "greedy.heap_pops").max(1) as f64;
            let picks = counter(&delta, "greedy.picks_accepted") as f64;
            layers.put("core.pick_yield", picks / pops, "ratio");
            let (c, v) = (median(&self.compress_s), median(&self.verify_s));
            decompose(&self.jobs, self.selector, c, v, tracer, ledger, layers);
        }
    }
}

impl Stage for CompressStage<'_> {
    fn rounds(&self) -> usize {
        self.cpu_s.len()
    }

    fn step(&mut self, tracer: &Tracer, ledger: &mut Ledger) {
        let (iter, selector) = (self.iter, self.selector);
        self.iter += 1;
        // Traced runs alternate traced and untraced rounds, so the tracing
        // overhead is measured on the same inputs.
        let record = iter.is_multiple_of(2);
        ledger.attempted += 1;
        let mut programs = Vec::new();
        let (mut c_s, mut v_s, mut s_s) = (0.0, 0.0, 0.0);
        let mut ok = true;
        let cpu = thread_cpu_s();
        let ((), delta) = counter_delta(|| {
            let ((), _) = tracer.span_if(record, "compress", iter, || {
                for j in &self.jobs {
                    let c = compressor(j.isa, j.encoding, selector);
                    let (r, dt) =
                        tracer.span_if(record, "core.compress", iter, || c.compress(j.module));
                    c_s += dt;
                    let Ok(compressed) = r.map_err(|e| ledger.fail(format!("compress: {e}")))
                    else {
                        ok = false;
                        continue;
                    };
                    let (r, dt) = tracer
                        .span_if(record, "core.verify", iter, || verify(j.module, &compressed));
                    v_s += dt;
                    if let Err(e) = r {
                        ledger.fail(format!("verify: {e}"));
                        ok = false;
                    }
                    programs.push(compressed);
                }
            });
        });
        let cpu = thread_cpu_s() - cpu;
        let mut containers = Vec::new();
        for c in &programs {
            let (bytes, dt) =
                tracer.span_if(record, "container.serialize", iter, || container::serialize(c));
            s_s += dt;
            containers.push(bytes);
        }
        if !ok {
            return;
        }
        let original: usize = self.jobs.iter().map(|j| j.module.text_bytes()).sum();
        let ratio = programs.iter().map(eq1_bytes).sum::<usize>() as f64 / original as f64;
        match &self.first {
            None => self.first = Some((containers, ratio, delta)),
            Some((f, f_ratio, f_delta)) => {
                ledger.check(ratio == *f_ratio, || format!("ratio {ratio} != {f_ratio}"));
                ledger.check(*f == containers, || "container bytes differ".into());
                ledger.check(*f_delta == delta, || format!("counters {delta:?} != {f_delta:?}"));
            }
        }
        self.cpu_s.push(cpu);
        if record { &mut self.traced_s } else { &mut self.untraced_s }.push(c_s + v_s);
        self.compress_s.push(c_s);
        self.verify_s.push(v_s);
        self.serialize_s.push(s_s);
    }
}

/// Prints a stage's sample count and range on stderr.
pub fn report(stage: &str, unit: &str, samples: &[f64]) {
    let (lo, hi) =
        samples.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| (a.min(x), b.max(x)));
    eprintln!(
        "  {stage}: {} samples, min {lo:.6} / median {:.6} / max {hi:.6} {unit}",
        samples.len(),
        median(samples)
    );
}

/// Prints the median of a stage's CPU-time samples before host scaling,
/// for comparison with the scaled ones.
pub fn unscaled(stage: &str, unit: &str, samples: impl Iterator<Item = f64>) {
    eprintln!("  {stage} unscaled: median {:.6} {unit}", median(&samples.collect::<Vec<_>>()));
}

/// Splits compress into its layers by calling each one separately: model
/// build, window mining, greedy selection on a fresh model over the mined
/// index, and refinement over the same index. Layout + pack is what a
/// greedy compress spends beyond the first three, cross-checked against the
/// compressor's own phase timers.
fn decompose(
    jobs: &[Job],
    selector: SelectorKind,
    compress_s: f64,
    verify_s: f64,
    tracer: &Tracer,
    ledger: &mut Ledger,
    layers: &mut Metrics,
) {
    let mut sums = [const { Vec::new() }; 7];
    let (mut trials, mut swaps) = (0u64, 0u64);
    let start = std::time::Instant::now();
    let mut round = 0;
    while round < DECOMPOSITIONS || start.elapsed().as_secs_f64() < DECOMPOSE_S {
        let id = 1_000_000 + round as u64;
        let mut s = [0.0f64; 7];
        for j in jobs {
            let (isa, encoding) = (j.isa.isa_ref(), j.encoding);
            let greedy = compressor(j.isa, encoding, SelectorKind::Greedy);
            let phases_before = phase_total_s(&["compress/layout", "compress/pack"]);
            let (r, dt) = tracer.span("core.compress_greedy", id, || greedy.compress(j.module));
            s[0] += dt;
            s[1] += phase_total_s(&["compress/layout", "compress/pack"]) - phases_before;
            let Ok(compressed) = r.map_err(|e| ledger.fail(format!("greedy compress: {e}"))) else {
                continue;
            };
            let (model, dt) =
                tracer.span("core.model", id, || ProgramModel::build_isa(j.module, isa));
            s[2] += dt;
            let (index, dt) =
                tracer.span("core.mine", id, || CandidateIndex::build(&model, MAX_ENTRY_LEN));
            s[3] += dt;
            let Ok(index) = index.map_err(|e| ledger.fail(format!("mine: {e}"))) else {
                continue;
            };
            let mut fresh = ProgramModel::build_isa(j.module, isa);
            let cfg = config(encoding);
            let params = GreedyParams {
                max_entry_len: MAX_ENTRY_LEN,
                max_codewords: cfg.effective_max_codewords(),
                cost: CostModel {
                    insn_bits: encoding.uncompressed_insn_bits(),
                    codeword_bits: encoding.codeword_bits_estimate(),
                    dict_word_bits: 32,
                    dict_entry_fixed_bits: 0,
                },
            };
            let (picks, dt) = tracer.span("core.select", id, || {
                run_greedy_with(&index, &mut fresh, &mut Dictionary::new(), params)
            });
            s[4] += dt;
            // The split is only valid while this selection is the one
            // compress performs.
            ledger.check(picks == compressed.picks, || {
                format!(
                    "core.select made {} picks, greedy compress {}",
                    picks.len(),
                    compressed.picks.len()
                )
            });
            let refine = compressor(j.isa, encoding, SelectorKind::Refine);
            let ((r, dt), delta) = counter_delta(|| {
                tracer.span("core.refine", id, || refine.compress_with_index(j.module, &index))
            });
            s[5] += dt;
            if let Err(e) = r {
                ledger.fail(format!("refine: {e}"));
            }
            if round == 0 {
                trials += counter(&delta, "refine.trials");
                swaps += counter(&delta, "refine.swaps_accepted");
            }
        }
        s[6] = s[0] - s[2] - s[3] - s[4];
        for (v, x) in sums.iter_mut().zip(s) {
            v.push(x);
        }
        round += 1;
    }
    let [_greedy, phase_lp, model, mine, select, refine, layout_pack] = sums.map(|v| median(&v));
    layers.put("core.model_s", model, "s");
    layers.put("core.mine_s", mine, "s");
    layers.put("core.select_s", select, "s");
    layers.put("core.layout_pack_s", layout_pack, "s");
    layers.put("core.layout_pack_phase_s", phase_lp, "s");
    layers.put("core.refine_s", refine, "s");
    layers.put("refine.trials", trials as f64, "count");
    layers.put("refine.swaps_accepted", swaps as f64, "count");
    layers.put("core.refine_yield", swaps as f64 / trials.max(1) as f64, "ratio");
    // The workload's own compress: greedy is model + mine + select + the
    // layout/pack phases; refine is model + mine + refinement.
    let covered = match selector {
        SelectorKind::Greedy => model + mine + select + phase_lp,
        SelectorKind::Refine => model + mine + refine,
    };
    layers.put(
        "compress.uncovered_share",
        (compress_s - covered) / (compress_s + verify_s),
        "share",
    );
}

fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    median(traced) / median(untraced) - 1.0
}

/// A predecoded core for one backend.
trait VmCore: PredecodeCore + Sized {
    fn fresh() -> Self;
}

impl VmCore for codense_ppc::machine::Machine {
    fn fresh() -> Self {
        Self::new(MEM_BYTES)
    }
}

impl VmCore for codense_mips::Machine {
    fn fresh() -> Self {
        Self::new(MEM_BYTES)
    }
}

/// One cold run's observations.
#[derive(Debug, Clone, PartialEq)]
struct Cold {
    steps: u64,
    exit: u32,
    stats: FetchStats,
    escapes: u64,
    cached_items: usize,
}

#[derive(Default)]
struct VmTimes {
    /// CPU seconds of the cold runs (wall seconds for the fields below).
    cold_cpu: f64,
    cold_total: f64,
    deserialize: f64,
    load: f64,
    cold_run: f64,
    warm_run: f64,
    steps: u64,
}

fn seeded_machine<M: VmCore>(image: &ProgramImage, p: &CorpusProgram) -> Result<M, String> {
    let mut m = M::fresh();
    for (t, table) in image.jump_tables.iter().enumerate() {
        for (e, &target) in table.iter().enumerate() {
            m.write32(p.table_addrs[t] + 4 * e as u32, target).map_err(|e| e.to_string())?;
        }
    }
    Ok(m)
}

/// One whole cold run from container bytes to halt, then (when traced) a
/// warm rerun on the filled fetcher with a fresh machine.
fn cold_run<M: VmCore>(
    p: &CorpusProgram,
    bytes: &[u8],
    iter: u64,
    record: bool,
    tracer: &Tracer,
    t: &mut VmTimes,
) -> Result<Cold, String> {
    let max_steps = p.stats.dynamic_insns * 2 + 1_000_000;
    let isa = p.isa.isa_ref();
    let cpu = thread_cpu_s();
    let (r, total) = tracer.span_if(record, "vm.cold", iter, || {
        let (image, dt) =
            tracer.span_if(record, "container.deserialize", iter, || container::deserialize(bytes));
        t.deserialize += dt;
        let image = image.map_err(|e| e.to_string())?;
        let (mut fetch, dt) = tracer
            .span_if(record, "vm.load", iter, || PredecodedFetcher::from_image_with(&image, isa));
        t.load += dt;
        let mut m = seeded_machine::<M>(&image, p)?;
        let ((r, dt), delta) = counter_delta(|| {
            tracer.span_if(record, "vm.cold_run", iter, || {
                run_predecoded(&mut m, &mut fetch, 0, max_steps)
            })
        });
        t.cold_run += dt;
        let r = r.map_err(|e| e.to_string())?;
        let cold = Cold {
            steps: r.steps,
            exit: r.exit_code,
            stats: r.stats,
            escapes: counter(&delta, "vm.fetch.escapes"),
            cached_items: fetch.cached_items(),
        };
        Ok::<_, String>((cold, (fetch, image)))
    });
    t.cold_cpu += thread_cpu_s() - cpu;
    let (cold, fetch) = r?;
    t.cold_total += total;
    t.steps += cold.steps;
    if tracer.enabled() {
        let (mut fetch, image) = fetch;
        let mut m = seeded_machine::<M>(&image, p)?;
        let (r, dt) =
            tracer.span("vm.warm_run", iter, || run_predecoded(&mut m, &mut fetch, 0, max_steps));
        t.warm_run += dt;
        let r = r.map_err(|e| e.to_string())?;
        if (r.steps, r.exit_code) != (cold.steps, cold.exit) {
            return Err(format!("warm run differs: {} steps, exit {:#x}", r.steps, r.exit_code));
        }
    }
    Ok(cold)
}

/// Runs every compressed program to halt from its container bytes, each
/// time with a fresh fetcher and machine.
pub struct VmStage<'a> {
    progs: &'a [CorpusProgram],
    containers: Vec<Vec<u8>>,
    first: Option<Vec<Cold>>,
    iter: u64,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    samples: Vec<VmTimes>,
}

impl<'a> VmStage<'a> {
    pub fn new(progs: &'a [CorpusProgram], containers: Vec<Vec<u8>>) -> Self {
        VmStage {
            progs,
            containers,
            first: None,
            iter: 0,
            traced_s: Vec::new(),
            untraced_s: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// `scale` holds each round's host-speed factor.
    pub fn finish(self, scale: &[f64], tracer: &Tracer, e2e: &mut Metrics, layers: &mut Metrics) {
        let rates: Vec<f64> = self
            .samples
            .iter()
            .zip(scale)
            .map(|(t, k)| t.steps as f64 / (t.cold_cpu * k))
            .collect();
        e2e.put("vm_insns_per_cpu_s", median(&rates), "insns/s");
        report("vm", "insns/s", &rates);
        unscaled("vm", "insns/s", self.samples.iter().map(|t| t.steps as f64 / t.cold_cpu));
        let (true, Some(colds)) = (tracer.enabled(), self.first) else {
            return;
        };
        let samples = &self.samples;
        let col = |f: fn(&VmTimes) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        layers.put("container.deserialize_s", col(|t| t.deserialize), "s");
        layers.put("vm.load_s", col(|t| t.load), "s");
        layers.put("vm.cold_run_s", col(|t| t.cold_run), "s");
        layers.put("vm.warm_run_s", col(|t| t.warm_run), "s");
        layers.put("vm.fill_s", col(|t| t.cold_run - t.warm_run), "s");
        layers.put("vm.dispatch_insns_per_s", col(|t| t.steps as f64 / t.warm_run), "insns/s");
        layers.put(
            "vm.uncovered_share",
            col(|t| (t.cold_total - t.deserialize - t.load - t.cold_run) / t.cold_total),
            "share",
        );
        layers.put("trace.vm_overhead", overhead(&self.traced_s, &self.untraced_s), "share");
        let sum = |f: fn(&Cold) -> u64| colds.iter().map(f).sum::<u64>() as f64;
        layers.put("vm.cached_items", sum(|c| c.cached_items as u64), "count");
        layers.put("vm.fetch.insns", sum(|c| c.stats.insns), "count");
        layers.put("vm.fetch.codewords", sum(|c| c.stats.codewords), "count");
        layers.put("vm.fetch.escapes", sum(|c| c.escapes), "count");
        layers.put("vm.fetch.realigns", sum(|c| c.stats.realigns), "count");
        layers.put("vm.fetch.nibbles", sum(|c| c.stats.nibbles_fetched), "count");
    }
}

impl Stage for VmStage<'_> {
    fn rounds(&self) -> usize {
        self.samples.len()
    }

    fn step(&mut self, tracer: &Tracer, ledger: &mut Ledger) {
        let iter = self.iter;
        self.iter += 1;
        let record = iter.is_multiple_of(2);
        let mut t = VmTimes::default();
        let mut colds = Vec::new();
        for (p, bytes) in self.progs.iter().zip(&self.containers) {
            ledger.attempted += 1;
            let r = match p.isa {
                CorpusIsa::Ppc => cold_run::<codense_ppc::machine::Machine>(
                    p, bytes, iter, record, tracer, &mut t,
                ),
                CorpusIsa::Mips => {
                    cold_run::<codense_mips::Machine>(p, bytes, iter, record, tracer, &mut t)
                }
            };
            match r {
                Ok(c) if c.exit == p.stats.exit_code => colds.push(c),
                Ok(c) => {
                    ledger.fail(format!("vm exit {:#x}, want {:#x}", c.exit, p.stats.exit_code))
                }
                Err(e) => ledger.fail(format!("vm: {e}")),
            }
        }
        if colds.len() != self.progs.len() {
            return;
        }
        match &self.first {
            None => self.first = Some(colds),
            Some(f) => ledger.check(*f == colds, || format!("fetch counts {colds:?} != {f:?}")),
        }
        if record { &mut self.traced_s } else { &mut self.untraced_s }.push(t.cold_total);
        self.samples.push(t);
    }
}

/// The profiling subject of a (PPC) corpus program.
fn subject(p: &CorpusProgram) -> Subject {
    Subject {
        name: format!("corpus-{}", p.spec.insns),
        module: p.module.clone(),
        init_mem: Vec::new(),
        table_addrs: p.table_addrs.clone(),
        expected: p.stats.exit_code,
        mem_bytes: MEM_BYTES,
    }
}

/// The profile-guided hybrid flow on the workload's PPC program: collect a
/// profile, exempt the hot blocks, compress the rest, verify, and score
/// the image under the cost model.
pub struct HybridStage<'a> {
    p: &'a CorpusProgram,
    subject: Subject,
    compressor: Compressor,
    encoding: EncodingKind,
    first: Option<(usize, u64)>,
    iter: u64,
    /// CPU seconds of each correct flow.
    cpu_s: Vec<f64>,
    parts: [Vec<f64>; 3],
}

impl<'a> HybridStage<'a> {
    pub fn new(p: &'a CorpusProgram, encoding: EncodingKind, selector: SelectorKind) -> Self {
        HybridStage {
            p,
            subject: subject(p),
            compressor: compressor(p.isa, encoding, selector),
            encoding,
            first: None,
            iter: 0,
            cpu_s: Vec::new(),
            parts: [const { Vec::new() }; 3],
        }
    }

    /// `scale` holds each round's host-speed factor.
    pub fn finish(self, scale: &[f64], tracer: &Tracer, e2e: &mut Metrics, layers: &mut Metrics) {
        let times: Vec<f64> = self.cpu_s.iter().zip(scale).map(|(s, k)| s * k).collect();
        e2e.put("hybrid_cpu_s", median(&times), "s");
        report("hybrid", "s", &times);
        unscaled("hybrid", "s", self.cpu_s.iter().copied());
        if let (true, Some((exempt, cycles))) = (tracer.enabled(), self.first) {
            let [collect, compress, score] = self.parts.map(|v| median(&v));
            layers.put("profile.collect_s", collect, "s");
            layers.put("core.hybrid_compress_s", compress, "s");
            layers.put("profile.score_s", score, "s");
            layers.put("profile.exempt_insns", exempt as f64, "count");
            layers.put("profile.modeled_cycles", cycles as f64, "count");
        }
    }
}

impl Stage for HybridStage<'_> {
    fn rounds(&self) -> usize {
        self.cpu_s.len()
    }

    fn step(&mut self, tracer: &Tracer, ledger: &mut Ledger) {
        let iter = self.iter;
        self.iter += 1;
        ledger.attempted += 1;
        let (p, subject, encoding) = (self.p, &self.subject, self.encoding);
        let max_steps = p.stats.dynamic_insns * 4 + 1_000_000;
        let mut s = [0.0f64; 3];
        let cpu = thread_cpu_s();
        let (r, _) = tracer.span("hybrid", iter, || {
            let (profile, dt) = tracer
                .span("profile.collect", iter, || collect_subject(subject, encoding, max_steps));
            s[0] = dt;
            let profile = profile.map_err(|e| e.to_string())?;
            let (mask, _) = tracer.span("profile.hot_mask", iter, || {
                hot_mask(&profile, HotnessPolicy::TopCoverage(HOT_COVERAGE))
            });
            let (image, dt) = tracer.span("core.hybrid_compress", iter, || {
                self.compressor.compress_masked(&p.module, &mask.exempt)
            });
            s[1] = dt;
            let image = image.map_err(|e| e.to_string())?;
            let (v, _) = tracer.span("core.hybrid_verify", iter, || verify(&p.module, &image));
            v.map_err(|e| e.to_string())?;
            let (score, dt) = tracer.span("profile.score", iter, || {
                score_compressed_subject(subject, &image, &CostParams::default(), max_steps)
            });
            s[2] = dt;
            let score = score.map_err(|e| e.to_string())?;
            Ok::<_, String>((mask.exempt_insn_count(), score.cycles))
        });
        let cpu = thread_cpu_s() - cpu;
        match r {
            Ok(got) => {
                match self.first {
                    None => self.first = Some(got),
                    Some(f) => ledger.check(f == got, || format!("hybrid {got:?} != {f:?}")),
                }
                self.cpu_s.push(cpu);
                for (v, x) in self.parts.iter_mut().zip(s) {
                    v.push(x);
                }
            }
            Err(e) => ledger.fail(format!("hybrid: {e}")),
        }
    }
}
