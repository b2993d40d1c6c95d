//! The codense benchmark: one workload per run, every end-to-end metric
//! by name and unit, every output checked.
//!
//! ```text
//! codense-perfbench --workload <corpus-1m|corpus-100k|serve-mixed>
//!                   --seed <n> --seconds <s> --trace <0|1> [--insns <n>]
//! ```
//!
//! Each workload runs four stages on its own inputs: compress + verify, a
//! cold predecoded VM run from container bytes, the profile-guided hybrid
//! flow, and an in-process server driven open and closed loop. The
//! workloads differ in program size, ISA, compressor configuration and
//! traffic, and in how the `--seconds` budget is split between the stages.
//! The corpus workloads compress their corpus programs; serve-mixed
//! compresses the modules its server is asked for.
//! Every timing metric is CPU time scaled to a reference host speed (see
//! `host.rs`), so that the host's load moves it as little as possible.
//! With `--trace 1` the same stages run with a span around every layer
//! call, and the run reports per-layer metrics instead. The last stdout
//! line is the JSON result; a human-readable table goes to stderr. See
//! `README.md` beside this file.

mod heap;
mod host;
mod serve;
mod stages;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use codense_core::{EncodingKind, SelectorKind};
use codense_corpus::{build, CorpusIsa, CorpusProgram, CorpusSpec};

use crate::serve::{HotItem, MissSource, Mix, ServeInputs};
use crate::stages::{Job, Stage};
use crate::host::{thread_cpu_s, Probe};
use crate::trace::{median, Tracer};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Minimum rounds of the compress, VM, hybrid and serve stages, whatever
/// `--seconds` is.
const MIN_ROUNDS: [usize; 4] = [3, 5, 2, 2];

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// The serve suite: the repository's eight SPEC-profile modules.
const SUITE: [&str; 8] = ["compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"];

/// Share of serve-mixed requests that repeat the hot set. Well above one
/// half, so the median request is a cache hit rather than sitting on the
/// edge between the hit and miss latency modes.
const SUITE_HIT_SHARE: f64 = 0.75;

/// What the serve stage sends.
enum Traffic {
    /// The suite hit/miss mix: open loop at `open_rps` for latency, plus a
    /// two-connection closed loop.
    Suite { open_rps: f64, closed_rps: f64 },
    /// The workload's PPC program, cache hits after priming, over a
    /// one-connection closed loop that also gives the latency (so no
    /// request waits behind another connection's multi-MiB frame).
    Program { closed_rps: f64 },
}

struct Workload {
    name: &'static str,
    /// Corpus program size (`CorpusSpec::insns`).
    insns: usize,
    isas: &'static [CorpusIsa],
    encoding: EncodingKind,
    selector: SelectorKind,
    /// Shares of `--seconds` for compress, VM, hybrid and serve.
    shares: [f64; 4],
    /// Wall seconds of one compress, VM and hybrid round on the host the
    /// benchmark was defined on; with `shares`, they fix each stage's round
    /// count.
    round_s: [f64; 3],
    /// Fixed rates: the open-loop arrival rate, and closed-loop requests
    /// per second of chunk (about the closed-loop throughput the workload
    /// measured when the benchmark was defined).
    traffic: Traffic,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "corpus-1m",
        insns: 1_000_000,
        isas: &[CorpusIsa::Ppc],
        encoding: EncodingKind::NibbleAligned,
        selector: SelectorKind::Greedy,
        shares: [0.30, 0.15, 0.35, 0.20],
        round_s: [0.70, 0.055, 1.75],
        traffic: Traffic::Program { closed_rps: 48.0 },
    },
    Workload {
        name: "corpus-100k",
        insns: 100_000,
        isas: &[CorpusIsa::Ppc, CorpusIsa::Mips],
        encoding: EncodingKind::Huffman,
        selector: SelectorKind::Refine,
        shares: [0.30, 0.15, 0.35, 0.20],
        round_s: [0.64, 0.078, 1.05],
        traffic: Traffic::Program { closed_rps: 450.0 },
    },
    Workload {
        name: "serve-mixed",
        insns: 30_000,
        isas: &[CorpusIsa::Ppc],
        encoding: EncodingKind::NibbleAligned,
        selector: SelectorKind::Greedy,
        shares: [0.12, 0.10, 0.28, 0.50],
        round_s: [0.30, 0.04, 0.90],
        traffic: Traffic::Suite { open_rps: 40.0, closed_rps: 270.0 },
    },
];

/// Metrics of one run: name → (value, unit).
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn print_table(&self, title: &str) {
        eprintln!("{title}");
        for (k, (v, u)) in &self.0 {
            eprintln!("  {k:<28} {v:>16.6} {u}");
        }
    }
}

/// JSON has no NaN or infinity; a missing value is written as -1, which no
/// metric can take, and also fails the run.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

/// Operations attempted and failed; every failure is kept for the report.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Records a failed determinism or correctness check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    insns: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let num = |flag: &str, default: &str| -> Result<f64, String> {
        let v = get(flag).unwrap_or(default);
        v.parse::<f64>().map_err(|_| format!("bad {flag} `{v}`"))
    };
    let seed = get("--seed").unwrap_or("1");
    Ok(Args {
        workload,
        seed: seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?,
        seconds: num("--seconds", "10")?.max(0.1),
        trace: num("--trace", "0")? != 0.0,
        insns: get("--insns")
            .map(|v| v.parse().map_err(|_| format!("bad --insns `{v}`")))
            .transpose()?,
    })
}

/// Everything a run needs before timing starts.
struct Setup {
    progs: Vec<CorpusProgram>,
    /// The serve suite's modules and hot-set items (serve-mixed only).
    suite: Option<(Vec<codense_obj::ObjectModule>, Vec<HotItem>)>,
}

const SUITE_ENCODINGS: [EncodingKind; 2] = [EncodingKind::NibbleAligned, EncodingKind::Huffman];

fn set_up(
    w: &Workload,
    insns: usize,
    seed: u64,
    tracer: &Tracer,
    rep: u64,
) -> Result<Setup, String> {
    let mut progs = Vec::new();
    for &isa in w.isas {
        let spec = CorpusSpec { insns, seed, ..CorpusSpec::default() };
        let (p, _) = tracer.span("corpus.build", rep, || build(&spec, isa));
        progs.push(p.map_err(|e| format!("corpus build: {e}"))?);
    }
    let suite = if let Traffic::Suite { .. } = w.traffic {
        let mut bases = Vec::new();
        let mut hot = Vec::new();
        for name in SUITE {
            let module =
                codense_codegen::benchmark(name).ok_or(format!("no suite module {name}"))?;
            for encoding in SUITE_ENCODINGS {
                let req = serve::request(&module, encoding);
                let expected = serve::expected(&module, &req)?;
                hot.push(HotItem { payload: req.encode(), expected });
            }
            bases.push(module);
        }
        Some((bases, hot))
    } else {
        None
    };
    Ok(Setup { progs, suite })
}

fn run(
    args: &Args,
    tracer: &Tracer,
    ledger: &mut Ledger,
    e2e: &mut Metrics,
    layers: &mut Metrics,
) -> Result<(), String> {
    let w = args.workload;
    let insns = args.insns.unwrap_or(w.insns);
    // One compression thread: the figures then measure work per thread
    // and do not depend on how many CPUs the host grants the run.
    codense_core::parallel::set_jobs(1);

    let mut probe = Probe::new();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        drop(setup.take());
        probe.sample();
        let (t0, cpu) = (probe.now(), thread_cpu_s());
        setup = Some(set_up(w, insns, args.seed, tracer, rep as u64)?);
        setup_s.push((thread_cpu_s() - cpu, t0, probe.now()));
    }
    probe.sample();
    let setup = setup.expect("SETUP_REPS > 0");
    let scaled: Vec<f64> = setup_s.iter().map(|&(s, t0, t1)| s * probe.scale(t0, t1)).collect();
    e2e.put("setup_s", median(&scaled), "s");
    stages::unscaled("setup", "s", setup_s.iter().map(|&(s, _, _)| s));
    if tracer.enabled() {
        layers.put(
            "corpus.build_s",
            median(&tracer.self_times("corpus.build")) * w.isas.len() as f64,
            "s",
        );
    }
    let sizes: Vec<String> =
        setup.progs.iter().map(|p| format!("{} {}", p.isa.name(), p.module.len())).collect();
    eprintln!("{} seed {}: programs {}", w.name, args.seed, sizes.join(", "));

    let Setup { progs, suite } = setup;
    let containers = progs
        .iter()
        .map(|p| stages::container_of(p, w.encoding, w.selector))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("compress before timing: {e}"))?;
    let inputs = match (&w.traffic, suite) {
        (&Traffic::Suite { open_rps, closed_rps }, Some((bases, hot))) => {
            let misses = MissSource {
                bases,
                encodings: SUITE_ENCODINGS.to_vec(),
                hit_share: SUITE_HIT_SHARE,
            };
            ServeInputs { hot, mix: Mix::Mixed { misses, open_rps }, closed_rps }
        }
        // The server compresses for PPC only, so the corpus workloads serve
        // their PPC program under the workload's configuration.
        (&Traffic::Program { closed_rps }, _) => {
            let i = progs.iter().position(|p| p.isa == CorpusIsa::Ppc).ok_or("no PPC program")?;
            let mut req = serve::request(&progs[i].module, w.encoding);
            req.selector = w.selector;
            let hot = vec![HotItem { payload: req.encode(), expected: containers[i].clone() }];
            ServeInputs { hot, mix: Mix::HitsOnly, closed_rps }
        }
        (Traffic::Suite { .. }, None) => return Err("suite traffic without a suite".into()),
    };
    let jobs = match &inputs.mix {
        // The served modules, each under every served encoding: what a
        // cache miss costs the server's worker. Unlike a seeded corpus
        // program, they are the same for every seed, and so is their
        // compression ratio.
        Mix::Mixed { misses, .. } => misses
            .bases
            .iter()
            .flat_map(|module| {
                SUITE_ENCODINGS.map(|encoding| Job { module, isa: CorpusIsa::Ppc, encoding })
            })
            .collect(),
        Mix::HitsOnly => progs
            .iter()
            .map(|p| Job { module: &p.module, isa: p.isa, encoding: w.encoding })
            .collect(),
    };
    let mut compress = stages::CompressStage::new(jobs, w.selector);
    let mut vm = stages::VmStage::new(&progs, containers);
    let ppc = progs.iter().find(|p| p.isa == CorpusIsa::Ppc).ok_or("no PPC program")?;
    let mut hybrid = stages::HybridStage::new(ppc, w.encoding, w.selector);
    let mut serve = serve::ServeStage::start(&inputs, args.seed, ledger)?;

    // Every stage runs a fixed number of rounds: its share of `--seconds`
    // at the round time the workload measured when the benchmark was
    // defined. The rounds are interleaved, each going to the stage furthest
    // behind its count, so every stage samples the whole run, and every run
    // of a seed does the same work in the same order. On a host so slow
    // that the rounds take more than twice `--seconds`, the run stops early
    // rather than run out of its time limit.
    let targets: [usize; 4] = std::array::from_fn(|i| {
        let round_s = if i == 3 { serve::CHUNK_S } else { w.round_s[i] };
        ((w.shares[i] * args.seconds / round_s).round() as usize).max(MIN_ROUNDS[i])
    });
    let mut steps = [0usize; 4];
    // Each stage's correct rounds, as wall times on the probe's clock.
    let mut windows: [Vec<(f64, f64)>; 4] = Default::default();
    let all: [&mut dyn Stage; 4] = [&mut compress, &mut vm, &mut hybrid, &mut serve];
    let deadline = probe.now() + 2.0 * args.seconds;
    while let Some(i) = (0..4)
        .filter(|&i| steps[i] < targets[i] && (steps[i] < MIN_ROUNDS[i] || probe.now() < deadline))
        .min_by(|&a, &b| {
            (steps[a] as f64 / targets[a] as f64).total_cmp(&(steps[b] as f64 / targets[b] as f64))
        })
    {
        probe.sample_if_due();
        let (rounds, t0) = (all[i].rounds(), probe.now());
        all[i].step(tracer, ledger);
        steps[i] += 1;
        if all[i].rounds() > rounds {
            windows[i].push((t0, probe.now()));
        }
    }
    probe.sample();
    let [c, v, h, s] =
        windows.map(|w| w.iter().map(|&(t0, t1)| probe.scale(t0, t1)).collect::<Vec<_>>());
    compress.finish(&c, tracer, ledger, e2e, layers);
    vm.finish(&v, tracer, e2e, layers);
    hybrid.finish(&h, tracer, e2e, layers);
    serve.finish(&s, tracer, ledger, e2e, layers)?;
    e2e.put("peak_heap_mb", heap::peak_mb(), "MiB");
    let probes = probe.times();
    stages::report("host probe", "s", &probes);
    eprintln!(
        "  host scale (median per stage): compress {:.3}, vm {:.3}, hybrid {:.3}, serve {:.3}",
        median(&c),
        median(&v),
        median(&h),
        median(&s)
    );
    if tracer.enabled() {
        layers.put("host.probe_s", median(&probes), "s");
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("codense-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut ledger = Ledger::default();
    let (mut e2e, mut layers) = (Metrics::default(), Metrics::default());
    let started = Instant::now();
    if let Err(e) = run(&args, &tracer, &mut ledger, &mut e2e, &mut layers) {
        eprintln!("codense-perfbench: {e}");
        std::process::exit(1);
    }
    let failed = ledger.failures.len() as u64;
    for f in ledger.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let attempted = ledger.attempted.max(failed).max(1);
    e2e.print_table(&format!(
        "{} (seed {}, {:.1} s, {} CPUs):",
        args.workload.name,
        args.seed,
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    eprintln!(
        "  {:<28} {:>16.6} share ({failed} of {attempted} operations)",
        "failed_ratio",
        failed as f64 / attempted as f64
    );
    let metrics = if args.trace {
        layers.print_table("per-layer (traced run):");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload.name, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            Ok(()) => eprintln!("  {} spans written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("  spans not written: {e}"),
        }
        &layers
    } else {
        &e2e
    };
    let all_finite = metrics.0.values().all(|(v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && all_finite,
        metrics.json()
    );
}
