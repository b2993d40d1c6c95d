//! The `codense corpus` / `codense scale` subcommands plus the shared
//! `--corpus N` plumbing that lets `repro`, `sweep`, `profile`,
//! `hybrid-sweep`, `speed`, and `loadgen` swap their toy benchmark for a
//! SPEC-scale program from `codense-corpus`.

use std::time::Instant;

use codense_core::{verify::verify, CompressedProgram, CompressionConfig, Compressor};
use codense_corpus::{build, CorpusIsa, CorpusProgram, CorpusSpec};
use codense_vm::{reference, PredecodedFetcher};

use crate::{flag_value, insns_per_sec, parse_seed, CliResult, ReproRow, REPRO_ENCODINGS};

/// Parses a human-scale instruction count: plain decimal, or with a
/// `k`/`m` suffix (`10k`, `250k`, `1m`).
pub fn parse_size(v: &str) -> Result<usize, String> {
    let (digits, mult) = match v.to_ascii_lowercase() {
        ref s if s.ends_with('k') => (s[..s.len() - 1].to_string(), 1_000),
        ref s if s.ends_with('m') => (s[..s.len() - 1].to_string(), 1_000_000),
        s => (s, 1),
    };
    match digits.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n * mult),
        _ => Err(format!("bad size `{v}` (expected an integer >= 1, k/m suffixes ok)")),
    }
}

/// Renders a size the way `parse_size` reads it (`10000` → `10k`).
pub fn format_size(n: usize) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}m", n / 1_000_000)
    } else if n >= 1_000 && n.is_multiple_of(1_000) {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// The display/bench-key name of a corpus scale point.
pub fn corpus_name(insns: usize) -> String {
    format!("corpus-{}", format_size(insns))
}

/// Parses an optional `--corpus N` scale-point flag.
pub fn corpus_arg(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--corpus") {
        Some(v) => parse_size(v).map(Some).map_err(|e| format!("--corpus: {e}")),
        None => Ok(None),
    }
}

/// A [`CorpusSpec`] for `insns` instructions with the shared knob flags
/// (`--dup`, `--seed`) applied.
fn spec_from_args(args: &[String], insns: usize) -> Result<CorpusSpec, String> {
    let mut spec = CorpusSpec { insns, ..CorpusSpec::default() };
    if let Some(v) = flag_value(args, "--dup") {
        spec.dup = match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --dup `{v}` (expected an integer >= 1)")),
        };
    }
    if let Some(v) = flag_value(args, "--seed") {
        spec.seed = parse_seed(v)?;
    }
    Ok(spec)
}

fn parse_corpus_isa(name: &str) -> Result<CorpusIsa, String> {
    match name {
        "ppc" => Ok(CorpusIsa::Ppc),
        "mips" => Ok(CorpusIsa::Mips),
        other => Err(format!("unknown ISA `{other}` (ppc|mips)")),
    }
}

/// Builds the corpus program for `--corpus insns` on the named backend.
pub fn corpus_program(args: &[String], insns: usize, isa: &str) -> Result<CorpusProgram, String> {
    let spec = spec_from_args(args, insns)?;
    build(&spec, parse_corpus_isa(isa)?).map_err(|e| format!("{}: {e}", corpus_name(insns)))
}

/// Wraps a (PPC) corpus program as a profiling [`codense_profile::Subject`]:
/// no static init memory, jump tables seeded per fetch domain by the
/// subject, the corpus's 8 MiB data memory.
pub fn corpus_subject(p: &CorpusProgram) -> Result<codense_profile::Subject, String> {
    if p.isa != CorpusIsa::Ppc {
        return Err("corpus profiling subjects are PPC-only (the profiler's machine is)".into());
    }
    Ok(codense_profile::Subject {
        name: corpus_name(p.spec.insns),
        module: p.module.clone(),
        init_mem: Vec::new(),
        table_addrs: p.table_addrs.clone(),
        expected: p.stats.exit_code,
        mem_bytes: codense_corpus::MEM_BYTES,
    })
}

/// Compresses a corpus program under all four repro encodings with the
/// given selector, verifying each result — one extra row for the `repro`
/// table (printed only; the blessed artifacts carry the fixed suite).
pub fn corpus_repro_row(
    p: &CorpusProgram,
    selector: codense_core::SelectorKind,
) -> Result<ReproRow, String> {
    let mut ratios = [0.0f64; 4];
    for (i, &(_, encoding)) in REPRO_ENCODINGS.iter().enumerate() {
        let config =
            CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding };
        let c = Compressor::new(config)
            .with_isa(p.isa.isa_ref())
            .with_selector(selector)
            .compress(&p.module)
            .map_err(|e| format!("{}: {e}", corpus_name(p.spec.insns)))?;
        verify(&p.module, &c)
            .map_err(|e| format!("{} ({encoding:?}): {e}", corpus_name(p.spec.insns)))?;
        ratios[i] = c.compression_ratio();
    }
    Ok((corpus_name(p.spec.insns), p.module.len(), p.module.text_bytes(), ratios))
}

/// `codense corpus`: build one SPEC-scale program, print its measurements,
/// optionally write the module.
pub fn cmd_corpus(args: &[String]) -> CliResult {
    let insns = match flag_value(args, "--insns") {
        Some(v) => parse_size(v)?,
        None => CorpusSpec::default().insns,
    };
    let isa_name = crate::parse_isa(args)?;
    let spec = spec_from_args(args, insns)?;
    let t0 = Instant::now();
    let p = build(&spec, parse_corpus_isa(isa_name)?)
        .map_err(|e| format!("{}: {e}", corpus_name(insns)))?;
    let s = &p.stats;
    println!(
        "{} ({isa_name}, seed {:#x}): built in {:.1}s",
        corpus_name(insns),
        spec.seed,
        t0.elapsed().as_secs_f64()
    );
    println!("  modules      : {} ({} functions, dup {})", s.modules, s.functions, spec.dup);
    println!(
        "  instructions : {} static ({} bytes), {} dynamic",
        s.insns,
        p.module.text_bytes(),
        s.dynamic_insns
    );
    println!("  jump tables  : {} ({} dispatch passes)", s.jump_tables, s.passes);
    println!("  exit checksum: {:#010x}", s.exit_code);
    if let Some(path) = flag_value(args, "-o") {
        std::fs::write(path, codense_obj::serialize(&p.module))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {} instructions", p.module.len());
    }
    Ok(())
}

/// One scale point's measurements for `BENCH_scale.json`.
struct ScalePoint {
    target_insns: usize,
    insns: usize,
    dynamic_insns: u64,
    /// `(ratio, compress_insns_per_sec)` in [`REPRO_ENCODINGS`] order.
    per_encoding: [(f64, u64); 4],
    reparse_ips: u64,
    predecoded_ips: u64,
}

impl ScalePoint {
    fn speedup(&self) -> f64 {
        self.predecoded_ips as f64 / self.reparse_ips.max(1) as f64
    }
}

/// Times the reference reparse engine (`reference::CompressedFetcher`
/// under `reference::run`) and the production predecoded engine over full
/// runs of `p` under image `c`, best of `trials`, returning
/// `(reparse, predecoded)` insns/sec.
fn vm_trials(
    p: &CorpusProgram,
    c: &CompressedProgram,
    trials: usize,
) -> Result<(u64, u64), String> {
    let name = corpus_name(p.spec.insns);
    let mut best = (0u64, 0u64);
    for _ in 0..trials {
        let t0 = Instant::now();
        let mut core = p.compressed_core(c).map_err(|e| e.to_string())?;
        let mut fetch = reference::CompressedFetcher::new(c);
        let r =
            reference::run(core.as_mut(), &mut fetch, 0, u64::MAX).map_err(|e| e.to_string())?;
        let reparse = ips_of(r.steps, t0.elapsed());
        if r.exit_code != p.stats.exit_code {
            return Err(format!("{name}: reparse run exited {:#x}", r.exit_code));
        }

        let t0 = Instant::now();
        let mut fetch = PredecodedFetcher::new(c);
        let r = p
            .isa
            .run_predecoded(&mut fetch, |core| p.seed_compressed_tables(core, c), u64::MAX)
            .map_err(|e| e.to_string())?;
        let predecoded = ips_of(r.steps, t0.elapsed());
        if r.exit_code != p.stats.exit_code {
            return Err(format!("{name}: predecoded run exited {:#x}", r.exit_code));
        }
        best = (best.0.max(reparse), best.1.max(predecoded));
    }
    Ok(best)
}

fn ips_of(steps: u64, dt: std::time::Duration) -> u64 {
    (steps as f64 / dt.as_secs_f64().max(1e-9)) as u64
}

fn scale_point(
    args: &[String],
    insns: usize,
    isa: &str,
    trials: usize,
) -> Result<ScalePoint, String> {
    let p = corpus_program(args, insns, isa)?;
    let mut per_encoding = [(0.0f64, 0u64); 4];
    let mut nibble_image = None;
    for (i, &(ename, encoding)) in REPRO_ENCODINGS.iter().enumerate() {
        let config =
            CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding };
        let compressor = Compressor::new(config).with_isa(p.isa.isa_ref());
        let mut best_ns = u64::MAX;
        let mut image = None;
        for _ in 0..trials {
            let t0 = Instant::now();
            let c = compressor
                .compress(&p.module)
                .map_err(|e| format!("{} ({ename}): {e}", corpus_name(insns)))?;
            best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
            image = Some(c);
        }
        let c = image.expect("at least one trial");
        verify(&p.module, &c).map_err(|e| format!("{} ({ename}): {e}", corpus_name(insns)))?;
        per_encoding[i] = (c.compression_ratio(), insns_per_sec(p.module.len() as u64, best_ns));
        if ename == "nibble" {
            nibble_image = Some(c);
        }
    }
    // VM throughput under the headline nibble encoding (granule 1 — the
    // hardest case for the reparse path, and what the 5× bar is quoted on).
    let (reparse_ips, predecoded_ips) =
        vm_trials(&p, &nibble_image.expect("nibble is in REPRO_ENCODINGS"), trials)?;
    Ok(ScalePoint {
        target_insns: insns,
        insns: p.stats.insns,
        dynamic_insns: p.stats.dynamic_insns,
        per_encoding,
        reparse_ips,
        predecoded_ips,
    })
}

/// Renders the schema-1 `BENCH_scale.json` artifact: sorted keys, one
/// points array per ISA in scale order.
fn render_scale_json(per_isa: &[(&str, Vec<ScalePoint>)], trials: usize) -> String {
    // REPRO_ENCODINGS order is (baseline, onebyte, nibble, huffman); the
    // artifact's keys are alphabetical.
    const ALPHA: [(usize, &str); 4] =
        [(0, "baseline"), (3, "huffman"), (2, "nibble"), (1, "onebyte")];
    let mut json = String::new();
    json.push_str("{\n  \"isas\": {\n");
    let mut isas: Vec<_> = per_isa.iter().collect();
    isas.sort_by_key(|(name, _)| *name);
    for (ii, (isa, points)) in isas.iter().enumerate() {
        let isa_comma = if ii + 1 < isas.len() { "," } else { "" };
        json.push_str(&format!("    \"{isa}\": {{\n      \"points\": [\n"));
        for (pi, pt) in points.iter().enumerate() {
            let comma = if pi + 1 < points.len() { "," } else { "" };
            json.push_str("        {\n");
            json.push_str("          \"compress_insns_per_sec\": { ");
            for (k, (src, name)) in ALPHA.iter().enumerate() {
                let sep = if k + 1 < ALPHA.len() { ", " } else { " " };
                json.push_str(&format!("\"{name}\": {}{sep}", pt.per_encoding[*src].1));
            }
            json.push_str("},\n");
            json.push_str(&format!("          \"dynamic_insns\": {},\n", pt.dynamic_insns));
            json.push_str(&format!("          \"insns\": {},\n", pt.insns));
            json.push_str("          \"ratio\": { ");
            for (k, (src, name)) in ALPHA.iter().enumerate() {
                let sep = if k + 1 < ALPHA.len() { ", " } else { " " };
                json.push_str(&format!("\"{name}\": {:.4}{sep}", pt.per_encoding[*src].0));
            }
            json.push_str("},\n");
            json.push_str(&format!("          \"target_insns\": {},\n", pt.target_insns));
            json.push_str(&format!(
                "          \"vm\": {{ \"predecoded_insns_per_sec\": {}, \
                 \"reparse_insns_per_sec\": {}, \"speedup\": {:.2} }}\n",
                pt.predecoded_ips,
                pt.reparse_ips,
                pt.speedup()
            ));
            json.push_str(&format!("        }}{comma}\n"));
        }
        json.push_str(&format!("      ]\n    }}{isa_comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str(&format!("  \"trials\": {trials},\n"));
    json.push_str("  \"vm_encoding\": \"nibble\"\n");
    json.push_str("}\n");
    json
}

/// `codense scale`: the SPEC-scale benchmark — compression ratio, compress
/// throughput, and VM insns/sec at each scale point on the selected ISAs,
/// written as `BENCH_scale.json`.
pub fn cmd_scale(args: &[String]) -> CliResult {
    let points: Vec<usize> = match flag_value(args, "--points") {
        Some(csv) => csv.split(',').map(|s| parse_size(s.trim())).collect::<Result<_, _>>()?,
        None => vec![10_000, 100_000, 1_000_000],
    };
    let isas: Vec<&'static str> = match flag_value(args, "--isa") {
        None | Some("both") => vec!["ppc", "mips"],
        Some("ppc") => vec!["ppc"],
        Some("mips") => vec!["mips"],
        Some(other) => return Err(format!("unknown ISA `{other}` (ppc|mips|both)")),
    };
    let trials: usize = match flag_value(args, "--trials") {
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --trials `{v}` (expected an integer >= 1)")),
        },
        None => 3,
    };
    let out_path = flag_value(args, "--out").unwrap_or("BENCH_scale.json");

    let mut per_isa: Vec<(&str, Vec<ScalePoint>)> = Vec::new();
    for &isa in &isas {
        let mut rows = Vec::with_capacity(points.len());
        for &n in &points {
            let pt = scale_point(args, n, isa, trials)?;
            println!(
                "{isa} {}: {} insns, nibble ratio {:.1}%, compress {} insns/s, \
                 vm reparse {:.1}M/s -> predecoded {:.1}M/s ({:.2}x)",
                corpus_name(n),
                pt.insns,
                100.0 * pt.per_encoding[2].0,
                pt.per_encoding[2].1,
                pt.reparse_ips as f64 / 1e6,
                pt.predecoded_ips as f64 / 1e6,
                pt.speedup()
            );
            rows.push(pt);
        }
        per_isa.push((isa, rows));
    }

    let json = render_scale_json(&per_isa, trials);
    std::fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!("{out_path}: {} isa(s) x {} point(s), best of {trials}", per_isa.len(), points.len());
    Ok(())
}
