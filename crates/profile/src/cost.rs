//! The cycle-level fetch performance model.
//!
//! The paper's §5 names the costs of compressed execution — dictionary
//! accesses to expand codewords, escape decoding, branching into a
//! nibble-aligned stream — without quantifying them. This module assigns
//! each fetch-path event a configurable cycle cost and adds I-cache miss
//! penalties from the `codense-cache` simulator, fed each program-memory
//! reference as the predecoded VM makes it (no trace is recorded):
//!
//! ```text
//! cycles = insns·native + escapes·escape + expanded·expand
//!        + realigns·realign + misses·miss_penalty
//! ```
//!
//! Every event count comes from a deterministic VM run, so scores are
//! byte-stable across thread counts.

use codense_cache::{Cache, CacheConfig};
use codense_core::CompressedProgram;
use codense_vm::kernels::Kernel;
use codense_vm::{run_predecoded_with, Machine, PredecodedFetcher};

use crate::collect::{check_exit, ProfileError};
use crate::subject::Subject;

/// Per-event cycle costs and the modeled I-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Base cycles per delivered instruction (native and compressed alike).
    pub native_cycles: u64,
    /// Extra cycles to detect and strip an escape prefix.
    pub escape_cycles: u64,
    /// Extra cycles per instruction delivered from a dictionary expansion
    /// (the on-chip dictionary access the paper worries about).
    pub expand_cycles: u64,
    /// Extra cycles when a control transfer lands mid-word and the fetch
    /// unit must realign its nibble PC.
    pub realign_cycles: u64,
    /// Cycles per I-cache miss.
    pub miss_penalty: u64,
    /// Modeled I-cache geometry.
    pub cache: CacheConfig,
}

impl Default for CostParams {
    /// A small embedded front end: single-cycle fetch, free escape
    /// stripping (prefix detection folds into decode — the stated goal of
    /// the paper's escape-byte design), a 3-cycle dictionary expansion,
    /// 2-cycle realign, and a 1 KiB 2-way I-cache with a 20-cycle miss
    /// penalty.
    fn default() -> CostParams {
        CostParams {
            native_cycles: 1,
            escape_cycles: 0,
            expand_cycles: 3,
            realign_cycles: 2,
            miss_penalty: 20,
            cache: CacheConfig { size_bytes: 1024, line_bytes: 16, ways: 2 },
        }
    }
}

/// A scored run: the modeled cycle count plus every event that fed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    /// Total modeled cycles.
    pub cycles: u64,
    /// Instructions delivered to the core.
    pub insns: u64,
    /// Escape decodes (0 for native runs).
    pub escapes: u64,
    /// Instructions delivered from dictionary expansions.
    pub expanded_insns: u64,
    /// Nibble-PC realignments.
    pub realigns: u64,
    /// I-cache line accesses.
    pub cache_accesses: u64,
    /// I-cache misses.
    pub cache_misses: u64,
    /// Dynamic instruction count of the run.
    pub steps: u64,
    /// Exit code.
    pub exit: u32,
}

/// Runs `fetch` to a checked halt, streaming every program-memory
/// reference into a cache of the modeled geometry, and costs the run.
/// `packed` marks a compressed image, whose every instruction is either
/// expanded from a codeword or escaped; linear text has neither.
fn score_run(
    subject: &Subject,
    mut machine: Machine,
    mut fetch: PredecodedFetcher,
    packed: bool,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    let mut cache = Cache::new(params.cache);
    let r = run_predecoded_with(&mut machine, &mut fetch, 0, max_steps, |pc, nibbles| {
        cache.access_nibbles(pc, nibbles)
    })?;
    check_exit(subject, r.exit_code)?;
    let (s, cache) = (r.stats, cache.finish());
    let escapes = if packed { s.insns - s.expanded_insns } else { 0 };
    Ok(Score {
        cycles: s.insns * params.native_cycles
            + escapes * params.escape_cycles
            + s.expanded_insns * params.expand_cycles
            + s.realigns * params.realign_cycles
            + cache.misses * params.miss_penalty,
        insns: s.insns,
        escapes,
        expanded_insns: s.expanded_insns,
        realigns: s.realigns,
        cache_accesses: cache.accesses,
        cache_misses: cache.misses,
        steps: r.steps,
        exit: r.exit_code,
    })
}

/// Scores the uncompressed run of a kernel under the cost model.
///
/// # Errors
///
/// As [`score_native_subject`].
pub fn score_native(
    kernel: &Kernel,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    score_native_subject(&Subject::from_kernel(kernel), params, max_steps)
}

/// [`score_native`] generalized to any [`Subject`].
///
/// # Errors
///
/// [`ProfileError`] if the run faults, exceeds `max_steps`, or exits with
/// the wrong code.
pub fn score_native_subject(
    subject: &Subject,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    let fetch = PredecodedFetcher::linear(subject.module.code.clone());
    score_run(subject, subject.machine_native(), fetch, false, params, max_steps)
}

/// Scores the run of a (possibly hybrid) compressed image under the cost
/// model. `kernel` supplies the initial machine state and expected exit.
///
/// # Errors
///
/// As [`score_compressed_subject`].
pub fn score_compressed(
    kernel: &Kernel,
    program: &CompressedProgram,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    score_compressed_subject(&Subject::from_kernel(kernel), program, params, max_steps)
}

/// [`score_compressed`] generalized to any [`Subject`]: the machine is
/// seeded with the *image's* jump-table values, so corpus dispatch loops
/// branch to valid compressed-domain addresses.
///
/// # Errors
///
/// [`ProfileError`] if the run faults, exceeds `max_steps`, or exits with
/// the wrong code.
pub fn score_compressed_subject(
    subject: &Subject,
    program: &CompressedProgram,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    let machine = subject.machine_compressed(program);
    score_run(subject, machine, PredecodedFetcher::new(program), true, params, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use codense_core::{CompressionConfig, Compressor};

    #[test]
    fn native_score_is_pure_fetch_plus_misses() {
        let kernel = bench::bench("sum_array").unwrap();
        let params = CostParams::default();
        let s = score_native(&kernel, &params, 1_000_000).unwrap();
        assert_eq!(s.escapes, 0);
        assert_eq!(s.expanded_insns, 0);
        assert_eq!(s.realigns, 0);
        assert_eq!(s.insns, s.steps);
        assert_eq!(s.cycles, s.insns * params.native_cycles + s.cache_misses * params.miss_penalty);
    }

    #[test]
    fn compressed_run_costs_more_cycles_per_insn() {
        let kernel = bench::bench("fib").unwrap();
        let params = CostParams::default();
        let native = score_native(&kernel, &params, 1_000_000).unwrap();
        let compressed =
            Compressor::new(CompressionConfig::nibble_aligned()).compress(&kernel.module).unwrap();
        let s = score_compressed(&kernel, &compressed, &params, 1_000_000).unwrap();
        assert_eq!(s.steps, native.steps);
        assert_eq!(s.escapes + s.expanded_insns, s.insns);
        assert!(s.cycles > native.cycles, "{} <= {}", s.cycles, native.cycles);
    }
}
