//! The production execution loop gluing a [`PredecodeCore`] to the
//! [`PredecodedFetcher`]: a threaded-dispatch loop that makes SPEC-scale
//! corpus programs runnable.
//!
//! It serves both fetch domains ([`PredecodedFetcher::linear`] for
//! uncompressed text). Profiling and cycle scoring watch it through
//! [`run_predecoded_with`]'s per-step observer, which sees each executed
//! instruction's PC and the program memory it consumed. The re-parsing
//! per-step loop it is checked against is [`crate::reference::run`].

use crate::fetch::{Fetch, FetchStats, PredecodedFetcher, RunCounters, LINEAR_SLOT_SHIFT};
use crate::machine::{MachineError, Outcome};
use codense_isa::PredecodeCore;

/// Result of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// The core's exit value at the halt (`r3` on PowerPC, `$v0` on MIPS).
    pub exit_code: u32,
    /// Instructions executed (including the halting one).
    pub steps: u64,
    /// Final fetch counters.
    pub stats: FetchStats,
}

/// The predecoded threaded-dispatch loop: [`crate::reference::run`]
/// semantics at a fraction of the per-step cost.
///
/// Three costs are hoisted out of the step cycle relative to the reference
/// loop over [`crate::reference::CompressedFetcher`]:
///
/// * **parse** — items are replayed from the fetcher's decoded-item cache
///   (first touch parses and fills, exactly like the `Fetch` impl);
/// * **decode** — each cached word is decoded once into the backend's
///   decoded form ([`PredecodeCore::predecode`]) and the loop dispatches
///   [`PredecodeCore::step_insn`] directly, monomorphized per backend (no
///   virtual calls, no per-step re-decode);
/// * **bookkeeping** — [`FetchStats`]/telemetry updates accumulate in
///   locals and flush when the loop exits (halt, fault, or step limit).
///   Final counter values are byte-exact with the per-fetch path; only the
///   update granularity differs.
///
/// The decoded mirror tracks the fetcher's flush epoch, so capacity-driven
/// evictions and [`PredecodedFetcher::invalidate`] invalidate the decoded
/// side too.
///
/// # Errors
///
/// Exactly as [`crate::reference::run`]: any [`MachineError`] the program
/// raises, or
/// [`MachineError::StepLimit`] if it does not halt within `max_steps`.
/// Stats and telemetry are flushed before the error propagates.
pub fn run_predecoded<C: PredecodeCore>(
    core: &mut C,
    fetch: &mut PredecodedFetcher,
    entry: u64,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    run_predecoded_with(core, fetch, entry, max_steps, |_, _| {})
}

/// [`run_predecoded`] with a per-step observer: `observe(pc, nibbles)` runs
/// once for every fetched instruction, before it executes, with the
/// program-memory nibbles its fetch consumed — 0 for instructions drained
/// from an expansion. These are exactly the references the per-fetch
/// engines make, so a profiler or an I-cache model can consume the run as
/// it happens. A no-op observer compiles away.
///
/// # Errors
///
/// As [`run_predecoded`]. A step whose fetch faults is not observed.
pub fn run_predecoded_with<C: PredecodeCore>(
    core: &mut C,
    fetch: &mut PredecodedFetcher,
    entry: u64,
    max_steps: u64,
    observe: impl FnMut(u64, u64),
) -> Result<RunResult, MachineError> {
    // One loop per entry-table geometry, with the slot shift a constant:
    // packed-stream lookups index by `pc` with no per-fetch shift or mask.
    if fetch.slot_shift() == 0 {
        run_loop::<C, 0>(core, fetch, entry, max_steps, observe)
    } else {
        run_loop::<C, LINEAR_SLOT_SHIFT>(core, fetch, entry, max_steps, observe)
    }
}

fn run_loop<C: PredecodeCore, const SLOT_SHIFT: u32>(
    core: &mut C,
    fetch: &mut PredecodedFetcher,
    entry: u64,
    max_steps: u64,
    mut observe: impl FnMut(u64, u64),
) -> Result<RunResult, MachineError> {
    use crate::fetch::TAG_INSN;

    let granule = fetch.granule();
    // The entry table and word pool live in locals for the duration of the
    // loop (loop-invariant pointers on the hot path); fills go through
    // `fill_detached`. They are reattached before counters are absorbed.
    let (mut entries, mut side, mut pool) = fetch.take_storage();
    // Decoded mirror of the word pool (same indices). The fetcher is
    // exclusively borrowed for the whole loop, so the pool only changes
    // through our own fills — the mirror needs syncing only when a fill
    // happens or when a cache hit points past it (entries filled before
    // this run started).
    let mut decoded: Vec<C::Insn> = Vec::new();
    let mut generation = fetch.generation();
    let mut c = RunCounters::default();
    let mut pc = entry;
    let mut expect_pc = u64::MAX;
    // Expansion-drain state: pool range, position, owning PC, successor.
    let (mut dstart, mut dlen, mut dpos) = (0usize, 0usize, 0usize);
    let (mut dpc, mut dafter) = (u64::MAX, 0u64);

    let outcome = 'run: {
        for step in 0..max_steps {
            if pc != expect_pc && !pc.is_multiple_of(8) {
                c.realigns += 1;
            }
            let insn: &C::Insn;
            let (next_pc, nibbles);
            if pc == dpc && dpos < dlen {
                // Sequential flow inside an expanded codeword: replay the
                // decoded pool directly.
                insn = &decoded[dstart + dpos];
                dpos += 1;
                next_pc = if dpos < dlen { dpc } else { dafter };
                nibbles = 0;
                c.expanded += 1;
            } else {
                let e = match entries.get((pc >> SLOT_SHIFT) as usize) {
                    Some(&e) if e != 0 && crate::fetch::on_slot(pc, SLOT_SHIFT) => e,
                    _ => {
                        // Miss (or out-of-range pc): parse and fill, then
                        // sync the mirror. A capacity flush bumps the
                        // generation and restarts pool indices from zero,
                        // so drop the stale mirror first; any in-flight
                        // expansion state is overwritten below (both tag
                        // branches reassign `dpc`).
                        let e = match fetch.fill_detached(pc, &mut entries, &mut side, &mut pool) {
                            Ok(e) => e,
                            Err(err) => {
                                c.insns = step;
                                break 'run Err(err);
                            }
                        };
                        if fetch.generation() != generation {
                            generation = fetch.generation();
                            decoded.clear();
                        }
                        while decoded.len() < pool.len() {
                            decoded.push(C::predecode(pool[decoded.len()]));
                        }
                        e
                    }
                };
                let (tag, consumed, len, start) = crate::fetch::unpack_entry(e, &side);
                if start + len > decoded.len() {
                    // A hit on an entry cached before this run started:
                    // the pool already holds its words, the mirror just
                    // hasn't caught up (no fill happened, so no flush can
                    // have either).
                    while decoded.len() < pool.len() {
                        decoded.push(C::predecode(pool[decoded.len()]));
                    }
                }
                c.nibbles += consumed;
                nibbles = consumed;
                if tag == TAG_INSN {
                    dpc = u64::MAX;
                    next_pc = pc + consumed;
                } else {
                    c.codewords += 1;
                    c.expanded += 1;
                    (dstart, dlen, dpos) = (start, len, 1);
                    (dpc, dafter) = (pc, pc + consumed);
                    next_pc = if dlen > 1 { pc } else { dafter };
                }
                insn = &decoded[start];
            }
            observe(pc, nibbles);
            expect_pc = next_pc;
            match core.step_insn(insn, pc, next_pc, granule) {
                Ok(Outcome::Next) => pc = next_pc,
                Ok(Outcome::Branch(target)) => pc = target,
                Ok(Outcome::Halt) => {
                    c.insns = step + 1;
                    break 'run Ok(step + 1);
                }
                Err(err) => {
                    c.insns = step + 1;
                    break 'run Err(err);
                }
            }
        }
        c.insns = max_steps;
        Err(MachineError::StepLimit)
    };
    fetch.restore_storage(entries, side, pool);
    fetch.absorb(&c, expect_pc, (dstart, dlen, dpos, dpc, dafter));
    let steps = outcome?;
    Ok(RunResult { exit_code: core.exit_code(), steps, stats: fetch.stats() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use codense_ppc::asm::Assembler;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    #[test]
    fn tiny_program_halts() {
        let mut a = Assembler::new();
        a.emit(Insn::Addi { rt: R3, ra: R0, si: 42 });
        a.emit(Insn::Sc);
        let mut fetch = PredecodedFetcher::linear(a.finish().unwrap());
        let result = run_predecoded(&mut Machine::new(4096), &mut fetch, 0, 100).unwrap();
        assert_eq!(result.exit_code, 42);
        assert_eq!(result.steps, 2);
    }

    #[test]
    fn observer_sees_every_step() {
        let mut m = codense_obj::ObjectModule::new("t");
        for _ in 0..10 {
            m.code.push(codense_ppc::encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            m.code.push(codense_ppc::encode(&Insn::Addi { rt: R4, ra: R4, si: 2 }));
        }
        m.code.push(codense_ppc::encode(&Insn::Sc));
        let c = codense_core::Compressor::new(codense_core::CompressionConfig::nibble_aligned())
            .compress(&m)
            .unwrap();
        let observe = |mut fetch: PredecodedFetcher| {
            let mut trace = Vec::new();
            let r = run_predecoded_with(&mut Machine::new(4096), &mut fetch, 0, 100, |pc, n| {
                trace.push((pc, n))
            })
            .unwrap();
            assert_eq!((r.exit_code, r.steps), (10, 21));
            (trace, r.stats)
        };
        let (trace, _) = observe(PredecodedFetcher::linear(m.code.clone()));
        assert_eq!(trace, (0..21).map(|i| (8 * i, 8)).collect::<Vec<_>>());
        let (trace, stats) = observe(PredecodedFetcher::new(&c));
        assert_eq!((trace.len(), trace[0].0), (21, 0));
        assert_eq!(trace.iter().map(|t| t.1).sum::<u64>(), stats.nibbles_fetched);
        // An expansion reads memory once; its other instructions drain the
        // buffer for free.
        let drained = trace.iter().filter(|t| t.1 == 0).count() as u64;
        assert_eq!(drained, stats.expanded_insns - stats.codewords);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut a = Assembler::new();
        a.label("x");
        a.b("x");
        let mut fetch = PredecodedFetcher::linear(a.finish().unwrap());
        let got = run_predecoded(&mut Machine::new(4096), &mut fetch, 0, 50);
        assert_eq!(got, Err(MachineError::StepLimit));
    }
}
