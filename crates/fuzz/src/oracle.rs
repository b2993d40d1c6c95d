//! The differential-execution oracle.
//!
//! Runs one program twice in lockstep on the production fetch engine —
//! once over the native text ([`PredecodedFetcher::linear`]), once over the
//! compressed image ([`PredecodedFetcher::new`]) — and compares the *full
//! architectural trace*, not just the final state: every step checks the
//! compressed PC against the atom map, the fetched instruction (normalized
//! for branch-offset patching), every unmasked GPR, the condition/carry
//! flags, and the control-flow outcome kind. Memory is compared at halt.
//!
//! The oracle is ISA-generic: the program's ISA comes from
//! [`CompressedProgram::isa`], both cores from [`codense_isa::Isa::new_core`],
//! and execution goes through [`Core::step_word`]. Registers that hold
//! fetch-domain addresses (PowerPC LR/CTR, which are never compared, and
//! whatever GPRs the [`TraceMask`] names) are *supposed* to differ between
//! the two machines; their effects are still checked because calls,
//! returns, and table dispatches land on atoms the PC check validates.

use codense_core::CompressedProgram;
use codense_isa::{Core, IsaRef};
use codense_obj::ObjectModule;
use codense_vm::fetch::{Fetch, PredecodedFetcher};
use codense_vm::machine::{MachineError, Outcome};

/// What a lockstep comparison ignores.
#[derive(Debug, Clone, Default)]
pub struct TraceMask {
    /// Bitmask of GPR numbers excluded from per-step comparison (bit *r*
    /// set ⇒ `gpr[r]` ignored). Use for registers that legitimately hold
    /// fetch-domain addresses (e.g. `r11` in jump-table dispatch sequences,
    /// `r0` in kernels that spill LR through it).
    pub skip_gprs: u32,
    /// Byte ranges excluded from the final memory comparison (e.g. stack
    /// slots holding spilled LR values, or the jump-table region, whose
    /// entries are domain-specific by construction).
    pub mem_skip: Vec<std::ops::Range<usize>>,
}

impl TraceMask {
    /// Mask excluding a set of GPR numbers.
    pub fn skipping_gprs(regs: &[u8]) -> TraceMask {
        TraceMask { skip_gprs: regs.iter().fold(0u32, |m, &r| m | 1 << r), mem_skip: Vec::new() }
    }
}

/// How a divergence manifested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The compressed PC was not the atom address the native PC maps to.
    PcMismatch,
    /// The two fetchers delivered different instructions.
    InsnMismatch,
    /// A compared GPR differed after the step.
    RegMismatch,
    /// The condition/carry flags ([`Core::flags`]) differed after the step.
    FlagsMismatch,
    /// One run fell through where the other branched or halted.
    OutcomeMismatch,
    /// One run faulted and the other did not, or the fault kinds differed.
    ErrorMismatch,
    /// Both halted but with different exit codes.
    ExitMismatch,
    /// Final data memory differed outside the masked ranges.
    MemMismatch,
    /// The step budget ran out before either run halted or faulted.
    StepLimit,
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DivergenceKind::PcMismatch => "pc-mismatch",
            DivergenceKind::InsnMismatch => "insn-mismatch",
            DivergenceKind::RegMismatch => "reg-mismatch",
            DivergenceKind::FlagsMismatch => "flags-mismatch",
            DivergenceKind::OutcomeMismatch => "outcome-mismatch",
            DivergenceKind::ErrorMismatch => "error-mismatch",
            DivergenceKind::ExitMismatch => "exit-mismatch",
            DivergenceKind::MemMismatch => "mem-mismatch",
            DivergenceKind::StepLimit => "step-limit",
        };
        f.write_str(s)
    }
}

/// A trace divergence between the native and compressed runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based step index at which the traces diverged.
    pub step: u64,
    /// What diverged.
    pub kind: DivergenceKind,
    /// Human-readable specifics (register number, addresses, …).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {}: {}", self.step, self.kind, self.detail)
    }
}

/// A lockstep run that did *not* diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockstepOk {
    /// Both runs halted with the same exit code and memory.
    Completed {
        /// Instructions executed.
        steps: u64,
        /// Exit code ([`Core::exit_code`] at the halt).
        exit: u32,
    },
    /// Both runs faulted at the same step with the same fault kind (the
    /// traces agree — the program itself is faulty, not the pipeline).
    Faulted {
        /// Instructions executed before the fault.
        steps: u64,
        /// The shared fault kind.
        kind: &'static str,
    },
    /// The program needed overflow-branch rewriting (`ViaTable` atoms),
    /// whose dispatch stubs legitimately execute extra instructions and
    /// clobber `r12`/CTR; lockstep comparison does not apply.
    SkippedOverflow,
}

/// Stable name for a machine error, for cross-domain comparison (payloads
/// like addresses are domain-specific).
pub fn error_kind(e: &MachineError) -> &'static str {
    match e {
        MachineError::MemoryFault { .. } => "memory-fault",
        MachineError::FetchFault { .. } => "fetch-fault",
        MachineError::Trap => "trap",
        MachineError::IllegalInstruction { .. } => "illegal-instruction",
        MachineError::StepLimit => "step-limit",
    }
}

/// An instruction word with its relative-branch displacement zeroed: the
/// compressor rewrites displacements into compressed-domain units, so only
/// the other fields are comparable across domains.
fn without_offset(isa: IsaRef, word: u32) -> u32 {
    match isa.rel_branch_info(word) {
        Some(branch) => isa.patch_offset_units(word, branch.kind, 0),
        None => word,
    }
}

fn outcome_kind(o: &Outcome) -> &'static str {
    match o {
        Outcome::Next => "next",
        Outcome::Branch(_) => "branch",
        Outcome::Halt => "halt",
    }
}

/// Materializes jump tables into data memory: instruction-index targets
/// become word addresses (`8 × index`) for the native core and the
/// compressor-patched nibble addresses for the compressed core.
fn seed_tables(
    native: &mut dyn Core,
    comp: &mut dyn Core,
    module: &ObjectModule,
    compressed: &CompressedProgram,
    table_addrs: &[u32],
) -> Result<(), String> {
    if module.jump_tables.len() != table_addrs.len()
        || compressed.jump_tables.len() != table_addrs.len()
    {
        return Err(format!(
            "table count mismatch: module {}, compressed {}, addrs {}",
            module.jump_tables.len(),
            compressed.jump_tables.len(),
            table_addrs.len()
        ));
    }
    for (t, table) in module.jump_tables.iter().enumerate() {
        for (e, &target) in table.targets.iter().enumerate() {
            let addr = table_addrs[t] + 4 * e as u32;
            native.write32(addr, 8 * target as u32).map_err(|err| format!("table seed: {err}"))?;
            comp.write32(addr, compressed.jump_tables[t][e] as u32)
                .map_err(|err| format!("table seed: {err}"))?;
        }
    }
    Ok(())
}

/// Runs the differential oracle with the compressed program's own image.
/// See [`lockstep_with`] for the full contract.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the two traces.
pub fn lockstep(
    module: &ObjectModule,
    compressed: &CompressedProgram,
    table_addrs: &[u32],
    setup: &dyn Fn(&mut dyn Core),
    mask: &TraceMask,
    mem_bytes: usize,
    max_steps: u64,
) -> Result<LockstepOk, Divergence> {
    lockstep_with(
        PredecodedFetcher::new(compressed),
        module,
        compressed,
        table_addrs,
        setup,
        mask,
        mem_bytes,
        max_steps,
    )
}

/// Runs the differential oracle with a caller-supplied compressed fetcher
/// (fault injection passes one booted from a deliberately corrupted
/// image with [`PredecodedFetcher::from_image_with`]).
///
/// Both cores are fresh [`codense_isa::Isa::new_core`] instances of the
/// compressed program's ISA; each gets `setup` applied and the module's
/// jump tables materialized in data memory (domain-appropriate entries on
/// each side). Execution proceeds one instruction at a time on both cores
/// until halt, fault, divergence, or `max_steps`.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the two traces. Exhausting
/// `max_steps` is reported as a [`DivergenceKind::StepLimit`] divergence:
/// generated programs terminate by construction, so a budget overrun means
/// one trace stopped making progress.
#[allow(clippy::too_many_arguments)]
pub fn lockstep_with(
    mut comp_fetch: PredecodedFetcher,
    module: &ObjectModule,
    compressed: &CompressedProgram,
    table_addrs: &[u32],
    setup: &dyn Fn(&mut dyn Core),
    mask: &TraceMask,
    mem_bytes: usize,
    max_steps: u64,
) -> Result<LockstepOk, Divergence> {
    if !compressed.overflow_table.is_empty() {
        return Ok(LockstepOk::SkippedOverflow);
    }
    let isa = compressed.isa;
    let mut native_fetch = PredecodedFetcher::linear(module.code.clone());
    let granule = comp_fetch.granule();

    // Atom map: expected compressed PC for each original instruction index.
    // Instructions inside a codeword share the codeword's address (the PC
    // parks there while the expansion buffer drains).
    let mut expected_pc = vec![u64::MAX; module.code.len()];
    for (i, atom) in compressed.atoms.iter().enumerate() {
        for k in 0..atom.covered() {
            if let Some(slot) = expected_pc.get_mut(atom.orig() + k) {
                *slot = compressed.addresses[i];
            }
        }
    }

    let mut native = isa.new_core(mem_bytes);
    let mut comp = isa.new_core(mem_bytes);
    setup(native.as_mut());
    setup(comp.as_mut());
    if let Err(detail) =
        seed_tables(native.as_mut(), comp.as_mut(), module, compressed, table_addrs)
    {
        return Err(Divergence { step: 0, kind: DivergenceKind::PcMismatch, detail });
    }

    let mut npc = 0u64;
    let mut cpc = compressed.address_of_orig(0).unwrap_or(0);

    for step in 0..max_steps {
        let diverge = |kind, detail| Err(Divergence { step, kind, detail });

        // PC correspondence (only checkable when the native PC is a valid
        // instruction address; otherwise both fetches fault below).
        if npc.is_multiple_of(8) {
            if let Some(&want) = expected_pc.get((npc / 8) as usize) {
                if want != u64::MAX && cpc != want {
                    return diverge(
                        DivergenceKind::PcMismatch,
                        format!(
                            "native pc {npc:#x} maps to atom {want:#x}, compressed pc {cpc:#x}"
                        ),
                    );
                }
            }
        }

        let (nf, cf) = match (native_fetch.fetch(npc), comp_fetch.fetch(cpc)) {
            (Err(ne), Err(ce)) => {
                let (nk, ck) = (error_kind(&ne), error_kind(&ce));
                if nk == ck {
                    return Ok(LockstepOk::Faulted { steps: step, kind: nk });
                }
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("native fetch {nk}, compressed fetch {ck}"),
                );
            }
            (Err(ne), Ok(_)) => {
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("native fetch faulted ({}) but compressed delivered", error_kind(&ne)),
                );
            }
            (Ok(_), Err(ce)) => {
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("compressed fetch faulted ({}) but native delivered", error_kind(&ce)),
                );
            }
            (Ok(nf), Ok(cf)) => (nf, cf),
        };

        // Disassembly for divergence details. A compressed branch's field
        // counts granules, so its printed target is not a byte address.
        let show = |word| isa.disassemble(word, (npc / 2) as u32);
        if without_offset(isa, nf.word) != without_offset(isa, cf.word) {
            return diverge(
                DivergenceKind::InsnMismatch,
                format!(
                    "native `{}` vs compressed `{}` at native pc {npc:#x}",
                    show(nf.word),
                    show(cf.word)
                ),
            );
        }

        let no = native.step_word(nf.word, npc, nf.next_pc, 8);
        let co = comp.step_word(cf.word, cpc, cf.next_pc, granule);

        let (no, co) = match (no, co) {
            (Err(ne), Err(ce)) => {
                let (nk, ck) = (error_kind(&ne), error_kind(&ce));
                if nk == ck {
                    return Ok(LockstepOk::Faulted { steps: step + 1, kind: nk });
                }
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("native fault {nk}, compressed fault {ck}"),
                );
            }
            (Err(ne), Ok(_)) => {
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("only native faulted: {}", error_kind(&ne)),
                );
            }
            (Ok(_), Err(ce)) => {
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("only compressed faulted: {}", error_kind(&ce)),
                );
            }
            (Ok(no), Ok(co)) => (no, co),
        };

        // Architectural state after the step.
        for r in 0..32 {
            let (nv, cv) = (native.gpr(r), comp.gpr(r));
            if mask.skip_gprs & (1 << r) == 0 && nv != cv {
                return diverge(
                    DivergenceKind::RegMismatch,
                    format!(
                        "r{r}: native {nv:#010x}, compressed {cv:#010x} after `{}`",
                        show(nf.word)
                    ),
                );
            }
        }
        if native.flags() != comp.flags() {
            return diverge(
                DivergenceKind::FlagsMismatch,
                format!("flags: native {:#x}, compressed {:#x}", native.flags(), comp.flags()),
            );
        }

        match (no, co) {
            (Outcome::Next, Outcome::Next) => {
                npc = nf.next_pc;
                cpc = cf.next_pc;
            }
            (Outcome::Branch(nt), Outcome::Branch(ct)) => {
                npc = nt;
                cpc = ct;
            }
            (Outcome::Halt, Outcome::Halt) => {
                let (nx, cx) = (native.exit_code(), comp.exit_code());
                if nx != cx {
                    return diverge(
                        DivergenceKind::ExitMismatch,
                        format!("exit: native {nx}, compressed {cx}"),
                    );
                }
                let (nm, cm) = (native.mem_bytes(), comp.mem_bytes());
                let skipped = |addr: usize| mask.mem_skip.iter().any(|r| r.contains(&addr));
                // Equal memories are the common case; one slice compare
                // settles it before the masked byte search.
                let differs = if nm == cm {
                    None
                } else {
                    nm.iter().zip(cm).enumerate().find(|&(a, (n, c))| n != c && !skipped(a))
                };
                if let Some((addr, _)) = differs {
                    return diverge(
                        DivergenceKind::MemMismatch,
                        format!(
                            "mem[{addr:#x}]: native {:#04x}, compressed {:#04x}",
                            nm[addr], cm[addr]
                        ),
                    );
                }
                return Ok(LockstepOk::Completed { steps: step + 1, exit: nx });
            }
            (a, b) => {
                return diverge(
                    DivergenceKind::OutcomeMismatch,
                    format!("native {}, compressed {}", outcome_kind(&a), outcome_kind(&b)),
                );
            }
        }
    }
    Err(Divergence {
        step: max_steps,
        kind: DivergenceKind::StepLimit,
        detail: format!("no halt within {max_steps} steps"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_core::{CompressionConfig, Compressor};
    use codense_mips::reg::{A0, V0, ZERO};
    use codense_mips::MInsn;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::{R0, R3, R4};

    /// The same counting program on each ISA: twelve increments of the
    /// exit register, interleaved with a dependent copy.
    fn counting_modules() -> [(IsaRef, ObjectModule); 2] {
        let mut ppc = ObjectModule::new("count");
        ppc.code.push(codense_ppc::encode(&Insn::Addi { rt: R3, ra: R0, si: 0 }));
        let mut mips = ObjectModule::new("count");
        mips.code.push(codense_mips::encode(&MInsn::Addiu { rt: V0, rs: ZERO, imm: 0 }));
        for _ in 0..12 {
            ppc.code.push(codense_ppc::encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            ppc.code.push(codense_ppc::encode(&Insn::Addi { rt: R4, ra: R3, si: 5 }));
            mips.code.push(codense_mips::encode(&MInsn::Addiu { rt: V0, rs: V0, imm: 1 }));
            mips.code.push(codense_mips::encode(&MInsn::Addiu { rt: A0, rs: V0, imm: 5 }));
        }
        ppc.code.push(codense_ppc::encode(&Insn::Sc));
        mips.code.push(codense_mips::encode(&MInsn::Syscall));
        [(IsaRef(&codense_ppc::ISA), ppc), (IsaRef(&codense_mips::ISA), mips)]
    }

    #[test]
    fn identical_programs_complete() {
        for (isa, m) in counting_modules() {
            for config in [
                CompressionConfig::baseline(),
                CompressionConfig::small_dictionary(16),
                CompressionConfig::nibble_aligned(),
                CompressionConfig::huffman(),
            ] {
                let c = Compressor::new(config).with_isa(isa).compress(&m).unwrap();
                let got = lockstep(&m, &c, &[], &|_| {}, &TraceMask::default(), 1 << 16, 10_000)
                    .unwrap_or_else(|d| panic!("{isa:?}: {d}"));
                assert_eq!(got, LockstepOk::Completed { steps: m.code.len() as u64, exit: 12 });
            }
        }
    }

    #[test]
    fn corrupted_dictionary_entry_diverges() {
        for (isa, m) in counting_modules() {
            let c = Compressor::new(CompressionConfig::nibble_aligned())
                .with_isa(isa)
                .compress(&m)
                .unwrap();
            let mut image = c.to_image();
            assert!(!image.dictionary_by_rank.is_empty());
            // Flip a register-field bit in the hottest dictionary entry's
            // first word.
            image.dictionary_by_rank[0][0] ^= 1 << 16;
            let bad = PredecodedFetcher::from_image_with(&image, isa);
            let err =
                lockstep_with(bad, &m, &c, &[], &|_| {}, &TraceMask::default(), 1 << 16, 10_000)
                    .expect_err("corruption must be caught");
            assert_eq!(err.kind, DivergenceKind::InsnMismatch, "{isa:?}: {err}");
        }
    }

    #[test]
    fn trace_mask_skips_registers() {
        let mask = TraceMask::skipping_gprs(&[0, 11]);
        assert_eq!(mask.skip_gprs, (1 << 0) | (1 << 11));
    }
}
