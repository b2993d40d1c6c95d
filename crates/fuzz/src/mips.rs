//! The MIPS program generator: the ISA-specific half of the cross-ISA
//! differential battery.
//!
//! The oracle ([`crate::oracle`]) and the campaign driver
//! ([`crate::runner`]) are ISA-generic; what differs by ISA is the program
//! vocabulary. This module generates terminating MIPS programs from a
//! vocabulary of register-reusing instructions, with the same control-flow
//! shapes as the PowerPC generator (loops, ifs, jump-table dispatches,
//! calls). MIPS programs have no [`crate::spec::ProgramSpec`], so their
//! failures are reported unshrunk.
//!
//! Register discipline mirrors the PPC battery's: only `$t9` (jump-table
//! dispatch) and `$ra` (`jal` link values) ever hold fetch-domain code
//! addresses ([`ADDRESS_REGS`]), so every other register must match
//! bit-for-bit between the native and compressed runs at every step.

use codense_codegen::Rng;
use codense_isa::IsaRef;
use codense_mips::asm::Assembler;
use codense_mips::reg::{Reg, A0, A1, A2, A3, GP, RA, S0, S1, S2, S3, T8, T9, V0, V1, ZERO};
use codense_mips::MInsn;
use codense_obj::{FunctionInfo, JumpTable, ObjectModule};

use crate::gen::GenConfig;
use crate::spec::{BuiltProgram, DATA_BASE, DATA_MASK, JT_BASE};

/// GPRs that carry fetch-domain addresses in generated programs, excluded
/// from lockstep register comparison: `$t9` (jump-table dispatch) and `$ra`
/// (`jal` link values).
pub const ADDRESS_REGS: [u8; 2] = [T9.number(), RA.number()];

/// Registers the generator may read or write in straight-line code.
/// Excluded by role: `$zero`/`$at`, `$v0` (exit code staging), `$s0`–`$s3`
/// (loop counters), `$t8`/`$t9` (dispatch scratch), `$gp` (data base),
/// `$sp`/`$fp`, `$ra` (link).
pub const MIPS_DATA_REGS: [Reg; 13] = [
    V1,
    A0,
    A1,
    A2,
    A3,
    codense_mips::reg::T0,
    codense_mips::reg::T1,
    codense_mips::reg::T2,
    codense_mips::reg::T3,
    codense_mips::reg::T4,
    codense_mips::reg::T5,
    codense_mips::reg::T6,
    codense_mips::reg::T7,
];

/// Loop-counter bank: depth-0/1 loops of the entry use `$s0`/`$s1`,
/// callee loops use `$s2`/`$s3` (callees never save/restore them, so the
/// banks must not overlap).
const LOOP_REGS: [Reg; 4] = [S0, S1, S2, S3];
/// First [`LOOP_REGS`] index available to non-entry functions.
const CALLEE_LOOP_BASE: usize = 2;

struct MGen<'a> {
    rng: &'a mut Rng,
    cfg: GenConfig,
    /// Instruction vocabulary: straight-line code mostly re-draws from this
    /// pool so repeated sequences exist for the dictionary to find.
    vocab: Vec<MInsn>,
    a: Assembler,
    /// Per-table arm-entry label names, resolved after emission.
    tables: Vec<Vec<String>>,
    next_label: usize,
    loop_base: usize,
}

impl MGen<'_> {
    fn fresh(&mut self, what: &str) -> String {
        self.next_label += 1;
        format!("m_{}_{}", what, self.next_label)
    }

    fn data_reg(&mut self) -> Reg {
        *self.rng.pick(&MIPS_DATA_REGS)
    }

    /// One fresh straight-line instruction over the data registers. Memory
    /// accesses use bounded positive word-aligned offsets from `$gp`.
    fn fresh_op(&mut self) -> MInsn {
        let rd = self.data_reg();
        let rs = self.data_reg();
        let rt = self.data_reg();
        let imm = self.rng.next_u64() as i16;
        let uimm = self.rng.next_u64() as u16;
        let d = (self.rng.below(0x7FF8) & !3) as i16;
        let sa = self.rng.range(1, 31) as u8;
        match self.rng.weighted(&[
            16, // I-format arithmetic
            10, // I-format logical
            8,  // loads
            6,  // stores
            14, // R-format arithmetic
            10, // R-format logic / shifts
        ]) {
            0 => match self.rng.below(3) {
                0 => MInsn::Addiu { rt: rd, rs, imm },
                1 => MInsn::Slti { rt: rd, rs, imm },
                _ => MInsn::Sltiu { rt: rd, rs, imm },
            },
            1 => match self.rng.below(4) {
                0 => MInsn::Andi { rt: rd, rs, imm: uimm },
                1 => MInsn::Ori { rt: rd, rs, imm: uimm },
                2 => MInsn::Xori { rt: rd, rs, imm: uimm },
                _ => MInsn::Lui { rt: rd, imm: uimm },
            },
            2 => match self.rng.below(5) {
                0 => MInsn::Lw { rt: rd, base: GP, offset: d },
                1 => MInsn::Lh { rt: rd, base: GP, offset: d },
                2 => MInsn::Lhu { rt: rd, base: GP, offset: d },
                3 => MInsn::Lb { rt: rd, base: GP, offset: d },
                _ => MInsn::Lbu { rt: rd, base: GP, offset: d },
            },
            3 => match self.rng.below(3) {
                0 => MInsn::Sw { rt: rd, base: GP, offset: d },
                1 => MInsn::Sh { rt: rd, base: GP, offset: d },
                _ => MInsn::Sb { rt: rd, base: GP, offset: d },
            },
            4 => match self.rng.below(5) {
                0 => MInsn::Addu { rd, rs, rt },
                1 => MInsn::Subu { rd, rs, rt },
                2 => MInsn::Mul { rd, rs, rt },
                3 => MInsn::Div { rd, rs, rt },
                _ => MInsn::Divu { rd, rs, rt },
            },
            _ => match self.rng.below(9) {
                0 => MInsn::And { rd, rs, rt },
                1 => MInsn::Or { rd, rs, rt },
                2 => MInsn::Xor { rd, rs, rt },
                3 => MInsn::Nor { rd, rs, rt },
                4 => MInsn::Slt { rd, rs, rt },
                5 => MInsn::Sltu { rd, rs, rt },
                6 => MInsn::Sll { rd, rt, sa },
                7 => MInsn::Srl { rd, rt, sa },
                _ => MInsn::Sra { rd, rt, sa },
            },
        }
    }

    /// A run of straight-line instructions, drawn mostly from the
    /// vocabulary. Occasionally emits a masked indexed access through `$t8`
    /// (whose value is plain data, identical in both fetch domains).
    fn straight(&mut self) {
        let n = self.rng.range(1, self.cfg.max_block);
        for _ in 0..n {
            if self.rng.chance(0.12) {
                let src = self.data_reg();
                let val = self.data_reg();
                self.a.emit(MInsn::Andi { rt: T8, rs: src, imm: DATA_MASK });
                self.a.emit(MInsn::Addu { rd: T8, rs: GP, rt: T8 });
                self.a.emit(if self.rng.chance(0.5) {
                    MInsn::Lw { rt: val, base: T8, offset: 0 }
                } else {
                    MInsn::Sw { rt: val, base: T8, offset: 0 }
                });
            } else if !self.vocab.is_empty() && self.rng.chance(0.8) {
                let op = *self.rng.pick(&self.vocab);
                self.a.emit(op);
            } else {
                let op = self.fresh_op();
                self.vocab.push(op);
                self.a.emit(op);
            }
        }
    }

    fn region(&mut self, depth: usize, may_call: bool, funcs: usize) {
        let max_depth = self.cfg.max_loop_depth.min(LOOP_REGS.len() - self.loop_base);
        let choices: &[u32] = &[
            40,                                        // straight
            if depth < max_depth { 14 } else { 0 },    // loop
            12,                                        // if
            if depth == 0 { 6 } else { 0 },            // dispatch
            if may_call && funcs > 1 { 8 } else { 0 }, // call
        ];
        match self.rng.weighted(choices) {
            0 => self.straight(),
            1 => {
                let trips = self.rng.range(1, 6) as i16;
                let counter = LOOP_REGS[self.loop_base + depth];
                let head = self.fresh("loop");
                self.a.emit(MInsn::Addiu { rt: counter, rs: ZERO, imm: trips });
                self.a.label(&head);
                self.body(depth + 1, may_call, funcs, 2);
                self.a.emit(MInsn::Addiu { rt: counter, rs: counter, imm: -1 });
                self.a.bgtz(counter, &head);
            }
            2 => {
                let join = self.fresh("join");
                let lhs = self.data_reg();
                match self.rng.below(4) {
                    0 => {
                        let rhs = self.data_reg();
                        self.a.beq(lhs, rhs, &join);
                    }
                    1 => {
                        let rhs = self.data_reg();
                        self.a.bne(lhs, rhs, &join);
                    }
                    2 => {
                        self.a.blez(lhs, &join);
                    }
                    _ => {
                        self.a.bltz(lhs, &join);
                    }
                };
                self.body(depth, may_call, funcs, 2);
                self.a.label(&join);
            }
            3 => self.dispatch(depth, may_call, funcs),
            _ => {
                let callee = self.rng.range(1, funcs - 1);
                self.a.jal(&format!("mfn_{callee}"));
            }
        }
    }

    /// A jump-table dispatch: mask the index to the table, scale it, load
    /// the patched target through `$t9`, and jump. `$t8` holds the scaled
    /// index (plain data); only `$t9` ever holds the fetch-domain address.
    fn dispatch(&mut self, depth: usize, may_call: bool, funcs: usize) {
        let width = 1usize << self.rng.range(1, 3); // 2, 4 or 8 arms
        let addr = JT_BASE + 4 * self.tables.iter().map(|t| t.len() as u32).sum::<u32>();
        let index = self.data_reg();
        self.a.emit(MInsn::Andi { rt: T8, rs: index, imm: (width - 1) as u16 });
        self.a.emit(MInsn::Sll { rd: T8, rt: T8, sa: 2 });
        self.a.emit(MInsn::Lui { rt: T9, imm: (addr >> 16) as u16 });
        self.a.emit(MInsn::Ori { rt: T9, rs: T9, imm: (addr & 0xFFFF) as u16 });
        self.a.emit(MInsn::Addu { rd: T9, rs: T9, rt: T8 });
        self.a.emit(MInsn::Lw { rt: T9, base: T9, offset: 0 });
        self.a.emit(MInsn::Jr { rs: T9 });
        let join = self.fresh("join");
        let mut entries = Vec::with_capacity(width);
        for _ in 0..width {
            let entry = self.fresh("arm");
            self.a.label(&entry);
            entries.push(entry);
            self.body(depth + 1, may_call, funcs, 1);
            self.a.j(&join);
        }
        self.a.label(&join);
        self.tables.push(entries);
    }

    fn body(&mut self, depth: usize, may_call: bool, funcs: usize, max_regions: usize) {
        let n = self.rng.range(1, max_regions.max(1));
        for _ in 0..n {
            self.region(depth, may_call, funcs);
        }
    }
}

/// Generates a terminating MIPS program from the RNG stream: an entry
/// function (loops, ifs, dispatches, calls) plus up to `cfg.max_funcs - 1`
/// leaf callees. The entry ends in `syscall` with the exit code in `$v0`;
/// leaves end in `jr $ra`.
pub fn generate_mips(rng: &mut Rng, cfg: &GenConfig) -> Result<BuiltProgram, String> {
    let funcs_n = rng.range(1, cfg.max_funcs.max(1));
    let mut g = MGen {
        rng,
        cfg: cfg.clone(),
        vocab: Vec::new(),
        a: Assembler::new(),
        tables: Vec::new(),
        next_label: 0,
        loop_base: 0,
    };

    let reg_init: Vec<(Reg, u32)> = MIPS_DATA_REGS
        .iter()
        .filter(|_| g.rng.chance(0.7))
        .copied()
        .collect::<Vec<_>>()
        .into_iter()
        .map(|r| (r, g.rng.next_u64() as u32))
        .collect();
    let result_reg = *g.rng.pick(&MIPS_DATA_REGS);

    let mut functions: Vec<FunctionInfo> = Vec::new();
    for fi in 0..funcs_n {
        g.loop_base = if fi == 0 { 0 } else { CALLEE_LOOP_BASE };
        let start = g.a.here();
        g.a.label(&format!("mfn_{fi}"));
        let mut prologue_len = 0;
        let framed = fi != 0 && g.rng.chance(0.5);
        if fi == 0 {
            // Entry preamble: data base pointer and initial register values.
            g.a.emit(MInsn::Lui { rt: GP, imm: (DATA_BASE >> 16) as u16 });
            for &(reg, value) in &reg_init {
                g.a.emit(MInsn::Lui { rt: reg, imm: (value >> 16) as u16 });
                g.a.emit(MInsn::Ori { rt: reg, rs: reg, imm: (value & 0xFFFF) as u16 });
            }
            prologue_len = g.a.here() - start;
        } else if framed {
            // Leaves save nothing (their loop bank is caller-disjoint), but
            // a balanced frame adjust reproduces common prologue shapes.
            g.a.emit(MInsn::Addiu {
                rt: codense_mips::reg::SP,
                rs: codense_mips::reg::SP,
                imm: -24,
            });
            prologue_len = 1;
        }
        let regions = g.rng.range(1, g.cfg.max_regions);
        for _ in 0..regions {
            g.region(0, fi == 0, funcs_n);
        }
        let epi_start = g.a.here();
        if fi == 0 {
            g.a.emit(MInsn::Addu { rd: V0, rs: result_reg, rt: ZERO });
            g.a.emit(MInsn::Syscall);
        } else {
            if framed {
                g.a.emit(MInsn::Addiu {
                    rt: codense_mips::reg::SP,
                    rs: codense_mips::reg::SP,
                    imm: 24,
                });
            }
            g.a.ret();
        }
        let end = g.a.here();
        functions.push(FunctionInfo {
            name: format!("mfn_{fi}"),
            start,
            end,
            prologue_len,
            epilogues: std::iter::once(epi_start..end).collect(),
        });
    }

    // Resolve jump-table entry labels to instruction indices.
    let mut jump_tables = Vec::with_capacity(g.tables.len());
    let mut table_addrs = Vec::with_capacity(g.tables.len());
    let mut next_addr = JT_BASE;
    for labels in &g.tables {
        let targets: Vec<usize> =
            labels.iter().map(|l| g.a.label_pos(l).expect("arm label defined")).collect();
        table_addrs.push(next_addr);
        next_addr += 4 * targets.len() as u32;
        jump_tables.push(JumpTable { targets });
    }

    let code = g.a.finish().map_err(|e| format!("mips assembly failed: {e}"))?;
    let mut module = ObjectModule::new("fuzz-mips");
    module.code = code;
    module.functions = functions;
    module.jump_tables = jump_tables;
    module
        .validate_with(IsaRef(&codense_mips::ISA))
        .map_err(|e| format!("invalid mips module: {e}"))?;
    Ok(BuiltProgram { module, table_addrs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate_mips(&mut Rng::new(42), &cfg).unwrap();
        let b = generate_mips(&mut Rng::new(42), &cfg).unwrap();
        assert_eq!(a.module.code, b.module.code);
        let c = generate_mips(&mut Rng::new(43), &cfg).unwrap();
        assert_ne!(a.module.code, c.module.code);
    }

    #[test]
    fn generated_programs_validate() {
        let cfg = GenConfig::default();
        for seed in 0..40 {
            let p = generate_mips(&mut Rng::new(seed), &cfg)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(p.module.validate_with(IsaRef(&codense_mips::ISA)).is_ok(), "seed {seed}");
            assert!(!p.module.code.is_empty());
        }
    }
}
