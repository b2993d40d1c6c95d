//! The structured program representation the fuzzer generates and shrinks.
//!
//! A [`ProgramSpec`] is a tree of control-flow regions over concrete
//! instructions. The tree shape guarantees termination by construction:
//! every branch is forward except loop back-edges, and every loop decrements
//! a dedicated counter register initialized immediately before the loop
//! head, so a built program always reaches its final `sc` within a bounded
//! step count. [`build`] lowers the tree through the label-resolving
//! assembler into a valid [`ObjectModule`] with function metadata and
//! jump tables, ready for the compressor.
//!
//! Keeping the *spec* (rather than a raw seed or instruction list) as the
//! unit of shrinking means every shrink candidate is a well-formed,
//! terminating program — the minimizer never has to reason about dangling
//! branches.

use codense_obj::{FunctionInfo, JumpTable, ObjectModule};
use codense_ppc::asm::Assembler;
use codense_ppc::insn::{bo, Insn};
use codense_ppc::reg::{Gpr, CR0, R0, R1, R10, R11, R24, R25, R26, R27, R29, R3};

/// Data-memory size the differential oracle instantiates (1 MiB).
pub const MEM_BYTES: usize = 1 << 20;
/// Base of the scratch read/write data region generated code addresses.
pub const DATA_BASE: u32 = 0x0004_0000;
/// Mask applied to indexed-access offsets (keeps EAs inside the scratch
/// region, word-aligned).
pub const DATA_MASK: u16 = 0x7FFC;
/// Base address where the oracle materializes jump tables in data memory.
pub const JT_BASE: u32 = 0x0008_0000;

/// Loop counter registers by nesting depth (reserved: never written by
/// straight-line ops). The entry function indexes from 0, callees from
/// [`CALLEE_LOOP_BASE`], so a callee's loops can never clobber a counter of
/// the loop its call site sits in.
pub const LOOP_REGS: [Gpr; 4] = [R24, R25, R26, R27];

/// First [`LOOP_REGS`] index available to non-entry functions.
pub const CALLEE_LOOP_BASE: usize = 2;

/// One region of a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Straight-line instructions (no control flow).
    Straight(Vec<Insn>),
    /// `bl` to the function with this index (call depth is 1: only the
    /// entry function calls, callees are leaves).
    Call(usize),
    /// A counted loop: the body repeats `trips` times via a dedicated
    /// counter register chosen by nesting depth.
    Loop {
        /// Iteration count (≥ 1).
        trips: u8,
        /// Loop body.
        body: Vec<Node>,
    },
    /// A forward conditional region: `cmp` sets a CR field, then a `bc`
    /// with the given BO/BI skips over `then` when taken.
    If {
        /// The compare instruction establishing the condition.
        cmp: Insn,
        /// BO field of the skipping branch.
        skip_bo: u8,
        /// BI field of the skipping branch.
        skip_bi: u8,
        /// Region executed when the skip branch falls through.
        then: Vec<Node>,
    },
    /// A jump-table dispatch: the index register is masked to the table
    /// size (a power of two), the table entry is loaded from data memory
    /// into CTR, and `bctr` selects one arm. Every arm jumps forward to a
    /// common join point.
    Dispatch {
        /// Register supplying the (unmasked) case index.
        index: Gpr,
        /// One region per table entry; `arms.len()` is a power of two.
        arms: Vec<Vec<Node>>,
    },
}

/// One function of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSpec {
    /// Whether to emit a stack-frame prologue/epilogue (`stwu`/`stmw` …
    /// `lmw`/`addi`), exercising the paper's prologue/epilogue patterns.
    pub frame: bool,
    /// Body regions, executed in order.
    pub body: Vec<Node>,
}

/// A whole generated program. Function 0 is the entry; it ends in `sc` with
/// the exit code taken from `result_reg`. All other functions are leaves
/// ending in `blr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Functions; index 0 is the entry point.
    pub funcs: Vec<FuncSpec>,
    /// Initial register values, materialized as `lis`/`ori` pairs in the
    /// entry preamble.
    pub reg_init: Vec<(Gpr, u32)>,
    /// Register whose value becomes the exit code.
    pub result_reg: Gpr,
}

impl ProgramSpec {
    /// Total instruction-ish size (used to report shrink progress).
    pub fn weight(&self) -> usize {
        fn nodes(v: &[Node]) -> usize {
            v.iter()
                .map(|n| match n {
                    Node::Straight(ops) => ops.len(),
                    Node::Call(_) => 1,
                    Node::Loop { body, .. } => 2 + nodes(body),
                    Node::If { then, .. } => 2 + nodes(then),
                    Node::Dispatch { arms, .. } => {
                        7 + arms.iter().map(|a| 1 + nodes(a)).sum::<usize>()
                    }
                })
                .sum()
        }
        self.funcs.iter().map(|f| nodes(&f.body) + if f.frame { 5 } else { 1 }).sum::<usize>()
            + 2 * self.reg_init.len()
    }
}

/// A built program: the module plus the memory addresses where the oracle
/// must materialize each jump table.
#[derive(Debug, Clone)]
pub struct BuiltProgram {
    /// The assembled, validated module.
    pub module: ObjectModule,
    /// Data-memory address of each `module.jump_tables[t]`.
    pub table_addrs: Vec<u32>,
}

/// Errors lowering a spec to a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The assembler rejected the program (branch out of range, …).
    Asm(String),
    /// The finished module failed [`ObjectModule::validate`].
    Module(String),
    /// The spec violates a structural invariant (bad callee index, loop
    /// nesting too deep, non-power-of-two dispatch width).
    Structure(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Asm(e) => write!(f, "assembly failed: {e}"),
            BuildError::Module(e) => write!(f, "invalid module: {e}"),
            BuildError::Structure(e) => write!(f, "malformed spec: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

struct Lowering<'a> {
    a: &'a mut Assembler,
    /// Per-table list of arm-entry label names; resolved to instruction
    /// indices after emission.
    tables: Vec<Vec<String>>,
    next_label: usize,
    /// Index into [`LOOP_REGS`] for depth-0 loops of the current function.
    loop_base: usize,
}

impl Lowering<'_> {
    fn fresh(&mut self, what: &str) -> String {
        self.next_label += 1;
        format!("{}_{}", what, self.next_label)
    }

    fn emit_body(&mut self, nodes: &[Node], depth: usize) -> Result<(), BuildError> {
        for node in nodes {
            match node {
                Node::Straight(ops) => {
                    for &op in ops {
                        self.a.emit(op);
                    }
                }
                Node::Call(callee) => {
                    self.a.bl(&format!("fn_{callee}"));
                }
                Node::Loop { trips, body } => {
                    if self.loop_base + depth >= LOOP_REGS.len() {
                        return Err(BuildError::Structure("loop nesting too deep".into()));
                    }
                    let counter = LOOP_REGS[self.loop_base + depth];
                    let head = self.fresh("loop");
                    self.a.emit(Insn::Addi { rt: counter, ra: R0, si: (*trips).max(1) as i16 });
                    self.a.label(&head);
                    self.emit_body(body, depth + 1)?;
                    self.a.emit(Insn::AddicRc { rt: counter, ra: counter, si: -1 });
                    self.a.bc(bo::IF_FALSE, CR0.eq_bit(), &head);
                }
                Node::If { cmp, skip_bo, skip_bi, then } => {
                    let join = self.fresh("join");
                    self.a.emit(*cmp);
                    self.a.bc(*skip_bo, *skip_bi, &join);
                    self.emit_body(then, depth)?;
                    self.a.label(&join);
                }
                Node::Dispatch { index, arms } => {
                    if !arms.len().is_power_of_two() || arms.is_empty() {
                        return Err(BuildError::Structure(
                            "dispatch width must be a power of two".into(),
                        ));
                    }
                    let addr = table_address(&self.tables);
                    // Mask the index to the table, scale by entry size, load
                    // the patched target into CTR, dispatch.
                    self.a.emit(Insn::AndiRc { ra: R11, rs: *index, ui: (arms.len() - 1) as u16 });
                    self.a.emit(Insn::Rlwinm { ra: R11, rs: R11, sh: 2, mb: 0, me: 29, rc: false });
                    self.a.emit(Insn::Addis { rt: R10, ra: R0, si: (addr >> 16) as i16 });
                    self.a.emit(Insn::Ori { ra: R10, rs: R10, ui: (addr & 0xFFFF) as u16 });
                    self.a.emit(Insn::Lwzx { rt: R11, ra: R10, rb: R11 });
                    self.a.emit(Insn::Mtspr { spr: codense_ppc::reg::Spr::Ctr, rs: R11 });
                    self.a.emit(Insn::Bcctr { bo: bo::ALWAYS, bi: 0, lk: false });
                    // Restore the data base pointer clobbered by the address
                    // materialization, once per arm (each arm is an entry
                    // point, so each must restore it).
                    let join = self.fresh("join");
                    let mut entries = Vec::with_capacity(arms.len());
                    for arm in arms {
                        let entry = self.fresh("arm");
                        entries.push(entry.clone());
                        self.a.label(&entry);
                        self.a.emit(Insn::Addis { rt: R10, ra: R0, si: (DATA_BASE >> 16) as i16 });
                        self.emit_body(arm, depth)?;
                        self.a.b(&join);
                    }
                    self.a.label(&join);
                    self.tables.push(entries);
                }
            }
        }
        Ok(())
    }
}

/// Address of the next table given the tables allocated so far.
fn table_address(tables: &[Vec<String>]) -> u32 {
    JT_BASE + 4 * tables.iter().map(|t| t.len() as u32).sum::<u32>()
}

/// Lowers a spec into a runnable, validated module.
///
/// # Errors
///
/// Returns a [`BuildError`] if the spec violates a structural invariant or
/// produces an out-of-range branch.
pub fn build(spec: &ProgramSpec) -> Result<BuiltProgram, BuildError> {
    for func in &spec.funcs {
        check_calls(&func.body, spec.funcs.len())?;
    }
    let mut a = Assembler::new();
    let mut lower = Lowering { a: &mut a, tables: Vec::new(), next_label: 0, loop_base: 0 };
    let mut functions: Vec<FunctionInfo> = Vec::new();

    for (fi, func) in spec.funcs.iter().enumerate() {
        lower.loop_base = if fi == 0 { 0 } else { CALLEE_LOOP_BASE };
        let start = lower.a.here();
        lower.a.label(&format!("fn_{fi}"));
        let mut prologue_len = 0;
        if fi == 0 {
            // Entry preamble: data base pointer and initial register values.
            lower.a.emit(Insn::Addis { rt: R10, ra: R0, si: (DATA_BASE >> 16) as i16 });
            for &(reg, value) in &spec.reg_init {
                lower.a.emit(Insn::Addis { rt: reg, ra: R0, si: (value >> 16) as i16 });
                lower.a.emit(Insn::Ori { ra: reg, rs: reg, ui: (value & 0xFFFF) as u16 });
            }
            prologue_len = lower.a.here() - start;
        } else if func.frame {
            lower.a.emit(Insn::Stwu { rs: R1, ra: R1, d: -32 });
            lower.a.emit(Insn::Stmw { rs: R29, ra: R1, d: 8 });
            prologue_len = 2;
        }
        lower.emit_body(&func.body, 0)?;
        let epi_start = lower.a.here();
        if fi == 0 {
            lower.a.emit(Insn::Or { ra: R3, rs: spec.result_reg, rb: spec.result_reg, rc: false });
            lower.a.emit(Insn::Sc);
        } else {
            if func.frame {
                lower.a.emit(Insn::Lmw { rt: R29, ra: R1, d: 8 });
                lower.a.emit(Insn::Addi { rt: R1, ra: R1, si: 32 });
            }
            lower.a.blr();
        }
        let end = lower.a.here();
        functions.push(FunctionInfo {
            name: format!("fn_{fi}"),
            start,
            end,
            prologue_len,
            epilogues: std::iter::once(epi_start..end).collect(),
        });
    }

    // Resolve jump-table entry labels to instruction indices.
    let mut jump_tables = Vec::with_capacity(lower.tables.len());
    let mut table_addrs = Vec::with_capacity(lower.tables.len());
    let mut next_addr = JT_BASE;
    for labels in &lower.tables {
        let targets: Vec<usize> =
            labels.iter().map(|l| lower.a.label_pos(l).expect("arm label defined")).collect();
        table_addrs.push(next_addr);
        next_addr += 4 * targets.len() as u32;
        jump_tables.push(JumpTable { targets });
    }

    let code = a.finish().map_err(|e| BuildError::Asm(e.to_string()))?;
    let mut module = ObjectModule::new("fuzz");
    module.code = code;
    module.functions = functions;
    module.jump_tables = jump_tables;
    module.validate().map_err(|e| BuildError::Module(e.to_string()))?;
    Ok(BuiltProgram { module, table_addrs })
}

fn check_calls(nodes: &[Node], funcs: usize) -> Result<(), BuildError> {
    for node in nodes {
        match node {
            Node::Call(c) if *c == 0 || *c >= funcs => {
                return Err(BuildError::Structure(format!("bad callee index {c}")));
            }
            Node::Loop { body, .. } => check_calls(body, funcs)?,
            Node::If { then, .. } => check_calls(then, funcs)?,
            Node::Dispatch { arms, .. } => {
                for arm in arms {
                    check_calls(arm, funcs)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::reg::{R4, R5};

    fn tiny_spec() -> ProgramSpec {
        ProgramSpec {
            funcs: vec![FuncSpec {
                frame: false,
                body: vec![
                    Node::Straight(vec![Insn::Addi { rt: R4, ra: R0, si: 7 }]),
                    Node::Loop {
                        trips: 3,
                        body: vec![Node::Straight(vec![Insn::Addi { rt: R5, ra: R5, si: 1 }])],
                    },
                ],
            }],
            reg_init: vec![(R5, 0x10)],
            result_reg: R5,
        }
    }

    #[test]
    fn tiny_spec_builds_and_validates() {
        let built = build(&tiny_spec()).unwrap();
        assert!(built.module.validate().is_ok());
        assert_eq!(built.module.functions.len(), 1);
        assert!(built.module.code.len() >= 8);
    }

    #[test]
    fn dispatch_allocates_tables() {
        let spec = ProgramSpec {
            funcs: vec![FuncSpec {
                frame: false,
                body: vec![Node::Dispatch {
                    index: R4,
                    arms: vec![
                        vec![Node::Straight(vec![Insn::Addi { rt: R5, ra: R5, si: 1 }])],
                        vec![Node::Straight(vec![Insn::Addi { rt: R5, ra: R5, si: 2 }])],
                    ],
                }],
            }],
            reg_init: vec![(R4, 1)],
            result_reg: R5,
        };
        let built = build(&spec).unwrap();
        assert_eq!(built.module.jump_tables.len(), 1);
        assert_eq!(built.module.jump_tables[0].targets.len(), 2);
        assert_eq!(built.table_addrs, vec![JT_BASE]);
    }

    #[test]
    fn bad_callee_rejected() {
        let mut spec = tiny_spec();
        spec.funcs[0].body.push(Node::Call(9));
        assert!(matches!(build(&spec), Err(BuildError::Structure(_))));
    }
}
