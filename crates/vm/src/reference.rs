//! The re-parsing fetch engines and the generic per-step loop, kept as an
//! executable specification of the production engine.
//!
//! [`LinearFetcher`] is the ordinary processor front end: the PC advances 8
//! nibbles (one word) per instruction. [`CompressedFetcher`] is the modified
//! front end of the paper's Fig 3: it parses the packed compressed image
//! nibble by nibble on every fetch, detects escape prefixes, and expands
//! codewords through the on-chip dictionary into an expansion buffer that
//! feeds the core one instruction at a time. [`run`] drives either through
//! [`Core::step_word`], re-decoding every step.
//!
//! Production runs [`crate::fetch::PredecodedFetcher`] under
//! [`crate::run::run_predecoded`]. These engines survive for two reasons:
//!
//! * the equivalence suites assert the predecoded engine delivers the same
//!   stream, [`FetchStats`] and final machine as they do, on both ISAs and
//!   every encoding;
//! * `codense scale` times [`CompressedFetcher`] as the reparse column that
//!   the predecoded speedup in `BENCH_scale.json` is relative to.

use codense_core::encoding::{read_item_coded, Item};
use codense_core::nibbles::NibbleReader;
use codense_core::{telemetry, CompressedProgram, HuffCode};
use codense_isa::IsaRef;

use crate::fetch::{by_rank, Fetch, FetchStats, Fetched};
use crate::machine::{Core, MachineError, Outcome};
use crate::run::RunResult;

/// The conventional fetch path over an uncompressed text image.
#[derive(Debug, Clone)]
pub struct LinearFetcher {
    code: Vec<u32>,
    stats: FetchStats,
}

impl LinearFetcher {
    /// Creates a fetcher over instruction words (instruction `i` lives at
    /// nibble address `8 * i`).
    pub fn new(code: Vec<u32>) -> LinearFetcher {
        LinearFetcher { code, stats: FetchStats::default() }
    }
}

impl Fetch for LinearFetcher {
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        if !pc.is_multiple_of(8) {
            return Err(MachineError::FetchFault { pc });
        }
        let idx = (pc / 8) as usize;
        let word = *self.code.get(idx).ok_or(MachineError::FetchFault { pc })?;
        self.stats.insns += 1;
        self.stats.nibbles_fetched += 8;
        telemetry::VM_FETCH_LINEAR_INSNS.inc();
        telemetry::VM_FETCH_NIBBLES.add(8);
        Ok(Fetched { word, next_pc: pc + 8 })
    }

    fn granule(&self) -> u32 {
        8
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }
}

/// The compressed-program fetch path: escape detection, dictionary
/// expansion buffer, nibble-granular PC.
///
/// Sequential flow inside an expanded codeword keeps the PC at the
/// codeword's address while the buffer drains; branches always target
/// codeword boundaries (guaranteed by the compressor), which flush the
/// buffer.
#[derive(Debug, Clone)]
pub struct CompressedFetcher {
    image: Vec<u8>,
    encoding: codense_core::EncodingKind,
    /// The ISA whose escape bytes introduce stream items.
    isa: IsaRef,
    /// Dictionary entries by codeword rank.
    by_rank: Vec<Vec<u32>>,
    /// Canonical Huffman decode table, rebuilt from codeword lengths
    /// ([`codense_core::EncodingKind::Huffman`] programs only). `None` for
    /// other encodings — or when a container carried unusable lengths, in
    /// which case every fetch faults instead of panicking.
    huffman: Option<HuffCode>,
    /// Remaining instructions of the codeword being drained.
    buffer: Vec<u32>,
    /// Position within the draining codeword.
    buffer_pos: usize,
    /// PC the buffer belongs to.
    buffer_pc: u64,
    /// Address of the atom following the buffered codeword.
    after_buffer: u64,
    /// `next_pc` of the previous delivery, for realignment detection:
    /// a fetch anywhere else is a control transfer. `u64::MAX` before the
    /// first fetch (entry is conventionally aligned at 0).
    expect_pc: u64,
    stats: FetchStats,
}

impl CompressedFetcher {
    /// Builds the fetch engine from a compressed program (the image and the
    /// dictionary; atoms/addresses are not consulted — the engine parses
    /// the byte image exactly as hardware would). The program's ISA is used
    /// for escape detection.
    pub fn new(program: &CompressedProgram) -> CompressedFetcher {
        CompressedFetcher::from_parts(
            program.image.clone(),
            program.encoding,
            program.isa,
            by_rank(program),
            program.huffman.clone(),
        )
    }

    /// Builds the fetch engine from a deserialized container image (see
    /// `codense_core::container`) for an explicit target ISA: what a real
    /// decoder boots from. The container format does not record an ISA.
    pub fn from_image_with(
        image: &codense_core::container::ProgramImage,
        isa: IsaRef,
    ) -> CompressedFetcher {
        CompressedFetcher::from_parts(
            image.image.clone(),
            image.encoding,
            isa,
            image.dictionary_by_rank.clone(),
            // Hostile or absent lengths yield `None`; Huffman fetches then
            // fault rather than panic.
            HuffCode::from_nibble_lengths(image.huffman_lengths.clone()),
        )
    }

    fn from_parts(
        image: Vec<u8>,
        encoding: codense_core::EncodingKind,
        isa: IsaRef,
        by_rank: Vec<Vec<u32>>,
        huffman: Option<HuffCode>,
    ) -> CompressedFetcher {
        CompressedFetcher {
            image,
            encoding,
            isa,
            by_rank,
            huffman,
            buffer: Vec::new(),
            buffer_pos: 0,
            buffer_pc: u64::MAX,
            after_buffer: 0,
            expect_pc: u64::MAX,
            stats: FetchStats::default(),
        }
    }

    fn deliver_buffered(&mut self) -> Fetched {
        let word = self.buffer[self.buffer_pos];
        self.buffer_pos += 1;
        self.stats.insns += 1;
        self.stats.expanded_insns += 1;
        telemetry::VM_FETCH_BUFFERED_INSNS.inc();
        let next_pc =
            if self.buffer_pos < self.buffer.len() { self.buffer_pc } else { self.after_buffer };
        self.expect_pc = next_pc;
        Fetched { word, next_pc }
    }
}

impl Fetch for CompressedFetcher {
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        // A fetch anywhere but the previous delivery's `next_pc` is a
        // control transfer; when it lands mid-word the fetch unit must
        // realign its nibble pointer (the cost model charges this).
        if pc != self.expect_pc && !pc.is_multiple_of(8) {
            self.stats.realigns += 1;
            telemetry::VM_FETCH_REALIGNS.inc();
        }
        // Drain the expansion buffer while sequential flow stays on it.
        if pc == self.buffer_pc && self.buffer_pos < self.buffer.len() {
            return Ok(self.deliver_buffered());
        }
        let mut r = NibbleReader::new(&self.image);
        r.seek(pc);
        let before = r.pos();
        match read_item_coded(self.encoding, self.isa, self.huffman.as_ref(), &mut r) {
            Some(Item::Insn(word)) => {
                self.stats.insns += 1;
                self.stats.nibbles_fetched += r.pos() - before;
                // Under every encoding an uncompressed instruction in the
                // stream is introduced by an escape prefix.
                telemetry::VM_FETCH_ESCAPES.inc();
                telemetry::VM_FETCH_NIBBLES.add(r.pos() - before);
                // Leaving any previous codeword behind.
                self.buffer_pc = u64::MAX;
                self.expect_pc = r.pos();
                Ok(Fetched { word, next_pc: r.pos() })
            }
            Some(Item::Codeword(rank)) => {
                let seq =
                    self.by_rank.get(rank as usize).ok_or(MachineError::FetchFault { pc })?.clone();
                if seq.is_empty() {
                    return Err(MachineError::FetchFault { pc });
                }
                self.stats.codewords += 1;
                self.stats.nibbles_fetched += r.pos() - before;
                telemetry::VM_FETCH_CODEWORDS.inc();
                telemetry::VM_FETCH_NIBBLES.add(r.pos() - before);
                self.buffer = seq;
                self.buffer_pos = 0;
                self.buffer_pc = pc;
                self.after_buffer = r.pos();
                Ok(self.deliver_buffered())
            }
            None => Err(MachineError::FetchFault { pc }),
        }
    }

    fn granule(&self) -> u32 {
        self.encoding.granule_nibbles()
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }
}

/// Runs until the core halts or the step budget is exhausted, one
/// [`Fetch::fetch`] and one [`Core::step_word`] per instruction.
///
/// # Errors
///
/// Propagates any [`MachineError`]; [`MachineError::StepLimit`] if the
/// program does not halt within `max_steps`.
pub fn run(
    core: &mut dyn Core,
    fetch: &mut dyn Fetch,
    entry: u64,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    let mut pc = entry;
    for step in 0..max_steps {
        let fetched = fetch.fetch(pc)?;
        match core.step_word(fetched.word, pc, fetched.next_pc, fetch.granule())? {
            Outcome::Next => pc = fetched.next_pc,
            Outcome::Branch(target) => pc = target,
            Outcome::Halt => {
                return Ok(RunResult {
                    exit_code: core.exit_code(),
                    steps: step + 1,
                    stats: fetch.stats(),
                })
            }
        }
    }
    Err(MachineError::StepLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_core::{CompressionConfig, Compressor};
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn code() -> Vec<u32> {
        let mut code = Vec::new();
        for _ in 0..10 {
            code.push(encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            code.push(encode(&Insn::Addi { rt: R4, ra: R4, si: 2 }));
        }
        code.push(encode(&Insn::Sc));
        code
    }

    #[test]
    fn linear_fetch_walks_words() {
        let code = code();
        let mut f = LinearFetcher::new(code.clone());
        let f0 = f.fetch(0).unwrap();
        assert_eq!((f0.word, f0.next_pc), (code[0], 8));
        assert!(f.fetch(4).is_err(), "misaligned fetch must fault");
        assert!(f.fetch(8 * 100).is_err());
        assert_eq!(f.stats().insns, 1);
    }

    #[test]
    fn compressed_fetch_delivers_same_stream() {
        let mut m = codense_obj::ObjectModule::new("t");
        m.code = code();
        for config in [
            CompressionConfig::baseline(),
            CompressionConfig::small_dictionary(16),
            CompressionConfig::nibble_aligned(),
            CompressionConfig::huffman(),
        ] {
            let c = Compressor::new(config).compress(&m).unwrap();
            let mut f = CompressedFetcher::new(&c);
            let mut pc = 0;
            let mut got = Vec::new();
            for _ in 0..m.len() {
                let fetched = f.fetch(pc).unwrap();
                got.push(fetched.word);
                pc = fetched.next_pc;
            }
            assert_eq!(got, m.code);
        }
    }
}
