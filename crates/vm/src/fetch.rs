//! Instruction fetch: the [`Fetch`] contract, [`FetchStats`], and the
//! production engine of the paper's Fig 3 front end.
//!
//! [`PredecodedFetcher`] is a decoded-item cache keyed by compressed-stream
//! (nibble) offset. The first fetch of an item parses it exactly as the
//! modified front end would — escape detection, dictionary expansion,
//! Huffman decode — and caches the outcome: the delivered words, the item
//! kind, and the nibbles it consumes. Every later fetch of that offset
//! replays the cache with no parsing, no dictionary copy, and no
//! allocation. Faults are never cached. [`crate::run::run_predecoded`]
//! drives it with a threaded dispatch loop that also hoists instruction
//! *decode* out of the step cycle (see [`codense_isa::PredecodeCore`]).
//! [`PredecodedFetcher::linear`] puts uncompressed text behind the same
//! cache (whole words at 8-nibble steps), so one loop runs both fetch
//! domains.
//!
//! The engine is byte-exact with the re-parsing engines of
//! [`crate::reference`], which re-parse the stream on every fetch: same
//! delivered stream, same [`FetchStats`], same telemetry counters
//! (`vm.fetch.*`), so the cycle model and `BENCH_hybrid.json` stay valid.
//!
//! Fetch engines deliver raw instruction *words* — decode belongs to the
//! target core ([`codense_isa::Core::step_word`]), which keeps the fetch
//! path ISA-independent.
//!
//! All engines report [`FetchStats`], making the fetch-bandwidth effect of
//! compression measurable (the I-cache angle of [Chen97]).

use codense_core::encoding::{read_item_coded, Item};
use codense_core::nibbles::NibbleReader;
use codense_core::{telemetry, CompressedProgram, HuffCode};
use codense_isa::IsaRef;

use crate::machine::MachineError;

/// Counters maintained by a fetch engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Instructions delivered to the core.
    pub insns: u64,
    /// Nibbles consumed from program memory.
    pub nibbles_fetched: u64,
    /// Codewords expanded.
    pub codewords: u64,
    /// Instructions delivered out of dictionary expansions.
    pub expanded_insns: u64,
    /// Nibble-PC realignments: control transfers into the packed stream at
    /// an address that is not word-aligned, forcing the fetch unit to
    /// realign mid-word (sequential flow streams and never realigns).
    pub realigns: u64,
}

impl FetchStats {
    /// Mean program-memory bits fetched per delivered instruction (32 for
    /// an uncompressed program; lower when codewords do their job).
    pub fn bits_per_insn(&self) -> f64 {
        if self.insns == 0 {
            return 0.0;
        }
        4.0 * self.nibbles_fetched as f64 / self.insns as f64
    }
}

/// One fetched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetched {
    /// The raw instruction word (the core decodes it).
    pub word: u32,
    /// Fetch-domain address of the following instruction (what sequential
    /// flow and `lk` should use).
    pub next_pc: u64,
}

/// An instruction-fetch engine with a nibble-granular PC.
pub trait Fetch {
    /// Fetches the instruction at `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::FetchFault`] if `pc` does not address an
    /// instruction boundary in this engine's program.
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError>;

    /// Branch-offset unit in nibbles (8 uncompressed; the smallest-codeword
    /// size for compressed programs).
    fn granule(&self) -> u32;

    /// Fetch counters so far.
    fn stats(&self) -> FetchStats;
}

/// A program's dictionary entries by codeword rank.
pub(crate) fn by_rank(program: &CompressedProgram) -> Vec<Vec<u32>> {
    let d = &program.dictionary;
    (0..d.len() as u32).map(|rank| d.entry(d.entry_of_rank(rank)).words.clone()).collect()
}

/// Cache-entry tag: offset holds an escaped (uncompressed) instruction.
pub(crate) const TAG_INSN: u64 = 1;
/// Cache-entry tag: offset holds a codeword.
const TAG_CODEWORD: u64 = 2;
/// Cache-entry tag: the entry overflows the packed form; the payload is an
/// index into the side table of wide entries.
const TAG_SIDE: u64 = 3;

/// Packs a decode-cache entry into one table word: tag in bits 30–31,
/// consumed nibbles in bits 26–29, delivered-word count in bits 22–25,
/// pool start index in bits 0–21. The all-zero word means "not cached" (a
/// real entry always has a nonzero tag). The table is deliberately 32-bit:
/// the hot loop streams roughly one entry per executed instruction, so
/// halving the slot halves the table's cache traffic.
///
/// Returns `None` when a field overflows the packed form — a pool past
/// 4Mi words, a dictionary entry longer than 15 instructions, or an item
/// wider than 15 nibbles. Such entries go to the side table under
/// [`TAG_SIDE`].
fn pack_entry(tag: u64, consumed: u64, len: usize, start: usize) -> Option<u32> {
    if consumed < 1 << 4 && len < 1 << 4 && start < 1 << 22 {
        Some((tag as u32) << 30 | (consumed as u32) << 26 | (len as u32) << 22 | start as u32)
    } else {
        None
    }
}

/// Packs a wide (side-table) entry: tag in bits 62–63, consumed nibbles in
/// bits 48–61, delivered-word count in bits 32–47, pool start index in bits
/// 0–31.
fn pack_wide(tag: u64, consumed: u64, len: usize, start: usize) -> u64 {
    debug_assert!(consumed < 1 << 14 && len < 1 << 16 && start < 1 << 32);
    (tag << 62) | (consumed << 48) | ((len as u64) << 32) | start as u64
}

/// The `(tag, consumed_nibbles, delivered_len, pool_start)` of a table
/// entry, chasing [`TAG_SIDE`] indirections through `side`.
#[inline(always)]
pub(crate) fn unpack_entry(e: u32, side: &[u64]) -> (u64, u64, usize, usize) {
    let tag = (e >> 30) as u64;
    if tag == TAG_SIDE {
        let w = side[(e & 0x3fff_ffff) as usize];
        (w >> 62, (w >> 48) & 0x3fff, ((w >> 32) & 0xffff) as usize, (w & 0xffff_ffff) as usize)
    } else {
        (tag, ((e >> 26) & 0xf) as u64, ((e >> 22) & 0xf) as usize, (e & 0x3f_ffff) as usize)
    }
}

/// Linear text has one entry-table slot per word: `1 << 3` nibbles.
pub(crate) const LINEAR_SLOT_SHIFT: u32 = 3;

/// Whether `pc` starts an entry-table slot of `1 << shift` nibbles
/// ([`PredecodedFetcher::slot_shift`]); slot `pc >> shift` is its own only
/// then. A PC between slots (mid-word in linear text) is never cached: its
/// lookup misses and the fill faults. Lookups index first and check this
/// beside the hit test, off the load's critical path.
#[inline(always)]
pub(crate) fn on_slot(pc: u64, shift: u32) -> bool {
    pc & ((1 << shift) - 1) == 0
}

/// Counters a predecoded run loop accumulates locally and flushes in bulk —
/// the batched form of the per-fetch bookkeeping. Final [`FetchStats`] and
/// telemetry values are identical to per-fetch updates (the counters are
/// plain sums), only the update granularity differs.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RunCounters {
    pub insns: u64,
    pub nibbles: u64,
    pub codewords: u64,
    pub expanded: u64,
    pub realigns: u64,
}

/// The predecoded fetch engine: the semantics of
/// [`crate::reference::CompressedFetcher`] behind a decoded-item cache keyed
/// by compressed-stream offset.
///
/// Every nibble offset of the image (every word of linear text) has a
/// cache slot. A miss parses the item at that offset exactly as the
/// re-parsing engine would (escape detection, dictionary expansion, Huffman
/// decode) and caches the delivered words in a shared pool; a hit replays
/// the pool with no parsing and no allocation. Offsets that do not parse
/// (mid-item PCs, truncated streams) fault without being cached, so a bad
/// branch target faults on every attempt, just like the re-parsing engine.
///
/// The cache can be bounded with [`with_capacity`](Self::with_capacity)
/// (eviction is a wholesale flush, the hardware-realistic policy for a
/// predecode buffer) and dropped explicitly with
/// [`invalidate`](Self::invalidate) — e.g. after patching the image.
/// Flushing mid-expansion abandons the expansion buffer; the next fetch of
/// that codeword re-parses and redelivers it from its first instruction.
///
/// [`FetchStats`] and telemetry are byte-exact with the re-parsing engine.
#[derive(Debug, Clone)]
pub struct PredecodedFetcher {
    /// Linear mode ([`Self::linear`]): `image` is raw big-endian text and
    /// every item is one whole word; the packed-stream fields are unused.
    linear: bool,
    image: Vec<u8>,
    encoding: codense_core::EncodingKind,
    isa: IsaRef,
    huffman: Option<HuffCode>,
    by_rank: Vec<Vec<u32>>,
    /// One slot per item start the mode allows ([`Self::slot_shift`]):
    /// per nibble offset of a packed stream, per word of linear text.
    /// Packed with [`pack_entry`], zero = empty.
    entries: Vec<u32>,
    /// Wide entries that overflow the packed table form ([`TAG_SIDE`]).
    side: Vec<u64>,
    /// Delivered instruction words of every cached item, contiguous per
    /// item.
    pool: Vec<u32>,
    /// Cached items (not pool words); bounded by `capacity`.
    filled: usize,
    capacity: usize,
    /// Bumped on every flush/invalidate so decoded-side mirrors (see
    /// [`crate::run::run_predecoded`]) know their pool indices died.
    generation: u64,
    // Expansion-drain state for the `Fetch` impl, mirroring the re-parsing
    // engine's expansion buffer (start/len/pos index into `pool`).
    drain_start: usize,
    drain_len: usize,
    drain_pos: usize,
    buffer_pc: u64,
    after_buffer: u64,
    expect_pc: u64,
    stats: FetchStats,
}

impl PredecodedFetcher {
    /// Builds the engine from a compressed program (its image, dictionary
    /// and ISA); the cache starts empty and unbounded.
    pub fn new(program: &CompressedProgram) -> PredecodedFetcher {
        PredecodedFetcher::from_parts(
            program.image.clone(),
            program.encoding,
            program.isa,
            program.huffman.clone(),
            by_rank(program),
        )
    }

    /// Builds the engine from a deserialized container image for an
    /// explicit target ISA (the container format does not record one): what
    /// a real decoder boots from. Hostile or absent Huffman lengths leave
    /// no decode table, so every Huffman fetch faults instead of panicking.
    pub fn from_image_with(
        image: &codense_core::container::ProgramImage,
        isa: IsaRef,
    ) -> PredecodedFetcher {
        PredecodedFetcher::from_parts(
            image.image.clone(),
            image.encoding,
            isa,
            HuffCode::from_nibble_lengths(image.huffman_lengths.clone()),
            image.dictionary_by_rank.clone(),
        )
    }

    /// Builds the engine over uncompressed text (instruction `i` at nibble
    /// address `8 * i`, granule 8). Fetches, faults, [`FetchStats`] and
    /// telemetry (`vm.fetch.linear_insns`, 8 nibbles per instruction, no
    /// realigns) match [`crate::reference::LinearFetcher`].
    pub fn linear(code: Vec<u32>) -> PredecodedFetcher {
        let image = code.iter().flat_map(|w| w.to_be_bytes()).collect();
        // Linear mode never parses: the stream parameters are placeholders.
        let (encoding, isa) = (codense_core::EncodingKind::Baseline, IsaRef(&codense_ppc::ISA));
        PredecodedFetcher {
            linear: true,
            image,
            entries: vec![0; code.len()],
            ..Self::from_parts(Vec::new(), encoding, isa, None, Vec::new())
        }
    }

    fn from_parts(
        image: Vec<u8>,
        encoding: codense_core::EncodingKind,
        isa: IsaRef,
        huffman: Option<HuffCode>,
        by_rank: Vec<Vec<u32>>,
    ) -> PredecodedFetcher {
        let nibbles = image.len() * 2;
        PredecodedFetcher {
            linear: false,
            image,
            encoding,
            isa,
            huffman,
            by_rank,
            entries: vec![0; nibbles],
            side: Vec::new(),
            pool: Vec::new(),
            filled: 0,
            capacity: usize::MAX,
            generation: 0,
            drain_start: 0,
            drain_len: 0,
            drain_pos: 0,
            buffer_pc: u64::MAX,
            after_buffer: 0,
            expect_pc: u64::MAX,
            stats: FetchStats::default(),
        }
    }

    /// Bounds the cache at `items` cached items. Filling past the bound
    /// flushes the whole cache first (wholesale eviction), so a working set
    /// larger than the capacity thrashes but stays correct.
    pub fn with_capacity(mut self, items: usize) -> PredecodedFetcher {
        self.capacity = items.max(1);
        self
    }

    /// Drops every cached item (e.g. after the image has been repatched).
    /// Stats and telemetry are unaffected; subsequent fetches re-parse and
    /// re-fill on demand.
    pub fn invalidate(&mut self) {
        self.entries.fill(0);
        self.side.clear();
        self.pool.clear();
        self.flush_runtime_state();
    }

    /// The non-storage half of a flush: shared between [`invalidate`] and
    /// the detached-storage flush inside [`Self::fill_detached`].
    fn flush_runtime_state(&mut self) {
        self.filled = 0;
        self.generation += 1;
        // Pool indices died with the pool; abandon any in-flight expansion.
        self.buffer_pc = u64::MAX;
        self.drain_len = 0;
        self.drain_pos = 0;
    }

    /// Nibbles per entry-table slot, as a shift for [`on_slot`]: a packed
    /// stream has a slot per nibble offset, linear text one per word (its
    /// only fetchable PCs).
    #[inline(always)]
    pub(crate) fn slot_shift(&self) -> u32 {
        if self.linear {
            LINEAR_SLOT_SHIFT
        } else {
            0
        }
    }

    /// Cached items currently resident.
    pub fn cached_items(&self) -> usize {
        self.filled
    }

    /// Flush epoch: bumped by every [`invalidate`](Self::invalidate),
    /// including capacity-driven ones.
    #[inline(always)]
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    #[cold]
    fn fill(&mut self, pc: u64) -> Result<u32, MachineError> {
        let (mut entries, mut side, mut pool) = self.take_storage();
        let r = self.fill_detached(pc, &mut entries, &mut side, &mut pool);
        self.restore_storage(entries, side, pool);
        r
    }

    /// Detaches the entry table and word pool for a run loop's exclusive
    /// use. [`crate::run::run_predecoded`] keeps them in locals so the hot
    /// path reads them through loop-invariant pointers instead of reloading
    /// `self`'s fields every iteration; [`Self::restore_storage`] puts them
    /// back before the loop's counters are absorbed. While detached, the
    /// fetcher's own storage is empty (every lookup misses), so the two
    /// calls must bracket the loop tightly.
    pub(crate) fn take_storage(&mut self) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
        (
            std::mem::take(&mut self.entries),
            std::mem::take(&mut self.side),
            std::mem::take(&mut self.pool),
        )
    }

    /// Reattaches storage detached by [`Self::take_storage`].
    pub(crate) fn restore_storage(&mut self, entries: Vec<u32>, side: Vec<u64>, pool: Vec<u32>) {
        self.entries = entries;
        self.side = side;
        self.pool = pool;
    }

    /// [`Self::fill`] against detached storage.
    ///
    /// # Errors
    ///
    /// [`MachineError::FetchFault`] if `pc` does not address a parseable
    /// item; the fault is not cached.
    #[cold]
    pub(crate) fn fill_detached(
        &mut self,
        pc: u64,
        entries: &mut [u32],
        side: &mut Vec<u64>,
        pool: &mut Vec<u32>,
    ) -> Result<u32, MachineError> {
        let (item, consumed) = if self.linear {
            let at = (pc / 2) as usize;
            let word = self.image.get(at..at + 4).filter(|_| pc.is_multiple_of(8));
            (word.map(|b| Item::Insn(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))), 8)
        } else {
            let mut r = NibbleReader::new(&self.image);
            r.seek(pc);
            let item = read_item_coded(self.encoding, self.isa, self.huffman.as_ref(), &mut r);
            (item, r.pos() - pc)
        };
        let (tag, words) = match item {
            Some(Item::Insn(word)) => (TAG_INSN, vec![word]),
            Some(Item::Codeword(rank)) => {
                let seq =
                    self.by_rank.get(rank as usize).ok_or(MachineError::FetchFault { pc })?.clone();
                if seq.is_empty() {
                    return Err(MachineError::FetchFault { pc });
                }
                (TAG_CODEWORD, seq)
            }
            None => return Err(MachineError::FetchFault { pc }),
        };
        if self.filled >= self.capacity {
            // Wholesale eviction, on the detached storage.
            entries.fill(0);
            side.clear();
            pool.clear();
            self.flush_runtime_state();
        }
        let start = pool.len();
        let entry = match pack_entry(tag, consumed, words.len(), start) {
            Some(e) => e,
            None => {
                // Overflows the packed form: park the wide record in the
                // side table and point at it.
                side.push(pack_wide(tag, consumed, words.len(), start));
                (TAG_SIDE as u32) << 30 | (side.len() - 1) as u32
            }
        };
        pool.extend_from_slice(&words);
        entries[(pc >> self.slot_shift()) as usize] = entry;
        self.filled += 1;
        Ok(entry)
    }

    /// Folds a run loop's batched counters into stats and telemetry, and
    /// adopts its final drain state so interleaved [`Fetch`] use stays
    /// coherent.
    pub(crate) fn absorb(
        &mut self,
        c: &RunCounters,
        expect_pc: u64,
        drain: (usize, usize, usize, u64, u64),
    ) {
        self.stats.insns += c.insns;
        self.stats.nibbles_fetched += c.nibbles;
        telemetry::VM_FETCH_NIBBLES.add(c.nibbles);
        if self.linear {
            // Word-granular text never realigns: its one unaligned PC is
            // the fetch that faulted.
            telemetry::VM_FETCH_LINEAR_INSNS.add(c.insns);
        } else {
            self.stats.codewords += c.codewords;
            self.stats.expanded_insns += c.expanded;
            self.stats.realigns += c.realigns;
            // Every delivered instruction is either an escaped one or an
            // expansion word, so the escape count needs no counter of its
            // own.
            telemetry::VM_FETCH_ESCAPES.add(c.insns - c.expanded);
            telemetry::VM_FETCH_CODEWORDS.add(c.codewords);
            telemetry::VM_FETCH_BUFFERED_INSNS.add(c.expanded);
            telemetry::VM_FETCH_REALIGNS.add(c.realigns);
        }
        self.expect_pc = expect_pc;
        (self.drain_start, self.drain_len, self.drain_pos, self.buffer_pc, self.after_buffer) =
            drain;
    }

    fn deliver_pooled(&mut self) -> Fetched {
        let word = self.pool[self.drain_start + self.drain_pos];
        self.drain_pos += 1;
        self.stats.insns += 1;
        self.stats.expanded_insns += 1;
        telemetry::VM_FETCH_BUFFERED_INSNS.inc();
        let next_pc =
            if self.drain_pos < self.drain_len { self.buffer_pc } else { self.after_buffer };
        self.expect_pc = next_pc;
        Fetched { word, next_pc }
    }
}

impl Fetch for PredecodedFetcher {
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        if pc != self.expect_pc && !pc.is_multiple_of(8) && !self.linear {
            self.stats.realigns += 1;
            telemetry::VM_FETCH_REALIGNS.inc();
        }
        if pc == self.buffer_pc && self.drain_pos < self.drain_len {
            return Ok(self.deliver_pooled());
        }
        let shift = self.slot_shift();
        let e = match self.entries.get((pc >> shift) as usize) {
            Some(&e) if e != 0 && on_slot(pc, shift) => e,
            Some(_) => self.fill(pc)?,
            None => return Err(MachineError::FetchFault { pc }),
        };
        let (tag, consumed, len, start) = unpack_entry(e, &self.side);
        self.stats.nibbles_fetched += consumed;
        telemetry::VM_FETCH_NIBBLES.add(consumed);
        if tag == TAG_INSN {
            self.stats.insns += 1;
            if self.linear {
                telemetry::VM_FETCH_LINEAR_INSNS.inc();
            } else {
                telemetry::VM_FETCH_ESCAPES.inc();
            }
            self.buffer_pc = u64::MAX;
            self.expect_pc = pc + consumed;
            Ok(Fetched { word: self.pool[start], next_pc: pc + consumed })
        } else {
            self.stats.codewords += 1;
            telemetry::VM_FETCH_CODEWORDS.inc();
            self.drain_start = start;
            self.drain_len = len;
            self.drain_pos = 0;
            self.buffer_pc = pc;
            self.after_buffer = pc + consumed;
            Ok(self.deliver_pooled())
        }
    }

    fn granule(&self) -> u32 {
        if self.linear {
            8
        } else {
            self.encoding.granule_nibbles()
        }
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::reference::CompressedFetcher;
    use crate::run::run_predecoded;
    use codense_core::container::{deserialize, serialize, ProgramImage};
    use codense_core::{CompressionConfig, Compressor};
    use codense_obj::ObjectModule;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

    fn module() -> ObjectModule {
        let mut m = ObjectModule::new("t");
        for _ in 0..10 {
            m.code.push(encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            m.code.push(encode(&Insn::Addi { rt: R4, ra: R4, si: 2 }));
        }
        m.code.push(encode(&Insn::Sc));
        m
    }

    fn container_image(config: CompressionConfig) -> ProgramImage {
        let c = Compressor::new(config).compress(&module()).unwrap();
        deserialize(&serialize(&c)).unwrap()
    }

    /// Fetching at `pc` must fault — never panic — on the re-parsing
    /// engine and on the production engine booted from the same container
    /// image, both through [`Fetch`] and through the threaded-dispatch loop.
    fn assert_faults_everywhere(image: &ProgramImage, pc: u64) {
        assert!(CompressedFetcher::from_image_with(image, PPC).fetch(pc).is_err());
        assert!(PredecodedFetcher::from_image_with(image, PPC).fetch(pc).is_err());
        let mut fetch = PredecodedFetcher::from_image_with(image, PPC);
        let got = run_predecoded(&mut Machine::new(4096), &mut fetch, pc, 100);
        assert!(matches!(got, Err(MachineError::FetchFault { .. })), "{got:?}");
        assert_eq!(fetch.cached_items(), 0);
    }

    #[test]
    fn huffman_fetch_from_container_image() {
        let m = module();
        let image = container_image(CompressionConfig::huffman());
        let mut f = PredecodedFetcher::from_image_with(&image, PPC);
        let mut pc = 0;
        let mut got = Vec::new();
        for _ in 0..m.len() {
            let fetched = f.fetch(pc).unwrap();
            got.push(fetched.word);
            pc = fetched.next_pc;
        }
        assert_eq!(got, m.code);
    }

    #[test]
    fn huffman_fetch_with_hostile_lengths_faults_instead_of_panicking() {
        let mut image = container_image(CompressionConfig::huffman());
        // Kraft-violating table: more length-1 codes than nibble values.
        image.huffman_lengths = vec![1; 17];
        assert_faults_everywhere(&image, 0);
    }

    #[test]
    fn compressed_fetch_uses_less_bandwidth() {
        let m = module();
        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        let mut lf = PredecodedFetcher::linear(m.code.clone());
        let mut cf = PredecodedFetcher::new(&c);
        let (mut lp, mut cp) = (0u64, 0u64);
        for _ in 0..m.len() {
            lp = lf.fetch(lp).unwrap().next_pc;
            cp = cf.fetch(cp).unwrap().next_pc;
        }
        assert!(cf.stats().nibbles_fetched < lf.stats().nibbles_fetched);
        assert_eq!(cf.stats().insns, lf.stats().insns);
        assert!(cf.stats().codewords > 0);
    }

    #[test]
    fn linear_table_has_one_slot_per_word_and_unaligned_pcs_fault() {
        let m = module();
        let mut f = PredecodedFetcher::linear(m.code.clone());
        assert_eq!(f.entries.len(), m.len());
        // Warm the slots around the unaligned PCs, then fault next to them.
        for pc in [0, 8] {
            assert_eq!(f.fetch(pc).unwrap().word, m.code[pc as usize / 8]);
        }
        let end = 8 * m.len() as u64;
        for pc in [1, 4, 7, 9, end - 4, end] {
            assert_eq!(f.fetch(pc), Err(MachineError::FetchFault { pc }));
            let mut fetch = PredecodedFetcher::linear(m.code.clone());
            let got = run_predecoded(&mut Machine::new(4096), &mut fetch, pc, 100);
            assert_eq!(got, Err(MachineError::FetchFault { pc }));
            assert_eq!(fetch.cached_items(), 0);
        }
        assert_eq!((f.stats().insns, f.cached_items()), (2, 2));
    }

    #[test]
    fn fetch_fault_on_garbage_pc() {
        let image = container_image(CompressionConfig::nibble_aligned());
        for pc in [2 * image.image.len() as u64 + 10, 1 << 40, u64::MAX] {
            assert_faults_everywhere(&image, pc);
        }
    }
}
