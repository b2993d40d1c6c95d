#![warn(missing_docs)]

//! Instruction-cache simulation: the performance side of code compression.
//!
//! The reproduced paper motivates compression partly through the memory
//! system ("Reducing program size is one way to reduce instruction cache
//! misses and achieve higher performance", §1, citing [Chen97b]) and lists
//! performance exploration as future work (§5). This crate provides that
//! substrate: a set-associative I-cache model ([`Cache`]) fed with the
//! program-memory references a run makes, as it makes them —
//! [`Cache::access_nibbles`] takes the `(pc, nibbles)` pairs that
//! `codense_vm::run_predecoded_with` observes — so compressed and
//! uncompressed executions of the same kernel can be compared
//! miss-for-miss without recording a trace.
//!
//! A compressed program touches fewer distinct bytes for the same executed
//! instructions, so at equal cache size its miss count can only shrink —
//! measured, not assumed, by `codense-experiments`' `cache` exhibit.
//!
//! # Example
//!
//! ```
//! use codense_cache::{Cache, CacheConfig};
//!
//! let mut cache = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 16, ways: 2 });
//! assert!(!cache.access(0));       // cold miss
//! assert!(cache.access(4));        // same line: hit
//! assert!(!cache.access(1 << 20)); // different line: miss
//! assert_eq!(cache.finish().misses, 2);
//! ```

use codense_core::telemetry;

/// Cache geometry. All three parameters must be powers of two and
/// `size_bytes >= line_bytes * ways`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (1 = direct-mapped).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line-granular accesses.
    pub accesses: u64,
    /// Misses (including cold misses).
    pub misses: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// Counts stay local while the cache runs; [`finish`](Self::finish)
/// publishes them to telemetry once per scored run.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[s]` holds up to `ways` tags, most recently used last.
    sets: Vec<Vec<u64>>,
    /// The line of the latest access: resident, and already its set's most
    /// recently used, so touching it again changes nothing but the counts.
    last: Option<u64>,
    stats: CacheStats,
    evictions: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not power-of-two or the capacity is smaller
    /// than one line per way.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.size_bytes.is_power_of_two(), "capacity must be a power of two");
        assert!(config.ways >= 1 && config.ways.is_power_of_two(), "ways must be a power of two");
        assert!(
            config.size_bytes >= config.line_bytes * config.ways,
            "capacity below one line per way"
        );
        Cache {
            config,
            sets: vec![Vec::with_capacity(config.ways); config.sets()],
            last: None,
            stats: CacheStats::default(),
            evictions: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses the line containing byte `addr`. Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.config.line_bytes.trailing_zeros();
        self.stats.accesses += 1;
        if self.last == Some(line) {
            return true;
        }
        self.last = Some(line);
        // Power-of-two set count: the modulus is a mask.
        let set = line as usize & (self.sets.len() - 1);
        let tags = &mut self.sets[set];
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            tags[pos..].rotate_left(1);
            true
        } else {
            self.stats.misses += 1;
            if tags.len() == self.config.ways {
                tags.remove(0);
                self.evictions += 1;
            }
            tags.push(line);
            false
        }
    }

    /// Accesses every line overlapping the byte range `[addr, addr + len)`.
    pub fn access_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let lb = self.config.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + len - 1) / lb;
        for line in first..=last {
            self.access(line * lb);
        }
    }

    /// Accesses the program memory behind one fetch: `nibbles` nibbles from
    /// nibble address `nibble_addr`, halved to bytes and rounded out to
    /// whole bytes. A zero-nibble fetch (an instruction drained from the
    /// dictionary expansion buffer) touches no memory.
    pub fn access_nibbles(&mut self, nibble_addr: u64, nibbles: u64) {
        if nibbles == 0 {
            return;
        }
        let start = nibble_addr / 2;
        let end = (nibble_addr + nibbles).div_ceil(2);
        self.access_range(start, end - start);
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Ends a scored run: adds its counts to the `cache.*` telemetry
    /// counters (one `cache.replays`) and returns them.
    pub fn finish(self) -> CacheStats {
        let s = self.stats;
        telemetry::CACHE_REPLAYS.inc();
        telemetry::CACHE_ACCESSES.add(s.accesses);
        telemetry::CACHE_HITS.add(s.accesses - s.misses);
        telemetry::CACHE_MISSES.add(s.misses);
        telemetry::CACHE_EVICTIONS.add(self.evictions);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct(size: usize, line: usize) -> Cache {
        Cache::new(CacheConfig { size_bytes: size, line_bytes: line, ways: 1 })
    }

    #[test]
    fn hits_within_line() {
        let mut c = direct(256, 16);
        assert!(!c.access(32));
        for a in 32..48 {
            assert!(c.access(a), "offset {a}");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 17);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = direct(64, 16); // 4 sets
        assert!(!c.access(0));
        assert!(!c.access(64)); // same set, different tag -> evicts
        assert!(!c.access(0)); // conflict miss
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn associativity_absorbs_conflicts() {
        let mut c = Cache::new(CacheConfig { size_bytes: 64, line_bytes: 16, ways: 2 });
        assert!(!c.access(0));
        assert!(!c.access(64));
        assert!(c.access(0), "2-way keeps both lines");
        assert!(c.access(64));
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(CacheConfig { size_bytes: 32, line_bytes: 16, ways: 2 });
        c.access(0); // A
        c.access(16); // B
        c.access(0); // touch A -> B is LRU
        c.access(32); // C evicts B
        assert!(c.access(0), "A still resident");
        assert!(!c.access(16), "B evicted");
    }

    #[test]
    fn access_range_touches_all_lines() {
        let mut c = direct(256, 16);
        c.access_range(8, 24); // spans lines 0 and 1
        assert_eq!(c.stats().accesses, 2);
        c.access_range(100, 0);
        assert_eq!(c.stats().accesses, 2, "empty range is free");
    }

    #[test]
    fn nibble_fetches_round_out_to_bytes() {
        let mut c = direct(256, 16);
        c.access_nibbles(0, 4);
        c.access_nibbles(0, 0); // buffered expansion: no memory traffic
        c.access_nibbles(4, 9);
        // 0..2 bytes and 2..7 bytes: both in line 0.
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
        // Nibbles 31..33 straddle bytes 15 and 16: two lines.
        c.access_nibbles(31, 2);
        assert_eq!(c.stats(), CacheStats { accesses: 4, misses: 2 });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        Cache::new(CacheConfig { size_bytes: 100, line_bytes: 16, ways: 1 });
    }
}
