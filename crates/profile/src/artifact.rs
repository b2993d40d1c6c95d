//! The [`Profile`] artifact: what the execution profiler measures, and its
//! deterministic schema-1 JSON rendering.
//!
//! The artifact carries only scheduling-invariant data — execution counts
//! from the profile's native run and the fetch-path event totals of
//! [`crate::fetch_events`], both deterministic VM runs — so the rendered
//! JSON is byte-identical at any `--jobs` value (`scripts/verify.sh` pins
//! this with a byte comparison between `--jobs 1` and `--jobs 8`).

use codense_core::EncodingKind;

/// Execution statistics of one basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStat {
    /// Index of the block's first instruction.
    pub start: usize,
    /// One past the block's last instruction.
    pub end: usize,
    /// Times control entered the block (executions of its first insn).
    pub entries: u64,
    /// Total instructions executed inside the block (the hotness measure —
    /// blocks can be partially executed when they contain the halting `sc`).
    pub weight: u64,
}

/// Fetch-path event totals of a reference compressed run under the
/// profiled encoding ([`crate::fetch_events`]). The artifact's native
/// fetch count, `linear_insns`, is the profile's `steps`: a completed
/// linear run fetches each executed instruction once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchEvents {
    /// Escape decodes: uncompressed instructions parsed out of the
    /// compressed stream behind an escape prefix.
    pub escapes: u64,
    /// Codeword expansions (dictionary accesses).
    pub codewords: u64,
    /// Instructions delivered out of the dictionary expansion buffer.
    pub expanded_insns: u64,
    /// Nibbles fetched from compressed program memory.
    pub nibbles: u64,
    /// Nibble-PC realignments: control transfers landing mid-word in the
    /// packed stream.
    pub realigns: u64,
}

/// A complete execution profile of one benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Benchmark name.
    pub bench: String,
    /// The encoding the profile was collected for.
    pub encoding: EncodingKind,
    /// Static instruction count of the module.
    pub insns: usize,
    /// Dynamic instructions executed by the native reference run.
    pub steps: u64,
    /// Exit code of the reference run (must match the kernel's expectation).
    pub exit: u32,
    /// Per-instruction execution counts (`counts[i]` = executions of
    /// original instruction `i`; dense, zero for never-executed code).
    pub counts: Vec<u64>,
    /// Per-basic-block statistics, in program order.
    pub blocks: Vec<BlockStat>,
}

impl Profile {
    /// Total dynamic weight across blocks (equals [`Profile::steps`]).
    pub fn total_weight(&self) -> u64 {
        self.blocks.iter().map(|b| b.weight).sum()
    }
}

/// Renders profiles, each with its fetch-path event totals, as the
/// schema-1 artifact: sorted keys, fixed indentation, per-instruction
/// counts as sparse `[index, count]` pairs.
pub fn render_profiles_json(profiles: &[(Profile, FetchEvents)], encoding: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benches\": [\n");
    for (pi, (p, f)) in profiles.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"bench\": \"{}\",\n", p.bench));
        out.push_str("      \"blocks\": [\n");
        for (bi, b) in p.blocks.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"end\": {}, \"entries\": {}, \"start\": {}, \"weight\": {} }}{}\n",
                b.end,
                b.entries,
                b.start,
                b.weight,
                if bi + 1 < p.blocks.len() { "," } else { "" }
            ));
        }
        out.push_str("      ],\n");
        let nonzero: Vec<String> = p
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| format!("[{i}, {c}]"))
            .collect();
        out.push_str(&format!("      \"counts\": [{}],\n", nonzero.join(", ")));
        out.push_str(&format!("      \"exit\": {},\n", p.exit));
        out.push_str(&format!(
            "      \"fetch\": {{ \"codewords\": {}, \"escapes\": {}, \"expanded_insns\": {}, \
             \"linear_insns\": {}, \"nibbles\": {}, \"realigns\": {} }},\n",
            f.codewords, f.escapes, f.expanded_insns, p.steps, f.nibbles, f.realigns
        ));
        out.push_str(&format!("      \"insns\": {},\n", p.insns));
        out.push_str(&format!("      \"steps\": {}\n", p.steps));
        out.push_str(&format!("    }}{}\n", if pi + 1 < profiles.len() { "," } else { "" }));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"encoding\": \"{encoding}\",\n"));
    out.push_str("  \"schema\": 1\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile {
            bench: "t".into(),
            insns: 4,
            steps: 7,
            exit: 3,
            counts: vec![1, 3, 3, 0],
            blocks: vec![
                BlockStat { start: 0, end: 1, entries: 1, weight: 1 },
                BlockStat { start: 1, end: 4, entries: 3, weight: 6 },
            ],
            encoding: EncodingKind::NibbleAligned,
        }
    }

    #[test]
    fn rendering_is_deterministic_and_sparse() {
        let p = vec![(sample(), FetchEvents::default())];
        let a = render_profiles_json(&p, "nibble");
        let b = render_profiles_json(&p, "nibble");
        assert_eq!(a, b);
        assert!(a.contains("\"counts\": [[0, 1], [1, 3], [2, 3]]"), "{a}");
        assert!(a.contains("\"schema\": 1"));
        assert!(a.contains("\"encoding\": \"nibble\""));
        assert!(a.contains("\"linear_insns\": 7,"), "{a}");
    }

    #[test]
    fn total_weight_matches_steps() {
        assert_eq!(sample().total_weight(), 7);
    }
}
