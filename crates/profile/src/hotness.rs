//! Hot/cold partitioning: turning a [`Profile`] into a block-aligned
//! compression-exemption mask.
//!
//! The paper's suggested mitigation — "one could leave frequently executed
//! code uncompressed" (§5) — needs a definition of *frequently*. Two
//! policies are provided: an absolute execution-weight threshold, and the
//! usual profile-guided formulation of covering the top K% of dynamic
//! execution with the fewest (hottest) blocks.

use codense_core::telemetry;

use crate::artifact::Profile;

/// How blocks are classified as hot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HotnessPolicy {
    /// A block is hot iff its dynamic weight (instructions executed inside
    /// it) is at least this value. `Threshold(0)` marks everything hot;
    /// any positive threshold leaves never-executed code cold.
    Threshold(u64),
    /// The smallest set of hottest blocks covering at least this fraction
    /// of total dynamic execution (ties broken by program order). `0.0`
    /// marks nothing hot, `1.0` marks exactly the executed blocks hot.
    TopCoverage(f64),
}

/// A computed hot/cold partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotMask {
    /// Per-block hotness, parallel to [`Profile::blocks`].
    pub hot_blocks: Vec<bool>,
    /// Per-instruction exemption mask for
    /// `codense_core::Compressor::compress_masked`.
    pub exempt: Vec<bool>,
}

impl HotMask {
    /// Number of hot blocks.
    pub fn hot_block_count(&self) -> usize {
        self.hot_blocks.iter().filter(|&&h| h).count()
    }

    /// Number of exempted (hot) instructions.
    pub fn exempt_insn_count(&self) -> usize {
        self.exempt.iter().filter(|&&h| h).count()
    }
}

/// Applies a policy to a profile.
pub fn hot_mask(profile: &Profile, policy: HotnessPolicy) -> HotMask {
    let mut hot_blocks = vec![false; profile.blocks.len()];
    match policy {
        HotnessPolicy::Threshold(t) => {
            for (i, b) in profile.blocks.iter().enumerate() {
                hot_blocks[i] = b.weight >= t;
            }
        }
        HotnessPolicy::TopCoverage(frac) => {
            let total = profile.total_weight();
            let target = (frac.clamp(0.0, 1.0) * total as f64).ceil() as u64;
            // Hottest first; program order among equals keeps this
            // deterministic.
            let mut order: Vec<usize> =
                (0..profile.blocks.len()).filter(|&i| profile.blocks[i].weight > 0).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(profile.blocks[i].weight), i));
            let mut covered = 0u64;
            for i in order {
                if covered >= target {
                    break;
                }
                hot_blocks[i] = true;
                covered += profile.blocks[i].weight;
            }
        }
    }
    let mut exempt = vec![false; profile.insns];
    for (i, b) in profile.blocks.iter().enumerate() {
        if hot_blocks[i] {
            exempt[b.start..b.end].iter_mut().for_each(|e| *e = true);
        }
    }
    let mask = HotMask { hot_blocks, exempt };
    telemetry::HYBRID_HOT_BLOCKS.add(mask.hot_block_count() as u64);
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::BlockStat;
    use codense_core::EncodingKind;

    fn profile(weights: &[u64]) -> Profile {
        let blocks: Vec<BlockStat> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| BlockStat { start: 2 * i, end: 2 * i + 2, entries: w / 2, weight: w })
            .collect();
        Profile {
            bench: "synthetic".into(),
            encoding: EncodingKind::NibbleAligned,
            insns: 2 * weights.len(),
            steps: weights.iter().sum(),
            exit: 0,
            counts: weights.iter().flat_map(|&w| [w / 2, w - w / 2]).collect(),
            blocks,
        }
    }

    #[test]
    fn threshold_zero_is_all_hot() {
        let p = profile(&[5, 0, 9]);
        let m = hot_mask(&p, HotnessPolicy::Threshold(0));
        assert_eq!(m.hot_block_count(), 3);
        assert!(m.exempt.iter().all(|&e| e));
    }

    #[test]
    fn threshold_splits_on_weight() {
        let p = profile(&[5, 0, 9]);
        let m = hot_mask(&p, HotnessPolicy::Threshold(6));
        assert_eq!(m.hot_blocks, vec![false, false, true]);
        assert_eq!(m.exempt, vec![false, false, false, false, true, true]);
    }

    #[test]
    fn coverage_extremes() {
        let p = profile(&[5, 0, 9]);
        let none = hot_mask(&p, HotnessPolicy::TopCoverage(0.0));
        assert_eq!(none.hot_block_count(), 0);
        let all = hot_mask(&p, HotnessPolicy::TopCoverage(1.0));
        // Full coverage marks exactly the executed blocks; never-executed
        // code stays cold.
        assert_eq!(all.hot_blocks, vec![true, false, true]);
    }

    #[test]
    fn coverage_takes_hottest_first() {
        let p = profile(&[5, 0, 9]);
        // 9/14 ≈ 64% — the single hottest block suffices for 60%.
        let m = hot_mask(&p, HotnessPolicy::TopCoverage(0.60));
        assert_eq!(m.hot_blocks, vec![false, false, true]);
    }

    #[test]
    fn empty_profile_yields_empty_mask() {
        let p = profile(&[]);
        for policy in [HotnessPolicy::Threshold(1), HotnessPolicy::TopCoverage(0.5)] {
            let m = hot_mask(&p, policy);
            assert!(m.hot_blocks.is_empty());
            assert!(m.exempt.is_empty());
        }
    }
}
