//! Decision-tree decomposition of the search space (§3.2).
//!
//! For a device group of size `G` (the per-stage group after PP partitioning
//! divides the cluster), the paper constructs decision trees under three
//! rules:
//!
//! 1. a tree's height is the number of available paradigms;
//! 2. no paradigm appears on two levels;
//! 3. non-leaf degrees come from `{2, 4, 8, …}`.
//!
//! Each tree is therefore an ordered factorisation of `G` into distinct-
//! paradigm power-of-two axes — exactly an [`IntraStageStrategy`]. For
//! 8 GPUs this yields 21 + 9 + 3 + 1 = **34** candidates across PP degrees
//! 1/2/4/8, and *Takeaway #3* (never mix DP and SDP) prunes them to **22**
//! — both counts asserted in tests, matching Figure 2.

use crate::hybrid::{IntraStageStrategy, Paradigm, StrategyAxis};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A decision tree from Figure 2: an ordered level list over a device group.
///
/// The root level is the outermost axis. A tree with no levels is the
/// single-device leaf.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTree {
    group_size: usize,
    levels: Vec<StrategyAxis>,
}

impl DecisionTree {
    /// The strategy this tree denotes.
    pub fn strategy(&self) -> IntraStageStrategy {
        IntraStageStrategy::new(self.levels.clone()).expect("trees are valid by construction")
    }

    /// Number of leaf devices.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The levels, root (outermost) first.
    pub fn levels(&self) -> &[StrategyAxis] {
        &self.levels
    }

    /// Tree height (number of applied paradigms).
    pub fn height(&self) -> usize {
        self.levels.len()
    }
}

impl fmt::Display for DecisionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tree[{} leaves: {}]", self.group_size, self.strategy())
    }
}

impl DecisionTree {
    /// An ASCII rendering in the spirit of Figure 2: one indented branch
    /// per level, leaves are device slots.
    ///
    /// ```
    /// use galvatron_strategy::DecisionTreeBuilder;
    /// let tree = &DecisionTreeBuilder::new(4).trees()[0];
    /// println!("{}", tree.render());
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{} ({} leaves)\n", self.strategy(), self.group_size);
        let mut indent = String::new();
        for level in &self.levels {
            out.push_str(&format!(
                "{indent}└─ {} ×{}\n",
                level.paradigm, level.degree
            ));
            indent.push_str("   ");
        }
        out.push_str(&format!("{indent}└─ GPU ×{}\n", 1));
        out
    }
}

/// The candidate strategy set for one device-group size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrategySet {
    group_size: usize,
    strategies: Vec<IntraStageStrategy>,
}

impl StrategySet {
    /// Build from an explicit list (all strategies must span `group_size`).
    pub fn new(group_size: usize, strategies: Vec<IntraStageStrategy>) -> Self {
        debug_assert!(strategies.iter().all(|s| s.total_degree() == group_size));
        StrategySet {
            group_size,
            strategies,
        }
    }

    /// The device-group size every member spans.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The candidate strategies.
    pub fn strategies(&self) -> &[IntraStageStrategy] {
        &self.strategies
    }

    /// Number of candidates (the `|S|` of the complexity analysis).
    pub fn len(&self) -> usize {
        self.strategies.len()
    }

    /// True when no strategy is available (never the case for valid sizes).
    pub fn is_empty(&self) -> bool {
        self.strategies.is_empty()
    }

    /// Restrict to strategies drawn from `paradigms` only — the
    /// dimension-limited automatic baselines (Galvatron DP+TP uses
    /// `[Data, Tensor]`).
    pub fn restrict(&self, paradigms: &[Paradigm]) -> StrategySet {
        let strategies = self
            .strategies
            .iter()
            .filter(|s| s.axes().iter().all(|a| paradigms.contains(&a.paradigm)))
            .cloned()
            .collect();
        StrategySet {
            group_size: self.group_size,
            strategies,
        }
    }

    /// Iterate.
    pub fn iter(&self) -> impl Iterator<Item = &IntraStageStrategy> {
        self.strategies.iter()
    }
}

/// Builds the decision trees (and thus candidate strategies) for a device
/// group, applying the paper's construction rules and optional pruning.
///
/// ```
/// use galvatron_strategy::DecisionTreeBuilder;
///
/// // Figure 2: the 8-leaf trees denote 11 pruned hybrid strategies ...
/// let set = DecisionTreeBuilder::new(8).strategies();
/// assert_eq!(set.len(), 11);
/// // ... and 21 before Takeaway #3 removes the DP⋅SDP mixtures.
/// let raw = DecisionTreeBuilder::new(8).with_takeaway3(false).strategies();
/// assert_eq!(raw.len(), 21);
/// assert!(raw.iter().any(|s| s.mixes_dp_and_sdp()));
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTreeBuilder {
    group_size: usize,
    paradigms: Vec<Paradigm>,
    prune_dp_sdp_mix: bool,
}

impl DecisionTreeBuilder {
    /// A builder over all three intra-stage paradigms with Takeaway #3
    /// pruning enabled — Galvatron's default configuration.
    pub fn new(group_size: usize) -> Self {
        assert!(
            group_size >= 1 && group_size.is_power_of_two(),
            "device groups are powers of two (Takeaway #2)"
        );
        DecisionTreeBuilder {
            group_size,
            paradigms: Paradigm::ALL.to_vec(),
            prune_dp_sdp_mix: true,
        }
    }

    /// Restrict the available paradigms (for DP+TP / DP+PP baselines and
    /// ablations).
    pub fn with_paradigms(mut self, paradigms: &[Paradigm]) -> Self {
        self.paradigms = paradigms.to_vec();
        self
    }

    /// Enable/disable Takeaway #3 pruning (disabled = the 34-candidate raw
    /// space; priced by the `planner_sweep` ablation rows).
    pub fn with_takeaway3(mut self, enabled: bool) -> Self {
        self.prune_dp_sdp_mix = enabled;
        self
    }

    /// Enumerate all decision trees for the group.
    pub fn trees(&self) -> Vec<DecisionTree> {
        let mut out = Vec::new();
        let mut levels = Vec::new();
        self.recurse(self.group_size, &mut levels, &mut out);
        out
    }

    /// Enumerate the candidate strategy set (trees projected to strategies).
    pub fn strategies(&self) -> StrategySet {
        let strategies = self.trees().into_iter().map(|t| t.strategy()).collect();
        StrategySet::new(self.group_size, strategies)
    }

    fn recurse(
        &self,
        remaining: usize,
        levels: &mut Vec<StrategyAxis>,
        out: &mut Vec<DecisionTree>,
    ) {
        if remaining == 1 {
            if self.prune_dp_sdp_mix {
                let has_dp = levels.iter().any(|a| a.paradigm == Paradigm::Data);
                let has_sdp = levels.iter().any(|a| a.paradigm == Paradigm::ShardedData);
                if has_dp && has_sdp {
                    return;
                }
            }
            out.push(DecisionTree {
                group_size: self.group_size,
                levels: levels.clone(),
            });
            return;
        }
        for &paradigm in &self.paradigms {
            if levels.iter().any(|a| a.paradigm == paradigm) {
                continue; // rule 2: no paradigm repeats across levels
            }
            // Rule 3: level degrees from {2, 4, 8, ...} dividing the group.
            let mut degree = 2;
            while degree <= remaining {
                levels.push(StrategyAxis::new(paradigm, degree));
                self.recurse(remaining / degree, levels, out);
                levels.pop();
                degree *= 2;
            }
        }
    }
}

/// Total candidate count across all PP degrees for an `n`-device cluster —
/// the quantity Figure 2 reports as 34 (unpruned) / 22 (pruned) for `n = 8`.
pub fn total_candidates_across_pp(n: usize, takeaway3: bool) -> usize {
    let mut total = 0;
    let mut pp = 1;
    while pp <= n {
        total += DecisionTreeBuilder::new(n / pp)
            .with_takeaway3(takeaway3)
            .strategies()
            .len();
        pp *= 2;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn paper_counts_for_8_gpus() {
        // Figure 2: "There are 22 candidate hybrid strategies for all trees
        // in total", reduced from 34 by Takeaway #3.
        assert_eq!(total_candidates_across_pp(8, false), 34);
        assert_eq!(total_candidates_across_pp(8, true), 22);
    }

    #[test]
    fn per_group_counts_for_8_gpus() {
        // PP=1 → G=8: 21 raw, 11 pruned; PP=2 → G=4: 9/7; PP=4 → G=2: 3/3;
        // PP=8 → G=1: 1/1.
        let expect = [(8usize, 21usize, 11usize), (4, 9, 7), (2, 3, 3), (1, 1, 1)];
        for (g, raw, pruned) in expect {
            assert_eq!(
                DecisionTreeBuilder::new(g)
                    .with_takeaway3(false)
                    .strategies()
                    .len(),
                raw,
                "raw G={g}"
            );
            assert_eq!(
                DecisionTreeBuilder::new(g).strategies().len(),
                pruned,
                "pruned G={g}"
            );
        }
    }

    #[test]
    fn strategies_are_unique_and_span_the_group() {
        let set = DecisionTreeBuilder::new(8).strategies();
        let mut seen = HashSet::new();
        for s in set.iter() {
            assert_eq!(s.total_degree(), 8, "{s}");
            assert!(seen.insert(s.label()), "duplicate {s}");
            assert!(!s.mixes_dp_and_sdp(), "Takeaway #3 violated by {s}");
        }
    }

    #[test]
    fn unpruned_set_contains_the_mixtures() {
        let raw = DecisionTreeBuilder::new(8)
            .with_takeaway3(false)
            .strategies();
        assert!(raw.iter().any(|s| s.mixes_dp_and_sdp()));
    }

    #[test]
    fn restriction_models_limited_dimension_baselines() {
        // Figure 4(b): DP+TP has 4 alternate strategies on 8 GPUs
        // (TP8, DP2-TP4 / TP4-DP2 count as permutations... the paper's
        // count of 4 refers to the unordered degree choices; with the
        // canonical DP-outer ordering there are exactly 4).
        let set = DecisionTreeBuilder::new(8).strategies();
        let dp_tp = set.restrict(&[Paradigm::Data, Paradigm::Tensor]);
        for s in dp_tp.iter() {
            assert!(s.sdp() == 1);
        }
        // Orderings are included, so: DP8, TP8, DP2·TP4 (2 orders),
        // DP4·TP2 (2 orders) = 6.
        assert_eq!(dp_tp.len(), 6);
        let dp_only = set.restrict(&[Paradigm::Data]);
        assert_eq!(dp_only.len(), 1);
    }

    #[test]
    fn trees_respect_construction_rules() {
        for tree in DecisionTreeBuilder::new(16).trees() {
            // Rule 1/2: height ≤ #paradigms, no repeats.
            assert!(tree.height() <= 3);
            let mut seen = HashSet::new();
            for level in tree.levels() {
                assert!(seen.insert(level.paradigm));
                assert!(level.degree.is_power_of_two() && level.degree >= 2);
            }
            // Leaves cover the group exactly.
            assert_eq!(tree.strategy().total_degree(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_groups_panic() {
        DecisionTreeBuilder::new(6);
    }

    proptest! {
        #[test]
        fn pruning_only_removes_mixtures(g in prop::sample::select(vec![1usize, 2, 4, 8, 16, 32])) {
            let raw: HashSet<String> = DecisionTreeBuilder::new(g)
                .with_takeaway3(false)
                .strategies()
                .iter()
                .map(|s| s.label())
                .collect();
            let pruned: HashSet<String> = DecisionTreeBuilder::new(g)
                .strategies()
                .iter()
                .map(|s| s.label())
                .collect();
            prop_assert!(pruned.is_subset(&raw));
            for only_raw in raw.difference(&pruned) {
                prop_assert!(only_raw.contains("DP") && only_raw.contains("SDP"),
                    "{only_raw} was pruned but is not a DP/SDP mixture");
            }
        }

        #[test]
        fn candidate_count_grows_with_group_size(k in 1usize..5) {
            let small = DecisionTreeBuilder::new(1 << k).strategies().len();
            let large = DecisionTreeBuilder::new(1 << (k + 1)).strategies().len();
            prop_assert!(large > small);
        }
    }
}
