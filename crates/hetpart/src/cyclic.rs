//! Row-based heterogeneous cyclic distribution (after Kalinov–Lastovetsky).
//!
//! Gaussian elimination shrinks its active submatrix from the top down,
//! so a contiguous block layout would idle the ranks owning early rows.
//! A cyclic layout instead *deals* rows out in small blocks so that any
//! suffix of the rows (an active submatrix) remains distributed
//! approximately proportionally to the node speeds.
//!
//! The dealing order is the greedy largest-deficit sequence: before each
//! block, the rank whose assigned share lags furthest behind its ideal
//! cumulative share `k·Cᵢ/C` receives the next block. This keeps every
//! rank's assignment within about one block of ideal on **every prefix**
//! (and hence every suffix) — a strictly stronger balance guarantee than
//! fixed per-round shares, whose rounding bias compounds with `n`.
//! (For many unequal weights the worst-case prefix deviation can exceed
//! one unit by a hair; the property tests bound it by two.)

use crate::Distribution;
use hetsim_cluster::repeat_add;
use serde::{Deserialize, Serialize};

/// Heterogeneous block-cyclic distribution of rows over ranks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CyclicDistribution {
    n: usize,
    p: usize,
    block: usize,
    /// Owner of each row, precomputed (`n` entries).
    owners: Vec<u32>,
}

impl CyclicDistribution {
    /// Builds the distribution for `n` rows over ranks with the given
    /// marked speeds, dealing `block` consecutive rows at a time.
    ///
    /// `block = 1` interleaves at single-row granularity (best balance);
    /// larger blocks trade balance for fewer, larger messages.
    ///
    /// # Panics
    /// Panics when `block` is 0, `speeds` is empty, or any speed is
    /// non-finite, negative, or all are zero.
    pub fn new(n: usize, speeds: &[f64], block: usize) -> CyclicDistribution {
        assert!(block > 0, "block size must be positive");
        assert!(!speeds.is_empty(), "need at least one rank");
        assert!(
            speeds.iter().all(|s| s.is_finite() && *s >= 0.0),
            "speeds must be finite and non-negative"
        );
        let total: f64 = speeds.iter().sum();
        assert!(total > 0.0, "at least one speed must be positive");

        let p = speeds.len();
        let fractions: Vec<f64> = speeds.iter().map(|s| s / total).collect();
        let mut assigned = vec![0u64; p];
        let mut owners = Vec::with_capacity(n);
        let mut dealt: u64 = 0;
        while owners.len() < n {
            // Largest deficit: ideal share of the next state minus what
            // the rank already holds; ties to the lower index.
            let next_total = dealt + 1;
            let mut best = usize::MAX;
            let mut best_deficit = f64::NEG_INFINITY;
            for i in 0..p {
                if fractions[i] == 0.0 {
                    continue;
                }
                let deficit = next_total as f64 * fractions[i] - assigned[i] as f64;
                if deficit > best_deficit {
                    best_deficit = deficit;
                    best = i;
                }
            }
            debug_assert!(best != usize::MAX);
            let take = block.min(n - owners.len());
            for _ in 0..take {
                owners.push(best as u32);
            }
            assigned[best] += 1;
            dealt += 1;
        }
        CyclicDistribution { n, p, block, owners }
    }

    /// Single-row dealing — the finest interleave, used by the GE kernel.
    pub fn fine(n: usize, speeds: &[f64]) -> CyclicDistribution {
        Self::new(n, speeds, 1)
    }

    /// The dealing block size.
    pub fn block_size(&self) -> usize {
        self.block
    }
}

/// Relative margin [`ClassedCyclicDeal::deal_run`] demands of a deficit
/// gap before it trusts the winner without a scan: seven orders of
/// magnitude above the few-ulp rounding (`u = 2⁻⁵³`) of the deficits.
const RUN_MARGIN: f64 = 1e-9;

/// The greedy largest-deficit deal replayed over *speed classes* in
/// O(classes) state — the ownership query behind class-aggregated GE
/// (DESIGN.md §13).
///
/// When the speed vector is a run-length sequence of equal-speed
/// classes (ranks of a class contiguous, as `ClassedCluster`
/// materializes them), the per-rank deal collapses: all members of a
/// class share one fraction bit pattern, so within a class the next
/// winner is always the lowest-index member holding the minimum count —
/// i.e. the deal serves each class round-robin from member 0. The whole
/// per-rank state therefore reduces to, per class, the rows dealt so
/// far (`dealt`), the count held by the class's current front member
/// (`front = ⌊dealt/members⌋`), and that member's index within the
/// class (`wrap = dealt mod members`).
///
/// Every float operation mirrors [`CyclicDistribution::new`] exactly:
/// the speed total is the same sequential fold (batched per run through
/// [`repeat_add`]), fractions are the same `s / total`, and the deficit
/// `t·f − count` is evaluated with the identical expression, strict `>`
/// comparison, and class-order tie-breaking — so the winner sequence is
/// bit-for-bit the per-rank one (pinned by the tests below and the
/// kernel-level equivalence suite).
#[derive(Debug, Clone)]
pub struct ClassedCyclicDeal {
    fractions: Vec<f64>,
    members: Vec<u64>,
    dealt: Vec<u64>,
    front: Vec<u64>,
    wrap: Vec<u64>,
    step: u64,
}

impl ClassedCyclicDeal {
    /// Builds the deal state for rank-order speed runs `(speed, members)`.
    ///
    /// # Panics
    /// Panics when `classes` is empty, any run is empty, or any speed is
    /// non-finite, negative, or all are zero — the same contract as
    /// [`CyclicDistribution::new`] on the expanded speed vector.
    pub fn new(classes: &[(f64, u64)]) -> ClassedCyclicDeal {
        assert!(!classes.is_empty(), "need at least one class");
        assert!(classes.iter().all(|&(_, m)| m > 0), "every class needs at least one member");
        assert!(
            classes.iter().all(|&(s, _)| s.is_finite() && s >= 0.0),
            "speeds must be finite and non-negative"
        );
        // The same left fold as `speeds.iter().sum()` over the expanded
        // vector: within a run every step adds the same value, so the
        // run collapses to one exact repeat_add hop.
        let mut total = 0.0f64;
        for &(s, m) in classes {
            total = repeat_add(total, s, m);
        }
        assert!(total > 0.0, "at least one speed must be positive");
        ClassedCyclicDeal {
            fractions: classes.iter().map(|&(s, _)| s / total).collect(),
            members: classes.iter().map(|&(_, m)| m).collect(),
            dealt: vec![0; classes.len()],
            front: vec![0; classes.len()],
            wrap: vec![0; classes.len()],
            step: 0,
        }
    }

    /// Deals the next row and returns the winning class index.
    ///
    /// The row lands on member `front_member()` of that class (its
    /// pre-deal value): each class is served round-robin from member 0.
    pub fn deal(&mut self) -> usize {
        let next_total = (self.step + 1) as f64;
        let mut best = usize::MAX;
        let mut best_deficit = f64::NEG_INFINITY;
        // Zipped iteration keeps the O(classes) scan free of bounds
        // checks (`deal_run` runs it once per run of wins).
        for (c, (&f, &front)) in self.fractions.iter().zip(self.front.iter()).enumerate() {
            if f == 0.0 {
                continue;
            }
            let deficit = next_total * f - front as f64;
            if deficit > best_deficit {
                best_deficit = deficit;
                best = c;
            }
        }
        debug_assert!(best != usize::MAX);
        self.dealt[best] += 1;
        self.wrap[best] += 1;
        if self.wrap[best] == self.members[best] {
            self.wrap[best] = 0;
            self.front[best] += 1;
        }
        self.step += 1;
        best
    }

    /// Deals a *run*: the next row, plus every following row (up to
    /// `limit` rows in all) that provably goes to the same class.
    /// Returns `(class, rows)` with `1 ≤ rows ≤ limit`, leaving the
    /// state exactly where `rows` calls of [`Self::deal`] would — and
    /// those calls would all have returned `class`.
    ///
    /// The winner comes in long runs: a class keeps winning until its
    /// front member's count moves (after `members` wins) or another
    /// class's deficit line overtakes it, so a 5·10⁵-row deal over 8
    /// HEET classes is ~50 runs. After one exact scan picks the class
    /// `c`, the run extends while, for every other dealing class `d`,
    /// the deficit gap `(t·f_c − front_c) − (t·f_d − front_d)` clears
    /// [`RUN_MARGIN`] times the magnitudes involved. Both deficits are
    /// a product and a difference, so each rounds by at most a few
    /// ulps of those magnitudes — far inside the margin — and `c`'s
    /// computed deficit is then strictly the largest, whatever the tie
    /// rule. The gap and the margin are affine in `t`, so checking the
    /// run's first and last steps covers every step between.
    ///
    /// # Panics
    /// Panics when `limit` is 0.
    pub fn deal_run(&mut self, limit: u64) -> (usize, u64) {
        assert!(limit > 0, "a run deals at least one row");
        let class = self.deal();
        // Wins left before `class`'s front count moves (the deficits
        // use it, so a run must not cross that step).
        let mut extra = (limit - 1).min(self.members[class] - self.wrap[class]);
        let first = (self.step + 1) as f64;
        for d in 0..self.fractions.len() {
            if extra == 0 {
                break;
            }
            if d == class || self.fractions[d] == 0.0 {
                continue;
            }
            if !self.outdeals(class, d, first) {
                extra = 0;
                break;
            }
            if !self.outdeals(class, d, first + (extra - 1) as f64) {
                // Bisect for the last clearing step: 1 clears, `extra`
                // does not.
                let (mut lo, mut hi) = (1u64, extra);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if self.outdeals(class, d, first + (mid - 1) as f64) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                extra = lo;
            }
        }
        self.dealt[class] += extra;
        self.wrap[class] += extra;
        if self.wrap[class] == self.members[class] {
            self.wrap[class] = 0;
            self.front[class] += 1;
        }
        self.step += extra;
        (class, 1 + extra)
    }

    /// Whether class `c`'s deficit provably beats class `d`'s at deal
    /// step `t` (see [`Self::deal_run`]).
    fn outdeals(&self, c: usize, d: usize, t: f64) -> bool {
        let (fc, fd) = (self.fractions[c], self.fractions[d]);
        let (bc, bd) = (self.front[c] as f64, self.front[d] as f64);
        let gap = (t * fc - bc) - (t * fd - bd);
        gap > RUN_MARGIN * (1.0 + t * (fc + fd) + bc + bd)
    }

    /// Rows dealt so far, per class.
    pub fn class_counts(&self) -> &[u64] {
        &self.dealt
    }

    /// Member index (within `class`) that receives the class's next row.
    pub fn front_member(&self, class: usize) -> u64 {
        self.wrap[class]
    }

    /// Total rows dealt so far.
    pub fn rows_dealt(&self) -> u64 {
        self.step
    }

    /// Per-class row totals after dealing `n` rows — the classed
    /// equivalent of aggregating [`CyclicDistribution::fine`] counts,
    /// in O(runs) memory.
    pub fn counts(n: usize, classes: &[(f64, u64)]) -> Vec<u64> {
        let mut deal = ClassedCyclicDeal::new(classes);
        while deal.step < n as u64 {
            deal.deal_run(n as u64 - deal.step);
        }
        deal.dealt
    }
}

impl Distribution for CyclicDistribution {
    fn n(&self) -> usize {
        self.n
    }

    fn p(&self) -> usize {
        self.p
    }

    fn owner(&self, row: usize) -> usize {
        assert!(row < self.n, "row {row} out of range (n = {})", self.n);
        self.owners[row] as usize
    }

    fn rows_of(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.p, "rank {rank} out of range (p = {})", self.p);
        self.owners
            .iter()
            .enumerate()
            .filter(|(_, &o)| o as usize == rank)
            .map(|(row, _)| row)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::check_conformance;

    #[test]
    fn counts_follow_speeds() {
        let d = CyclicDistribution::fine(100, &[90.0, 50.0, 110.0]);
        let counts = d.counts();
        assert_eq!(counts.iter().sum::<usize>(), 100);
        // Within one block of the ideal 36 / 20 / 44 split.
        assert!((counts[0] as i64 - 36).unsigned_abs() <= 1);
        assert!((counts[1] as i64 - 20).unsigned_abs() <= 1);
        assert!((counts[2] as i64 - 44).unsigned_abs() <= 1);
        check_conformance(&d);
    }

    #[test]
    fn equal_speeds_deal_round_robin() {
        let d = CyclicDistribution::fine(12, &[1.0, 1.0]);
        assert_eq!(d.rows_of(0), vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(d.rows_of(1), vec![1, 3, 5, 7, 9, 11]);
        check_conformance(&d);
    }

    #[test]
    fn blocks_keep_consecutive_rows_together() {
        let d = CyclicDistribution::new(12, &[1.0, 1.0], 3);
        assert_eq!(d.rows_of(0), vec![0, 1, 2, 6, 7, 8]);
        assert_eq!(d.rows_of(1), vec![3, 4, 5, 9, 10, 11]);
        assert_eq!(d.block_size(), 3);
        check_conformance(&d);
    }

    #[test]
    fn every_prefix_is_balanced() {
        // The greedy-deficit guarantee: every prefix of the dealt blocks
        // is within one block of proportional for every rank.
        let speeds = [90.0, 50.0, 110.0, 50.0];
        let total: f64 = speeds.iter().sum();
        let d = CyclicDistribution::fine(400, &speeds);
        let mut counts = vec![0usize; speeds.len()];
        for row in 0..400 {
            counts[d.owner(row)] += 1;
            let k = (row + 1) as f64;
            for (i, &c) in counts.iter().enumerate() {
                let ideal = k * speeds[i] / total;
                assert!(
                    (c as f64 - ideal).abs() <= 1.0 + 1e-9,
                    "prefix {k}, rank {i}: {c} vs ideal {ideal:.2}"
                );
            }
        }
    }

    #[test]
    fn suffix_stays_approximately_proportional() {
        // The property that motivates cyclic layout for GE: any suffix of
        // rows (active submatrix) is distributed ≈ proportionally.
        let speeds = [90.0, 50.0, 110.0, 50.0];
        let n = 400;
        let d = CyclicDistribution::fine(n, &speeds);
        let total: f64 = speeds.iter().sum();
        for start in [0usize, 100, 200, 300, 390] {
            let remaining = n - start;
            for (rank, &speed) in speeds.iter().enumerate() {
                let owned = d.rows_of(rank).iter().filter(|&&r| r >= start).count();
                let ideal = remaining as f64 * speed / total;
                assert!(
                    (owned as f64 - ideal).abs() <= 2.0 + 1e-9,
                    "suffix {start}, rank {rank}: owned {owned}, ideal {ideal:.1}"
                );
            }
        }
    }

    #[test]
    fn extreme_heterogeneity_still_serves_slow_rank() {
        let d = CyclicDistribution::fine(1001, &[1000.0, 1.0]);
        let slow_rows = d.rows_of(1);
        assert_eq!(slow_rows.len(), 1);
        check_conformance(&d);
    }

    #[test]
    fn zero_speed_rank_gets_nothing() {
        let d = CyclicDistribution::fine(50, &[1.0, 0.0, 1.0]);
        assert!(d.rows_of(1).is_empty());
        check_conformance(&d);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_rejected() {
        CyclicDistribution::new(10, &[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "at least one speed must be positive")]
    fn all_zero_speeds_rejected() {
        CyclicDistribution::fine(10, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_panics() {
        CyclicDistribution::fine(10, &[1.0, 1.0]).owner(10);
    }

    #[test]
    fn partial_last_block_is_truncated() {
        let d = CyclicDistribution::new(7, &[1.0, 1.0], 3);
        assert_eq!(d.counts().iter().sum::<usize>(), 7);
        check_conformance(&d);
    }

    #[test]
    fn determinism() {
        let speeds = [90.0, 50.0, 110.0];
        let a = CyclicDistribution::new(313, &speeds, 2);
        let b = CyclicDistribution::new(313, &speeds, 2);
        assert_eq!(a, b);
    }

    /// Expands class runs to the per-rank speed vector.
    fn expand(classes: &[(f64, u64)]) -> Vec<f64> {
        classes.iter().flat_map(|&(s, m)| std::iter::repeat_n(s, m as usize)).collect()
    }

    /// Checks the classed deal reproduces the per-rank deal on `n` rows:
    /// the winner-class sequence, the within-class round-robin member,
    /// and the final counts must all match exactly.
    fn check_classed_mirrors_fine(n: usize, classes: &[(f64, u64)]) {
        let speeds = expand(classes);
        let fine = CyclicDistribution::fine(n, &speeds);
        let base: Vec<usize> = classes
            .iter()
            .scan(0usize, |acc, &(_, m)| {
                let b = *acc;
                *acc += m as usize;
                Some(b)
            })
            .collect();
        let mut deal = ClassedCyclicDeal::new(classes);
        for row in 0..n {
            let owner = fine.owner(row);
            let class = base.iter().rposition(|&b| b <= owner).unwrap();
            let member = deal.front_member(class);
            assert_eq!(deal.deal(), class, "row {row}: class ({classes:?})");
            assert_eq!(base[class] + member as usize, owner, "row {row}: member ({classes:?})");
        }
        let per_class: Vec<u64> = base
            .iter()
            .zip(classes)
            .map(|(&b, &(_, m))| (b..b + m as usize).map(|r| fine.counts()[r] as u64).sum())
            .collect();
        assert_eq!(deal.class_counts(), per_class, "counts ({classes:?})");
        assert_eq!(deal.rows_dealt(), n as u64);
    }

    #[test]
    fn classed_deal_mirrors_fine_on_many_shapes() {
        for (n, classes) in [
            (0usize, vec![(50.0, 3u64)]),
            (1, vec![(50.0, 1)]),
            (17, vec![(90.0, 2), (50.0, 1), (110.0, 3)]),
            (129, vec![(108.0, 1), (72.0, 3), (45.0, 4)]),
            (313, vec![(1000.0, 1), (1.0, 5)]),
            (100, vec![(1.0, 2), (0.0, 3), (1.0, 2)]),
            // Equal speeds across distinct classes: the cross-class tie
            // must break to the lower class, exactly as the rank scan.
            (97, vec![(64.0, 2), (64.0, 3), (32.0, 1)]),
            (64, vec![(45.0, 8)]),
        ] {
            check_classed_mirrors_fine(n, &classes);
        }
    }

    /// Checks `deal_run` expands to exactly the `deal` sequence over
    /// `n` rows, with runs capped at `limit` rows; returns the number
    /// of runs taken.
    fn check_runs_mirror_deals(n: u64, limit: u64, classes: &[(f64, u64)]) -> usize {
        let mut rows = ClassedCyclicDeal::new(classes);
        let mut runs = ClassedCyclicDeal::new(classes);
        let mut taken = 0;
        while runs.rows_dealt() < n {
            let (class, len) = runs.deal_run(limit.min(n - runs.rows_dealt()));
            assert!(len >= 1 && len <= limit, "run of {len} rows past limit {limit}");
            for _ in 0..len {
                assert_eq!(
                    rows.deal(),
                    class,
                    "row {} ({classes:?}, limit {limit})",
                    rows.rows_dealt()
                );
            }
            assert_eq!(runs.class_counts(), rows.class_counts());
            taken += 1;
        }
        for c in 0..classes.len() {
            assert_eq!(runs.front_member(c), rows.front_member(c));
        }
        assert_eq!(ClassedCyclicDeal::counts(n as usize, classes), rows.class_counts());
        taken
    }

    #[test]
    fn runs_expand_to_the_row_deal_on_many_shapes() {
        for classes in [
            vec![(50.0, 3u64)],
            vec![(50.0, 1)],
            vec![(90.0, 2), (50.0, 1), (110.0, 3)],
            vec![(108.0, 1), (72.0, 3), (45.0, 4)],
            vec![(1000.0, 1), (1.0, 5)],
            vec![(1.0, 2), (0.0, 3), (1.0, 2)],
            vec![(64.0, 2), (64.0, 3), (32.0, 1)],
            vec![(90.0, 1), (45.0, 1)],
            vec![(100.0, 1), (50.0, 2), (25.0, 1), (12.5, 3)],
            vec![(108.0, 2778), (97.7, 5556), (87.4, 8333), (45.0, 22222)],
        ] {
            for limit in [1u64, 2, 7, u64::MAX] {
                check_runs_mirror_deals(2_000, limit, &classes);
            }
        }
    }

    #[test]
    fn hetero_classes_deal_in_few_long_runs() {
        // Eight tiers of 10³–10⁴ members: each class wins about a
        // member count's worth of rows at a time, so 2·10⁵ rows take a
        // few hundred runs, not 2·10⁵ scans.
        let classes: Vec<(f64, u64)> =
            (0..8u64).map(|j| (108.0 - 9.0 * j as f64, 1_000 * (j + 1))).collect();
        let runs = check_runs_mirror_deals(200_000, u64::MAX, &classes);
        assert!(runs < 500, "{runs} runs");
    }

    #[test]
    #[should_panic(expected = "a run deals at least one row")]
    fn empty_runs_rejected() {
        ClassedCyclicDeal::new(&[(50.0, 2)]).deal_run(0);
    }

    #[test]
    fn classed_total_matches_sequential_sum() {
        // The fraction denominators must share bits with the per-rank
        // fold; a same-speed singleton pair exercises the run batching.
        // `45.0 + 8e-15` rounds to the next representable above 45.0 —
        // an awkward mantissa no decimal literal spells cleanly.
        let awkward = 45.0f64 + 8e-15;
        let classes = [(awkward, 1_000_000u64), (104.3, 1), (104.3, 1)];
        let speeds = expand(&classes);
        let seq: f64 = speeds.iter().sum();
        let mut total = 0.0f64;
        for &(s, m) in &classes {
            total = hetsim_cluster::repeat_add(total, s, m);
        }
        assert_eq!(total.to_bits(), seq.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one speed must be positive")]
    fn classed_all_zero_speeds_rejected() {
        ClassedCyclicDeal::new(&[(0.0, 2), (0.0, 1)]);
    }

    #[test]
    #[should_panic(expected = "every class needs at least one member")]
    fn classed_empty_run_rejected() {
        ClassedCyclicDeal::new(&[(50.0, 0)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn classed_deal_matches_per_rank_on_random_runs(
            n in 0usize..600,
            picks in proptest::collection::vec((0usize..6, 1u64..9), 1..6),
        ) {
            // A small speed palette (with repeats and a zero) makes
            // cross-class deficit ties and skipped classes common.
            let palette = [50.0, 90.0, 150.0, 50.0, 0.0, 1.0];
            let classes: Vec<(f64, u64)> =
                picks.iter().map(|&(i, m)| (palette[i], m)).collect();
            if classes.iter().any(|&(s, _)| s > 0.0) {
                check_classed_mirrors_fine(n, &classes);
            }
        }

        #[test]
        fn runs_match_row_deals_on_random_runs(
            n in 0u64..3_000,
            limit in 1u64..5_000,
            picks in proptest::collection::vec((0usize..6, 1u64..400), 1..6),
        ) {
            let palette = [50.0, 90.0, 150.0, 50.0, 0.0, 1.0];
            let classes: Vec<(f64, u64)> =
                picks.iter().map(|&(i, m)| (palette[i], m)).collect();
            if classes.iter().any(|&(s, _)| s > 0.0) {
                check_runs_mirror_deals(n, limit, &classes);
            }
        }
    }

    #[test]
    fn conformance_on_many_shapes() {
        for (n, speeds, block) in [
            (1usize, vec![5.0], 1usize),
            (313, vec![90.0, 50.0], 4),
            (100, vec![45.0, 50.0, 110.0, 110.0], 11),
            (97, vec![1.0, 2.0, 3.0, 4.0, 5.0], 2),
            (0, vec![1.0, 2.0], 3),
        ] {
            check_conformance(&CyclicDistribution::new(n, &speeds, block));
        }
    }
}
