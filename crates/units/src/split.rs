//! Per-unit score vocabulary for work-partitioned dispatch.
//!
//! A whole-workload dispatcher compares two scalar scores and routes the
//! workload to the cheaper machine; the losing machine idles. Splitting
//! instead divides the workload's *unit stream* between both machines so
//! they run concurrently and the makespan drops to the larger shard.
//!
//! The vocabulary here is deliberately tiny and exact: a [`UnitScore`] is
//! a calibrated certified cost per unit of work, quantized to the same
//! dyadic grid as every unit price in [`crate::counts`], and a
//! [`SplitPlan`] is the deterministic greedy partition that balances the
//! two machines' loads under those scores. Because scores are dyadic
//! (26-bit mantissas) and unit counts stay below [`MAX_EXACT_COUNT`],
//! every product `k × score` the planner compares is exactly
//! representable in `f64` — the plan is a pure function of its inputs,
//! bit-identical on every host and at every thread count.

use serde::{Deserialize, Serialize};

use crate::counts::{dyadic, MAX_EXACT_COUNT};

/// A calibrated certified cost per unit of work, on the dyadic grid.
///
/// Negative, NaN, or infinite inputs clamp to zero (a zero score means
/// "free on this machine" and the planner sends everything there — or,
/// when both sides are free, everything to the crossbar by the global
/// tie rule). Finite positive inputs are quantized through
/// [`dyadic`], so products with unit counts up to [`MAX_EXACT_COUNT`]
/// are exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitScore {
    per_unit: f64,
}

impl UnitScore {
    /// A score that is exactly zero ("free on this machine").
    pub const ZERO: Self = Self { per_unit: 0.0 };

    /// Quantizes `per_unit` onto the dyadic grid; non-finite or negative
    /// inputs clamp to zero.
    pub fn new(per_unit: f64) -> Self {
        if per_unit.is_finite() && per_unit > 0.0 {
            Self {
                per_unit: dyadic(per_unit),
            }
        } else {
            Self::ZERO
        }
    }

    /// The per-unit score of a workload whose *total* calibrated score
    /// is `total` over `units` units. Zero units yields a zero score.
    pub fn per_unit(total: f64, units: u64) -> Self {
        if units == 0 {
            Self::ZERO
        } else {
            #[allow(clippy::cast_precision_loss)]
            Self::new(total / units as f64)
        }
    }

    /// The quantized per-unit value.
    pub fn get(self) -> f64 {
        self.per_unit
    }

    /// True when the score is exactly zero.
    pub fn is_zero(self) -> bool {
        self.per_unit == 0.0
    }

    /// The exact load of `k` units at this score. For `k` up to
    /// [`MAX_EXACT_COUNT`] the product is exactly representable (26-bit
    /// mantissa times a 27-bit integer fits in 53 bits).
    pub fn load(self, k: u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let count = k as f64;
        count * self.per_unit
    }
}

/// A deterministic partition of `units` work units between the crossbar
/// (CIM) machine and the conventional host.
///
/// Built by [`SplitPlan::balance`]: the partition a greedy
/// makespan-balancing loop reaches when it assigns each unit to the
/// machine whose load-after-assignment is smaller, ties to CIM (the
/// machine the stack exists to exercise), found in closed form. With
/// per-unit scores fixed, greedy over identical units is optimal to
/// within one unit of the ideal fractional split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitPlan {
    units: u64,
    cim_units: u64,
    cim_score: UnitScore,
    host_score: UnitScore,
}

/// How many of `1..=n` satisfy `holds`, a predicate that holds on a
/// prefix of `1..=n` and nowhere after it (binary search).
fn prefix_len(n: u64, holds: impl Fn(u64) -> bool) -> u64 {
    // `holds` is true on 1..=lo and false on hi + 1..=n.
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = hi - (hi - lo) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

impl SplitPlan {
    /// Greedy makespan-balancing partition of `units` units under the
    /// two per-unit scores. Deterministic: every comparison is between
    /// exact dyadic products (for unit counts up to
    /// [`MAX_EXACT_COUNT`]), and ties go to CIM.
    ///
    /// The greedy loop merges the two machines' rising load sequences,
    /// `cim.load(1), cim.load(2), …` and `host.load(1), …`, taking the
    /// smaller next load each step, ties to CIM. CIM's `c`-th unit is
    /// therefore taken at step `c + #{h : host.load(h) < cim.load(c)}`,
    /// which rises with `c`, so the plan's CIM count is the largest `c`
    /// whose step is at most `units`. Two nested binary searches find
    /// it in O(log² units) comparisons of the same products.
    pub fn balance(units: u64, cim_score: UnitScore, host_score: UnitScore) -> Self {
        // Zero-score sides absorb everything (their load never grows);
        // both-zero degenerates to all-CIM via the tie rule. Handling
        // these up front keeps both load sequences strictly rising.
        if cim_score.is_zero() {
            return Self::all_cim(units, cim_score, host_score);
        }
        if host_score.is_zero() {
            return Self::all_host(units, cim_score, host_score);
        }
        debug_assert!(
            units <= MAX_EXACT_COUNT,
            "unit count {units} exceeds the exact-product range"
        );
        let step = |c: u64| {
            let cim_load = cim_score.load(c);
            c + prefix_len(units, |h| host_score.load(h) < cim_load)
        };
        Self {
            units,
            cim_units: prefix_len(units, |c| step(c) <= units),
            cim_score,
            host_score,
        }
    }

    /// A plan pinned at an explicit partition point: `cim_units` of the
    /// `units` go to the crossbar regardless of the scores. For forcing
    /// arbitrary fractions in sweeps and conservation tests;
    /// [`balance`](Self::balance) is the production path.
    ///
    /// # Panics
    ///
    /// Panics if `cim_units` exceeds `units`.
    pub fn pinned(units: u64, cim_units: u64, cim_score: UnitScore, host_score: UnitScore) -> Self {
        assert!(
            cim_units <= units,
            "pinned plan routes {cim_units} units to CIM out of {units}"
        );
        Self {
            units,
            cim_units,
            cim_score,
            host_score,
        }
    }

    /// The degenerate plan that sends every unit to the crossbar.
    pub fn all_cim(units: u64, cim_score: UnitScore, host_score: UnitScore) -> Self {
        Self {
            units,
            cim_units: units,
            cim_score,
            host_score,
        }
    }

    /// The degenerate plan that sends every unit to the host.
    pub fn all_host(units: u64, cim_score: UnitScore, host_score: UnitScore) -> Self {
        Self {
            units,
            cim_units: 0,
            cim_score,
            host_score,
        }
    }

    /// Total units partitioned.
    pub fn units(self) -> u64 {
        self.units
    }

    /// Units assigned to the crossbar machine.
    pub fn cim_units(self) -> u64 {
        self.cim_units
    }

    /// Units assigned to the conventional host.
    pub fn host_units(self) -> u64 {
        self.units - self.cim_units
    }

    /// The CIM per-unit score the plan balanced under.
    pub fn cim_score(self) -> UnitScore {
        self.cim_score
    }

    /// The host per-unit score the plan balanced under.
    pub fn host_score(self) -> UnitScore {
        self.host_score
    }

    /// Fraction of units on the crossbar, in `[0, 1]` (1 when empty).
    pub fn cim_fraction(self) -> f64 {
        if self.units == 0 {
            1.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let fraction = self.cim_units as f64 / self.units as f64;
            fraction
        }
    }

    /// True when every unit routes to the crossbar.
    pub fn is_all_cim(self) -> bool {
        self.cim_units == self.units
    }

    /// True when every unit routes to the host.
    pub fn is_all_host(self) -> bool {
        self.cim_units == 0 && self.units > 0
    }

    /// The plan's predicted makespan in score currency: the larger of
    /// the two sides' exact loads.
    pub fn makespan_score(self) -> f64 {
        self.cim_score
            .load(self.cim_units)
            .max(self.host_score.load(self.host_units()))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The greedy loop [`SplitPlan::balance`] solves in closed form:
    /// each unit goes to the side whose load after taking it is
    /// smaller, ties to the crossbar (so a zero-score side takes all).
    fn greedy_cim_units(units: u64, cim: UnitScore, host: UnitScore) -> u64 {
        let (mut cim_units, mut host_units) = (0, 0);
        for _ in 0..units {
            if cim.load(cim_units + 1) <= host.load(host_units + 1) {
                cim_units += 1;
            } else {
                host_units += 1;
            }
        }
        cim_units
    }

    /// Score pairs: equal, zero on one side or both, small integers
    /// (exact ties mid-run), and one side 3 to 10⁶ times the other.
    fn arb_scores() -> impl Strategy<Value = (UnitScore, UnitScore)> {
        let score = |e: f64| UnitScore::new(2f64.powf(e));
        prop_oneof![
            (-40.0f64..10.0).prop_map(move |e| (score(e), score(e))),
            ((-40.0f64..10.0), 0u8..3).prop_map(move |(e, zero)| match zero {
                0 => (UnitScore::ZERO, score(e)),
                1 => (score(e), UnitScore::ZERO),
                _ => (UnitScore::ZERO, UnitScore::ZERO),
            }),
            (1u32..8, 1u32..8)
                .prop_map(|(c, h)| (UnitScore::new(f64::from(c)), UnitScore::new(f64::from(h)))),
            (
                -40.0f64..10.0,
                prop_oneof![Just(3.0), 3.0f64..1e6, Just(1e6)],
                any::<bool>(),
            )
                .prop_map(move |(e, ratio, cim_slower)| {
                    let (fast, slow) = (score(e), UnitScore::new(2f64.powf(e) * ratio));
                    if cim_slower {
                        (slow, fast)
                    } else {
                        (fast, slow)
                    }
                }),
        ]
    }

    proptest! {
        #[test]
        fn balance_matches_the_greedy_oracle(
            units in prop_oneof![0u64..64, 0u64..=1 << 20],
            scores in arb_scores(),
        ) {
            let (cim, host) = scores;
            let plan = SplitPlan::balance(units, cim, host);
            prop_assert_eq!(plan.cim_units(), greedy_cim_units(units, cim, host));
            prop_assert_eq!(plan.cim_units() + plan.host_units(), units);
        }
    }

    #[test]
    fn scores_quantize_and_clamp() {
        let score = UnitScore::new(1.0 / 3.0);
        assert_eq!(score.get(), dyadic(1.0 / 3.0));
        assert!(!score.is_zero());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
            assert!(UnitScore::new(bad).is_zero(), "{bad} should clamp");
        }
        assert!(UnitScore::per_unit(5.0, 0).is_zero());
        assert_eq!(UnitScore::per_unit(6.0, 3).get(), 2.0);
    }

    #[test]
    fn loads_are_exact_for_in_range_counts() {
        let score = UnitScore::new(0.3);
        // A dyadic score times an in-range integer regroups exactly:
        // summing one unit at a time equals the single product.
        let mut sum = 0.0;
        for _ in 0..1000 {
            sum += score.get();
        }
        assert_eq!(sum.to_bits(), score.load(1000).to_bits());
    }

    #[test]
    fn equal_scores_split_near_half_with_cim_tie() {
        let s = UnitScore::new(2.0);
        let plan = SplitPlan::balance(10, s, s);
        assert_eq!((plan.cim_units(), plan.host_units()), (5, 5));
        // Odd counts give the crossbar the extra unit (ties → CIM).
        let odd = SplitPlan::balance(11, s, s);
        assert_eq!((odd.cim_units(), odd.host_units()), (6, 5));
    }

    #[test]
    fn balance_minimizes_makespan_within_one_unit() {
        let cim = UnitScore::new(3.0);
        let host = UnitScore::new(1.0);
        let plan = SplitPlan::balance(100, cim, host);
        let best = plan.makespan_score();
        // No neighbouring assignment does better.
        for cim_units in [plan.cim_units().saturating_sub(1), plan.cim_units() + 1] {
            let other = cim.load(cim_units).max(host.load(100 - cim_units));
            assert!(best <= other, "{best} > {other} at {cim_units}");
        }
        // A 3:1 score ratio lands near a 1:3 unit ratio.
        assert!(
            (24..=26).contains(&plan.cim_units()),
            "{}",
            plan.cim_units()
        );
    }

    #[test]
    fn zero_scores_collapse_to_one_side() {
        let some = UnitScore::new(1.0);
        assert!(SplitPlan::balance(8, UnitScore::ZERO, some).is_all_cim());
        assert!(SplitPlan::balance(8, some, UnitScore::ZERO).is_all_host());
        // Both free: the global tie rule sends everything to CIM.
        assert!(SplitPlan::balance(8, UnitScore::ZERO, UnitScore::ZERO).is_all_cim());
    }

    #[test]
    fn plans_are_deterministic_and_account_for_every_unit() {
        let cim = UnitScore::new(29.9e-9);
        let host = UnitScore::new(5.28e-9);
        let a = SplitPlan::balance(1 << 16, cim, host);
        let b = SplitPlan::balance(1 << 16, cim, host);
        assert_eq!(a, b);
        assert_eq!(a.cim_units() + a.host_units(), a.units());
        assert!(a.cim_fraction() > 0.0 && a.cim_fraction() < 1.0);
        assert!(!a.is_all_cim() && !a.is_all_host());
    }

    #[test]
    fn empty_plans_are_benign() {
        let plan = SplitPlan::balance(0, UnitScore::new(1.0), UnitScore::new(2.0));
        assert_eq!(plan.units(), 0);
        assert!(plan.is_all_cim());
        assert!(!plan.is_all_host());
        assert_eq!(plan.makespan_score(), 0.0);
        assert_eq!(plan.cim_fraction(), 1.0);
    }
}
