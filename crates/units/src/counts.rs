//! Exact integer cost accounting for partition-invariant attribution.
//!
//! The fabric layer shards one batch across a variable number of tiles
//! and threads, yet must report costs that are bit-identical for every
//! partition **and** conserve per-tile ledgers to the fabric ledger
//! bit-for-bit. Floating-point accumulation cannot deliver both at once:
//! `(a + b) + c != a + (b + c)` bitwise, so an f64 ledger summed
//! tile-by-tile depends on how many tiles there were.
//!
//! The resolution is to account in **count space**. A [`CountLedger`]
//! holds exact `u64` primitive-operation counts per
//! [`Component`] × [`Phase`] cell; integer addition is associative and
//! commutative, so merging per-tile count ledgers in any grouping yields
//! the same counts. A [`UnitCosts`] table prices each cell (energy and
//! time **per primitive operation**), and [`UnitCosts::evaluate`]
//! converts counts to a [`CostLedger`] with exactly one multiplication
//! per cell — a pure function of the counts, hence itself
//! partition-invariant.
//!
//! One more step makes conservation *exact in f64 as well*:
//! [`UnitCosts::set`] quantizes every unit price to a **dyadic
//! rational** `m / 2^s` with `m < 2^26` ([`dyadic`]). A product
//! `count × (m / 2^s)` is then computed exactly by f64 multiplication
//! while `count × m < 2^53` (i.e. `count ≤` [`MAX_EXACT_COUNT`]), and
//! sums of such products share the scale `2^-s`, so their numerators add
//! exactly too. Consequently per-tile ledgers (`evaluate(counts_t)`)
//! **sum bit-for-bit** to the fabric ledger (`evaluate(Σ counts_t)`),
//! for *any* partition of the counts — the fabric's conservation
//! contract, with no tolerance anywhere. The quantization error is below
//! 2⁻²⁶ relative (≈ 1.5×10⁻⁸) on model constants that carry one or two
//! significant figures from the paper's Table 1.

use serde::{Deserialize, Serialize};

use crate::ledger::{Component, CostLedger, Phase};
use crate::quantity::{Energy, Time};

const CELLS: usize = Component::ALL.len() * Phase::ALL.len();

fn slot(component: Component, phase: Phase) -> usize {
    component as usize * Phase::ALL.len() + phase as usize
}

/// Mantissa bits kept by [`dyadic`] quantization.
pub const DYADIC_BITS: u32 = 26;

/// Largest per-cell count for which [`UnitCosts::evaluate`] is exact:
/// with 26-bit unit mantissas, `count × m` stays below 2⁵³ (one f64
/// significand) up to `2^27 - 1` counts per cell.
pub const MAX_EXACT_COUNT: u64 = (1 << (53 - DYADIC_BITS)) - 1;

/// Rounds `value` to the nearest dyadic rational `m / 2^s` with
/// `m < 2^26`, i.e. truncates the f64 mantissa to [`DYADIC_BITS`] bits.
///
/// Products and regrouped sums of dyadic unit prices are exact in f64
/// (see the module docs), which is what lets per-tile ledgers sum
/// bit-for-bit to the fabric ledger. Zero, infinities and NaN pass
/// through unchanged; every other finite input gives a finite result of
/// the same sign (near `f64::MAX`, where rounding up would overflow, it
/// rounds down one mantissa unit instead).
pub fn dyadic(value: f64) -> f64 {
    if value == 0.0 || !value.is_finite() {
        return value;
    }
    // Scale so the value sits in [2^25, 2^26), round to an integer m,
    // then scale back: the result is m / 2^s with m representable in
    // DYADIC_BITS bits. Below about 2^-998 the shift 2^s overflows f64,
    // so it is applied as two power-of-two halves; each multiply is
    // exact, giving the same bits as one 2^s wherever 2^s is finite.
    let exponent = value.abs().log2().floor() as i32;
    let shift = DYADIC_BITS as i32 - 1 - exponent;
    let (lo, hi) = (2.0f64.powi(shift / 2), 2.0f64.powi(shift - shift / 2));
    let m = (value * lo * hi).round();
    let q = m / hi / lo;
    if q.is_finite() {
        q
    } else {
        (m - m.signum()) / hi / lo
    }
}

/// A dense ledger of exact primitive-operation counts over the
/// [`Component`] × [`Phase`] taxonomy.
///
/// Unlike [`CostLedger`], every cell is a `u64`, so
/// [`merge`](Self::merge) is exact, associative, and commutative: any
/// partition of the same charges produces the same counts. This is the
/// currency the tiled fabric accounts in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountLedger {
    cells: Vec<u64>,
}

impl CountLedger {
    /// An empty count ledger.
    pub fn new() -> Self {
        Self {
            cells: vec![0; CELLS],
        }
    }

    /// Adds `count` primitive operations to the `(component, phase)`
    /// cell.
    pub fn charge(&mut self, component: Component, phase: Phase, count: u64) {
        self.cells[slot(component, phase)] += count;
    }

    /// The exact count accumulated in one cell.
    pub fn count(&self, component: Component, phase: Phase) -> u64 {
        self.cells[slot(component, phase)]
    }

    /// Element-wise exact merge. Integer addition makes this associative
    /// and commutative: merging per-tile ledgers in any grouping or
    /// order produces identical counts.
    pub fn merge(&mut self, other: &CountLedger) {
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            *mine += *theirs;
        }
    }

    /// Total primitive operations across all cells.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// True if no operation has been counted.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|&c| c == 0)
    }
}

impl Default for CountLedger {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-cell unit prices: energy and time **per primitive operation** for
/// each [`Component`] × [`Phase`] cell.
///
/// Built once from the machine model (device energies, interconnect hop
/// terms, controller overhead), then applied to any [`CountLedger`] via
/// [`evaluate`](Self::evaluate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitCosts {
    energy: Vec<Energy>,
    time: Vec<Time>,
}

impl UnitCosts {
    /// A price table with every cell at zero.
    pub fn new() -> Self {
        Self {
            energy: vec![Energy::ZERO; CELLS],
            time: vec![Time::ZERO; CELLS],
        }
    }

    /// Sets the unit price of one cell (replacing any previous price),
    /// quantizing both quantities to dyadic rationals ([`dyadic`]) so
    /// that [`evaluate`](Self::evaluate) is exact under any regrouping
    /// of the counts.
    pub fn set(&mut self, component: Component, phase: Phase, energy: Energy, time: Time) {
        let s = slot(component, phase);
        self.energy[s] = Energy::new(dyadic(energy.get()));
        self.time[s] = Time::new(dyadic(time.get()));
    }

    /// The unit energy of one cell.
    pub fn unit_energy(&self, component: Component, phase: Phase) -> Energy {
        self.energy[slot(component, phase)]
    }

    /// The unit time of one cell.
    pub fn unit_time(&self, component: Component, phase: Phase) -> Time {
        self.time[slot(component, phase)]
    }

    /// Prices a count ledger into a [`CostLedger`] with exactly one
    /// multiplication per cell.
    ///
    /// Because the result is a pure function of the (exact, integer)
    /// counts, evaluating merged counts is bit-identical no matter how
    /// the counts were partitioned — the keystone of the fabric's
    /// determinism and conservation contract.
    #[allow(clippy::cast_precision_loss)]
    pub fn evaluate(&self, counts: &CountLedger) -> CostLedger {
        let mut ledger = CostLedger::new();
        for &component in &Component::ALL {
            for &phase in &Phase::ALL {
                let n = counts.count(component, phase);
                if n == 0 {
                    continue;
                }
                let scale = n as f64;
                ledger.charge(
                    component,
                    phase,
                    self.energy[slot(component, phase)] * scale,
                    self.time[slot(component, phase)] * scale,
                    n,
                );
            }
        }
        ledger
    }
}

impl Default for UnitCosts {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-cell dyadic scale factors for calibrating a [`UnitCosts`] table
/// against observed ledgers without breaking the conservation contract.
///
/// The online calibrator refines model prices multiplicatively: after a
/// run it compares the predicted ledger against the observed one and
/// nudges each cell's price by the observed/predicted ratio. Done naively
/// in raw f64 this would destroy the bit-for-bit conservation guarantee,
/// because calibrated prices would no longer be dyadic rationals. A
/// `ScaleTable` therefore stores every factor **already quantized by
/// [`dyadic`]**, and [`rescale`](Self::rescale) pushes the product
/// `factor × price` back through [`UnitCosts::set`] — re-quantizing it —
/// so calibrated price tables keep exactly the same exactness properties
/// as uncalibrated ones (see the module docs and DESIGN.md §10 for the
/// mantissa-width argument).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleTable {
    energy: Vec<f64>,
    time: Vec<f64>,
}

impl ScaleTable {
    /// The identity table: every factor is exactly 1, so
    /// [`rescale`](Self::rescale) reproduces its input bit-for-bit.
    pub fn identity() -> Self {
        Self {
            energy: vec![1.0; CELLS],
            time: vec![1.0; CELLS],
        }
    }

    /// Sets one cell's energy and time factors, quantizing both through
    /// [`dyadic`]. Non-finite or non-positive factors are clamped to 1
    /// (a calibration step must never zero out or invert a price).
    pub fn set(&mut self, component: Component, phase: Phase, energy: f64, time: f64) {
        let sanitize = |f: f64| {
            if f.is_finite() && f > 0.0 {
                dyadic(f)
            } else {
                1.0
            }
        };
        let s = slot(component, phase);
        self.energy[s] = sanitize(energy);
        self.time[s] = sanitize(time);
    }

    /// The energy factor of one cell (exactly dyadic).
    pub fn energy_factor(&self, component: Component, phase: Phase) -> f64 {
        self.energy[slot(component, phase)]
    }

    /// The time factor of one cell (exactly dyadic).
    pub fn time_factor(&self, component: Component, phase: Phase) -> f64 {
        self.time[slot(component, phase)]
    }

    /// True if every factor is exactly 1.
    pub fn is_identity(&self) -> bool {
        self.energy.iter().chain(&self.time).all(|&f| f == 1.0)
    }

    /// The largest relative deviation `|factor − 1|` across all cells —
    /// a scalar summary of how far calibration has moved the prices.
    pub fn max_deviation(&self) -> f64 {
        self.energy
            .iter()
            .chain(&self.time)
            .fold(0.0f64, |acc, &f| acc.max((f - 1.0).abs()))
    }

    /// Applies the factors to a price table, producing a calibrated
    /// [`UnitCosts`].
    ///
    /// Every product goes back through [`UnitCosts::set`], so the result
    /// is dyadic again and [`UnitCosts::evaluate`] on it stays exact
    /// under any regrouping of the counts. With the identity table this
    /// is a bitwise no-op.
    pub fn rescale(&self, prices: &UnitCosts) -> UnitCosts {
        let mut scaled = UnitCosts::new();
        for &component in &Component::ALL {
            for &phase in &Phase::ALL {
                let s = slot(component, phase);
                scaled.set(
                    component,
                    phase,
                    prices.unit_energy(component, phase) * self.energy[s],
                    prices.unit_time(component, phase) * self.time[s],
                );
            }
        }
        scaled
    }
}

impl Default for ScaleTable {
    fn default() -> Self {
        Self::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn awkward_prices() -> UnitCosts {
        // Deliberately non-round prices so any reassociation of f64 sums
        // would show up in the bit patterns.
        let mut prices = UnitCosts::new();
        prices.set(
            Component::ImplyStep,
            Phase::Map,
            Energy::new(1.0 / 3.0),
            Time::new(1.0 / 7.0),
        );
        prices.set(
            Component::Interconnect,
            Phase::Add,
            Energy::new(0.1),
            Time::new(0.3),
        );
        prices
    }

    #[test]
    fn merge_is_exact_and_partition_invariant() {
        // 1000 charges split three different ways: identical counts.
        let charges: Vec<u64> = (0..1000).map(|i| i % 17 + 1).collect();
        let build = |parts: &[&[u64]]| {
            let mut total = CountLedger::new();
            for part in parts {
                let mut sub = CountLedger::new();
                for &c in *part {
                    sub.charge(Component::ImplyStep, Phase::Map, c);
                }
                total.merge(&sub);
            }
            total
        };
        let whole = build(&[&charges]);
        let (a, b) = charges.split_at(123);
        let halves = build(&[a, b]);
        let (c, d) = b.split_at(400);
        let thirds = build(&[a, c, d]);
        assert_eq!(whole, halves);
        assert_eq!(whole, thirds);
        assert_eq!(whole.total(), charges.iter().sum::<u64>());
    }

    #[test]
    fn evaluate_of_merged_counts_is_bit_identical() {
        // The f64 failure mode this design avoids: summing priced f64
        // ledgers per partition gives partition-dependent bits, whereas
        // pricing the merged counts is a single multiply per cell.
        let prices = awkward_prices();
        let mut left = CountLedger::new();
        let mut right = CountLedger::new();
        left.charge(Component::ImplyStep, Phase::Map, 7);
        right.charge(Component::ImplyStep, Phase::Map, 9);
        let mut merged = left.clone();
        merged.merge(&right);
        let mut direct = CountLedger::new();
        direct.charge(Component::ImplyStep, Phase::Map, 16);
        let a = prices.evaluate(&merged);
        let b = prices.evaluate(&direct);
        assert_eq!(a, b);
        assert_eq!(
            a.total_energy().get().to_bits(),
            b.total_energy().get().to_bits()
        );
    }

    #[test]
    fn evaluate_prices_counts_into_the_right_cells() {
        let prices = awkward_prices();
        let mut counts = CountLedger::new();
        counts.charge(Component::ImplyStep, Phase::Map, 21);
        counts.charge(Component::Interconnect, Phase::Add, 10);
        let ledger = prices.evaluate(&counts);
        let imply = ledger.entry(Component::ImplyStep, Phase::Map);
        assert_eq!(imply.count, 21);
        assert_eq!(imply.energy, Energy::new(dyadic(1.0 / 3.0)) * 21.0);
        assert_eq!(imply.time, Time::new(dyadic(1.0 / 7.0)) * 21.0);
        let hops = ledger.entry(Component::Interconnect, Phase::Add);
        assert_eq!(hops.count, 10);
        // Unpriced cells stay zero even if counted.
        counts.charge(Component::CacheAccess, Phase::Verify, 5);
        let ledger = prices.evaluate(&counts);
        let cache = ledger.entry(Component::CacheAccess, Phase::Verify);
        assert_eq!(cache.count, 5);
        assert_eq!(cache.energy, Energy::ZERO);
    }

    #[test]
    fn dyadic_quantization_is_close_idempotent_and_sign_preserving() {
        for value in [45e-15, 1.0 / 3.0, 2.56e-13, 1e-10, -0.7, 100e-12] {
            let q = dyadic(value);
            assert!((q / value - 1.0).abs() < 2e-8, "{value} -> {q}");
            assert_eq!(dyadic(q), q, "idempotent at {value}");
            assert_eq!(q.is_sign_negative(), value.is_sign_negative());
        }
        assert_eq!(dyadic(0.0), 0.0);
        // Exactly dyadic inputs pass through untouched.
        assert_eq!(dyadic(0.5), 0.5);
        assert_eq!(dyadic(3.0), 3.0);
    }

    #[test]
    fn dyadic_stays_finite_down_to_the_smallest_subnormal() {
        // 2^-1074, 2^-1022, and the largest subnormal: 2^s overflows f64
        // for all three, so a single-factor scale would return NaN.
        for bits in [1u64, 0x0010_0000_0000_0000, 0x000F_FFFF_FFFF_FFFF] {
            let value = f64::from_bits(bits);
            let q = dyadic(value);
            assert!(q.is_finite() && q > 0.0, "{bits:#018x} -> {q}");
            assert_eq!(dyadic(q), q, "idempotent at {bits:#018x}");
            assert_eq!(dyadic(-value), -q, "sign-symmetric at {bits:#018x}");
        }
        // At the top of the range rounding up would overflow: the result
        // steps one mantissa unit down instead.
        let top = dyadic(f64::MAX);
        assert!(
            top.is_finite() && (top / f64::MAX - 1.0).abs() < 1e-7,
            "{top}"
        );
        assert_eq!(dyadic(top), top);
        assert_eq!(dyadic(f64::MIN), -top);
        assert_eq!(dyadic(f64::MIN_POSITIVE), f64::MIN_POSITIVE);
    }

    #[test]
    fn per_tile_ledgers_sum_bit_for_bit_to_the_evaluated_merge() {
        // The conservation contract: for ANY partition of the counts,
        // folding per-partition CostLedgers equals evaluating the merged
        // counts, bitwise. Exercise awkward unit prices and many
        // partitions, near MAX_EXACT_COUNT.
        let prices = awkward_prices();
        let total: u64 = MAX_EXACT_COUNT;
        let partitions: Vec<Vec<u64>> = vec![
            vec![total],
            vec![1, total - 1],
            vec![total / 3, total / 3, total - 2 * (total / 3)],
            (0..7)
                .map(|i| total / 7 + u64::from(i == 0) * (total % 7))
                .collect(),
        ];
        let mut reference = CountLedger::new();
        reference.charge(Component::ImplyStep, Phase::Map, total);
        reference.charge(Component::Interconnect, Phase::Add, total / 2);
        let fabric = prices.evaluate(&reference);
        for parts in partitions {
            assert_eq!(parts.iter().sum::<u64>(), total);
            let mut folded = crate::CostLedger::new();
            let mut halves_left = total / 2;
            for &n in &parts {
                let mut tile = CountLedger::new();
                tile.charge(Component::ImplyStep, Phase::Map, n);
                let hop = halves_left.min(n);
                tile.charge(Component::Interconnect, Phase::Add, hop);
                halves_left -= hop;
                folded.merge(&prices.evaluate(&tile));
            }
            assert_eq!(folded, fabric, "partition {parts:?}");
            assert_eq!(
                folded.total_energy().get().to_bits(),
                fabric.total_energy().get().to_bits()
            );
            assert_eq!(
                folded.total_time().get().to_bits(),
                fabric.total_time().get().to_bits()
            );
        }
    }

    #[test]
    fn empty_count_ledger_evaluates_empty() {
        let counts = CountLedger::new();
        assert!(counts.is_empty());
        assert!(awkward_prices().evaluate(&counts).is_empty());
    }

    #[test]
    fn identity_scale_table_is_a_bitwise_no_op() {
        let prices = awkward_prices();
        let scaled = ScaleTable::identity().rescale(&prices);
        assert_eq!(scaled, prices);
        assert!(ScaleTable::identity().is_identity());
        assert_eq!(ScaleTable::identity().max_deviation(), 0.0);
    }

    #[test]
    fn rescaled_prices_stay_dyadic_and_conserve() {
        // A calibrated table must keep the partition-invariance contract:
        // per-tile ledgers priced with the *rescaled* table still sum
        // bit-for-bit to the evaluated merge.
        let mut scales = ScaleTable::identity();
        scales.set(Component::ImplyStep, Phase::Map, 1.37, 0.82);
        let prices = scales.rescale(&awkward_prices());
        // The rescaled unit price is exactly dyadic (idempotent under dyadic).
        let e = prices.unit_energy(Component::ImplyStep, Phase::Map).get();
        assert_eq!(dyadic(e), e);
        let mut whole = CountLedger::new();
        whole.charge(Component::ImplyStep, Phase::Map, MAX_EXACT_COUNT);
        let fabric = prices.evaluate(&whole);
        let mut folded = crate::CostLedger::new();
        for n in [
            1u64,
            MAX_EXACT_COUNT / 3,
            MAX_EXACT_COUNT - 1 - MAX_EXACT_COUNT / 3,
        ] {
            let mut tile = CountLedger::new();
            tile.charge(Component::ImplyStep, Phase::Map, n);
            folded.merge(&prices.evaluate(&tile));
        }
        assert_eq!(folded, fabric);
        assert_eq!(
            folded.total_energy().get().to_bits(),
            fabric.total_energy().get().to_bits()
        );
    }

    #[test]
    fn scale_table_rejects_degenerate_factors() {
        let mut scales = ScaleTable::identity();
        scales.set(Component::ImplyStep, Phase::Map, 0.0, f64::NAN);
        assert!(scales.is_identity());
        scales.set(Component::ImplyStep, Phase::Map, -2.0, f64::INFINITY);
        assert!(scales.is_identity());
        scales.set(Component::ImplyStep, Phase::Map, 2.0, 0.5);
        assert_eq!(scales.energy_factor(Component::ImplyStep, Phase::Map), 2.0);
        assert_eq!(scales.time_factor(Component::ImplyStep, Phase::Map), 0.5);
        assert!((scales.max_deviation() - 1.0).abs() < 1e-12);
    }
}
