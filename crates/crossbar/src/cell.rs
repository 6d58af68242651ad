//! Crosspoint cell types: the junction options of the paper's Fig. 3.

use cim_units::{Current, Resistance, Time, Voltage};
use serde::{Deserialize, Serialize};

use cim_device::{Crs, DeviceParams, Fault, Memristor, ThresholdDevice, TwoTerminal};

/// The junction option implemented at each crosspoint (paper Fig. 3 right:
/// "possible cross point junctions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JunctionKind {
    /// Bare memristor (1R) — densest, worst sneak paths.
    OneR,
    /// Memristor + two-terminal non-linear selector (1S1R).
    OneS1R,
    /// Memristor + access transistor (1T1R) — largest cell, no sneak.
    OneT1R,
    /// Complementary resistive switch — sneak-free *and* 4F²-dense.
    Crs,
}

impl std::fmt::Display for JunctionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JunctionKind::OneR => "1R",
            JunctionKind::OneS1R => "1S1R",
            JunctionKind::OneT1R => "1T1R",
            JunctionKind::Crs => "CRS",
        };
        f.write_str(s)
    }
}

/// A crosspoint cell: a storage element plus (optionally) its selector.
///
/// The solver interacts with cells purely electrically — `current(v, gate)`
/// may be non-linear — while the array layer uses the bit-level interface
/// for programming and classification. `gate_on` models the access
/// transistor of a 1T1R cell and is derived by the array from the selected
/// row; two-terminal junctions ignore it.
///
/// Cells must be `Send`: the batch-of-solves dispatcher moves whole
/// arrays to the workers that solve them. A solve runs on one thread, so
/// nothing shares a cell between threads. Every junction model is plain
/// data, so the bound costs nothing.
pub trait Cell: Send {
    /// True when the cell is linear at fixed state and gate, so
    /// [`Cell::conductance_at`] does not depend on the voltage. The
    /// solvers then linearise such cells once per solve instead of
    /// refreshing their secants every sweep.
    const OHMIC: bool = false;

    /// Which junction option this cell implements.
    fn junction(&self) -> JunctionKind;

    /// Instantaneous current at voltage `v` (no state evolution).
    fn current(&self, v: Voltage, gate_on: bool) -> Current;

    /// Applies `v` for `dt`, evolving the storage element (disturb!).
    fn stress(&mut self, v: Voltage, dt: Time, gate_on: bool);

    /// Like [`Cell::stress`], but reports whether the cell's *internal*
    /// state actually moved (bitwise, not just the stored bit). The array
    /// layer uses this to maintain its cell-state epoch: when a whole
    /// pulse moves nothing, the post-pulse network is identical to the
    /// pre-pulse one and a re-solve can be skipped.
    ///
    /// The default conservatively reports `true`; cell types override it
    /// with an exact state comparison.
    fn stress_tracked(&mut self, v: Voltage, dt: Time, gate_on: bool) -> bool {
        self.stress(v, dt, gate_on);
        true
    }

    /// The stored bit under the LRS = 1 convention.
    fn stored(&self) -> bool;

    /// Ideally programs the storage element (array initialisation).
    fn program(&mut self, bit: bool);

    /// Technology parameters of the storage element.
    fn params(&self) -> &DeviceParams;

    /// Small-signal (secant) conductance at `v` in siemens, used by the
    /// solvers. Near 0 V a 1 µV probe linearises the I-V curve.
    fn conductance_at(&self, v: Voltage, gate_on: bool) -> f64 {
        let v_probe = if v.get().abs() < 1e-6 {
            Voltage::new(1e-6)
        } else {
            v
        };
        (self.current(v_probe, gate_on).get() / v_probe.get()).abs()
    }
}

/// Bare memristor junction (1R).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResistiveCell {
    device: ThresholdDevice,
    fault: Option<Fault>,
}

impl ResistiveCell {
    /// Creates a 1R cell in the HRS (logic 0) state.
    pub fn new(params: DeviceParams) -> Self {
        Self {
            device: ThresholdDevice::new_hrs(params),
            fault: None,
        }
    }

    /// Access to the underlying device (e.g. for state inspection).
    pub fn device_mut(&mut self) -> &mut ThresholdDevice {
        &mut self.device
    }

    /// Present resistance of the storage element.
    pub fn resistance(&self) -> Resistance {
        self.device.resistance()
    }

    /// Injects a manufacturing fault; stuck-at faults pin the state
    /// against all further writes (reliability studies).
    pub fn inject_fault(&mut self, fault: Fault) {
        self.fault = Some(fault);
        self.enforce_fault();
    }

    /// The injected fault, if any.
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    fn enforce_fault(&mut self) {
        match self.fault {
            Some(Fault::StuckAtLrs) => self.device.set_state(1.0),
            Some(Fault::StuckAtHrs) => self.device.set_state(0.0),
            _ => {}
        }
    }
}

impl Cell for ResistiveCell {
    const OHMIC: bool = true;

    fn junction(&self) -> JunctionKind {
        JunctionKind::OneR
    }

    fn current(&self, v: Voltage, _gate_on: bool) -> Current {
        self.device.current_at(v)
    }

    fn stress(&mut self, v: Voltage, dt: Time, _gate_on: bool) {
        self.device.apply(v, dt);
        self.enforce_fault();
    }

    fn stress_tracked(&mut self, v: Voltage, dt: Time, gate_on: bool) -> bool {
        let before = self.device.state();
        self.stress(v, dt, gate_on);
        self.device.state() != before
    }

    fn stored(&self) -> bool {
        self.device.as_bit()
    }

    fn program(&mut self, bit: bool) {
        self.device.write_bit(bit);
        self.enforce_fault();
    }

    fn params(&self) -> &DeviceParams {
        self.device.params()
    }

    /// Exactly `1/R`: the device is linear, so the probe's `|i(v)/v|`
    /// would only add rounding that moves with `v`.
    fn conductance_at(&self, _v: Voltage, _gate_on: bool) -> f64 {
        self.device.resistance().get().recip()
    }
}

/// Memristor in series with a non-linear two-terminal selector (1S1R).
///
/// The selector is modelled by its *non-linearity factor*: the standard
/// array-level abstraction where the cell conducts fully at the read/write
/// voltage but is suppressed by `(|v|/v_full)^α` below it. A selector with
/// `α = 10` suppresses a half-selected cell's current by 2⁻¹⁰ ≈ 10⁻³,
/// which is what makes kilobit 1S1R arrays readable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectorCell {
    device: ThresholdDevice,
    /// Non-linearity exponent α of the selector I-V.
    alpha: f64,
    /// Voltage at which the selector is fully on (the array read voltage).
    v_full: Voltage,
}

impl SelectorCell {
    /// Creates a 1S1R cell with the given selector non-linearity.
    ///
    /// # Panics
    ///
    /// Panics if `alpha < 1` or `v_full` is not positive.
    pub fn new(params: DeviceParams, alpha: f64, v_full: Voltage) -> Self {
        assert!(alpha >= 1.0, "selector non-linearity must be >= 1");
        assert!(
            v_full.get() > 0.0,
            "selector full-on voltage must be positive"
        );
        Self {
            device: ThresholdDevice::new_hrs(params),
            alpha,
            v_full,
        }
    }

    /// Selector attenuation at voltage `v` (1.0 at or above `v_full`).
    pub fn selectivity(&self, v: Voltage) -> f64 {
        let x = (v.get().abs() / self.v_full.get()).min(1.0);
        x.powf(self.alpha - 1.0)
    }
}

impl Cell for SelectorCell {
    fn junction(&self) -> JunctionKind {
        JunctionKind::OneS1R
    }

    fn current(&self, v: Voltage, _gate_on: bool) -> Current {
        self.device.current_at(v) * self.selectivity(v)
    }

    fn stress(&mut self, v: Voltage, dt: Time, _gate_on: bool) {
        // The selector drops most of a sub-threshold voltage, protecting
        // the device; model this as scaling the effective stress voltage.
        let effective = v * self.selectivity(v).sqrt();
        self.device.apply(effective, dt);
    }

    fn stress_tracked(&mut self, v: Voltage, dt: Time, gate_on: bool) -> bool {
        let before = self.device.state();
        self.stress(v, dt, gate_on);
        self.device.state() != before
    }

    fn stored(&self) -> bool {
        self.device.as_bit()
    }

    fn program(&mut self, bit: bool) {
        self.device.write_bit(bit);
    }

    fn params(&self) -> &DeviceParams {
        self.device.params()
    }
}

/// Memristor with a gated access transistor (1T1R).
///
/// When the gate (derived from the selected wordline) is off, only the
/// transistor's off-state leakage conducts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransistorCell {
    device: ThresholdDevice,
    /// Off-state resistance of the access transistor.
    r_off_transistor: Resistance,
}

impl TransistorCell {
    /// Default access-transistor off-resistance (≈ 10 GΩ).
    pub fn new(params: DeviceParams) -> Self {
        Self::with_off_resistance(params, Resistance::from_mega_ohms(10_000.0))
    }

    /// Creates a 1T1R cell with an explicit off-state resistance.
    ///
    /// # Panics
    ///
    /// Panics if the off-resistance is not positive.
    pub fn with_off_resistance(params: DeviceParams, r_off: Resistance) -> Self {
        assert!(
            r_off.get() > 0.0,
            "transistor off-resistance must be positive"
        );
        Self {
            device: ThresholdDevice::new_hrs(params),
            r_off_transistor: r_off,
        }
    }
}

impl Cell for TransistorCell {
    const OHMIC: bool = true;

    fn junction(&self) -> JunctionKind {
        JunctionKind::OneT1R
    }

    fn current(&self, v: Voltage, gate_on: bool) -> Current {
        if gate_on {
            self.device.current_at(v)
        } else {
            v / self.r_off_transistor
        }
    }

    fn stress(&mut self, v: Voltage, dt: Time, gate_on: bool) {
        if gate_on {
            self.device.apply(v, dt);
        }
        // Gate off: the device sees almost none of the voltage.
    }

    fn stress_tracked(&mut self, v: Voltage, dt: Time, gate_on: bool) -> bool {
        if !gate_on {
            return false;
        }
        let before = self.device.state();
        self.stress(v, dt, gate_on);
        self.device.state() != before
    }

    fn stored(&self) -> bool {
        self.device.as_bit()
    }

    fn program(&mut self, bit: bool) {
        self.device.write_bit(bit);
    }

    fn params(&self) -> &DeviceParams {
        self.device.params()
    }

    /// Exactly `1/R` of the device (gate on) or of the closed transistor
    /// (gate off): both branches are linear.
    fn conductance_at(&self, _v: Voltage, gate_on: bool) -> f64 {
        if gate_on {
            self.device.resistance().get().recip()
        } else {
            self.r_off_transistor.get().recip()
        }
    }
}

/// Complementary-resistive-switch junction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrsCell {
    cell: Crs,
}

impl CrsCell {
    /// Creates a CRS cell storing logic 0.
    pub fn new(params: DeviceParams) -> Self {
        Self {
            cell: Crs::new_zero(params),
        }
    }

    /// Access to the underlying CRS pair.
    pub fn crs(&self) -> &Crs {
        &self.cell
    }

    /// Mutable access to the underlying CRS pair.
    pub fn crs_mut(&mut self) -> &mut Crs {
        &mut self.cell
    }
}

impl Cell for CrsCell {
    fn junction(&self) -> JunctionKind {
        JunctionKind::Crs
    }

    fn current(&self, v: Voltage, _gate_on: bool) -> Current {
        self.cell.current_at(v)
    }

    fn stress(&mut self, v: Voltage, dt: Time, _gate_on: bool) {
        self.cell.apply(v, dt);
    }

    fn stress_tracked(&mut self, v: Voltage, dt: Time, gate_on: bool) -> bool {
        let before = self.cell.element_states();
        self.stress(v, dt, gate_on);
        self.cell.element_states() != before
    }

    fn stored(&self) -> bool {
        // ON (mid-read) counts as 1-ish; storage states carry the bit.
        self.cell.state().bit().unwrap_or(true)
    }

    fn program(&mut self, bit: bool) {
        self.cell.write_bit_ideal(bit);
    }

    fn params(&self) -> &DeviceParams {
        self.cell.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> DeviceParams {
        DeviceParams::table1_cim()
    }

    #[test]
    fn junction_kinds_report_and_display() {
        assert_eq!(ResistiveCell::new(params()).junction().to_string(), "1R");
        assert_eq!(
            SelectorCell::new(params(), 10.0, Voltage::from_volts(2.0))
                .junction()
                .to_string(),
            "1S1R"
        );
        assert_eq!(TransistorCell::new(params()).junction().to_string(), "1T1R");
        assert_eq!(CrsCell::new(params()).junction().to_string(), "CRS");
    }

    #[test]
    fn resistive_cell_programs_and_conducts() {
        let mut c = ResistiveCell::new(params());
        assert!(!c.stored());
        c.program(true);
        assert!(c.stored());
        let i_lrs = c.current(Voltage::from_volts(1.0), true);
        c.program(false);
        let i_hrs = c.current(Voltage::from_volts(1.0), true);
        assert!(i_lrs.get() / i_hrs.get() > 50.0);
    }

    #[test]
    fn selector_suppresses_half_select_current() {
        let v_full = Voltage::from_volts(2.0);
        let mut c = SelectorCell::new(params(), 10.0, v_full);
        c.program(true);
        let i_full = c.current(v_full, true);
        let i_half = c.current(v_full / 2.0, true);
        // A linear cell would give exactly 2×; the selector gives ~2^alpha.
        let suppression = (i_full.get() / 2.0) / i_half.get();
        assert!(
            suppression > 100.0,
            "selector suppression only {suppression:.1}×"
        );
    }

    #[test]
    fn selector_fully_on_at_read_voltage() {
        let v_full = Voltage::from_volts(2.0);
        let c = SelectorCell::new(params(), 10.0, v_full);
        assert!((c.selectivity(v_full) - 1.0).abs() < 1e-12);
        assert!((c.selectivity(v_full * 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn selector_protects_device_from_disturb() {
        let p = params();
        let mut bare = ResistiveCell::new(p.clone());
        let mut guarded = SelectorCell::new(p.clone(), 10.0, p.write_voltage);
        bare.program(false);
        guarded.program(false);
        // Repeated 3/4-select stress: the bare device creeps, the guarded
        // one must not.
        let v = p.write_voltage * 0.75;
        for _ in 0..200 {
            bare.stress(v, p.write_time, true);
            guarded.stress(v, p.write_time, true);
        }
        assert!(!guarded.stored());
        // (The bare cell may or may not flip — the point is the guard.)
        let bare_moved = bare.device_mut().state();
        let p2 = params();
        let mut fresh = SelectorCell::new(p2.clone(), 10.0, p2.write_voltage);
        fresh.program(false);
        assert!(fresh.device.state() <= bare_moved + 1e-12);
    }

    #[test]
    fn transistor_cell_blocks_when_gate_off() {
        let mut c = TransistorCell::new(params());
        c.program(true);
        let v = Voltage::from_volts(2.0);
        let on = c.current(v, true);
        let off = c.current(v, false);
        assert!(on.get() / off.get() > 1e4);
        // Writes with the gate off must not change the state.
        c.stress(-params().write_voltage, params().write_time, false);
        assert!(c.stored());
    }

    #[test]
    fn crs_cell_high_resistive_in_both_states() {
        let mut c = CrsCell::new(params());
        let v = Voltage::from_volts(0.5);
        c.program(false);
        let i0 = c.current(v, true);
        c.program(true);
        let i1 = c.current(v, true);
        let i_lrs_level = v / params().r_on;
        assert!(i0.get() < 0.02 * i_lrs_level.get());
        assert!(i1.get() < 0.02 * i_lrs_level.get());
    }

    #[test]
    fn conductance_secant_matches_linear_cell() {
        let mut c = ResistiveCell::new(params());
        c.program(true);
        let g = c.conductance_at(Voltage::from_volts(1.0), true);
        let expected = 1.0 / params().r_on.get();
        assert!((g / expected - 1.0).abs() < 1e-9);
        // Near zero volts it falls back to the probe voltage.
        let g0 = c.conductance_at(Voltage::ZERO, true);
        assert!((g0 / expected - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stress_tracked_reports_state_motion_exactly() {
        let p = params();
        let mut c = ResistiveCell::new(p.clone());
        c.program(false);
        // Sub-threshold read stress: the hard-threshold device does not
        // move at all.
        assert!(!c.stress_tracked(p.v_set * 0.5, p.write_time, true));
        assert!(!c.stored());
        // A full write pulse moves it.
        assert!(c.stress_tracked(p.write_voltage, p.write_time, true));
        // Gate-off 1T1R stress is a guaranteed no-op.
        let mut t = TransistorCell::new(p.clone());
        assert!(!t.stress_tracked(p.write_voltage, p.write_time, false));
        // CRS: sub-threshold stress moves nothing either.
        let mut crs = CrsCell::new(p.clone());
        crs.program(true);
        assert!(!crs.stress_tracked(Voltage::new(0.01), p.write_time, true));
    }

    /// The secant the default [`Cell::conductance_at`] probes: `|i(v)/v|`,
    /// with a 1 µV probe near 0 V.
    fn probe_secant(cell: &impl Cell, v: Voltage, gate_on: bool) -> f64 {
        let v = if v.get().abs() < 1e-6 {
            Voltage::new(1e-6)
        } else {
            v
        };
        (cell.current(v, gate_on).get() / v.get()).abs()
    }

    /// Distance between two positive finite f64s in units in the last
    /// place.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    proptest! {
        /// The ohmic cells' secants are exactly `1/R` of the conducting
        /// branch and within one ulp of what the default probe measures.
        #[test]
        fn ohmic_secants_are_exact_and_within_an_ulp_of_the_probe(
            state in 0.0f64..=1.0,
            volts in prop_oneof![-3.0f64..3.0, -1e-6f64..1e-6, Just(0.0)],
            r_off_ohms in 1e3f64..1e13,
            gate_on in any::<bool>(),
        ) {
            let v = Voltage::new(volts);
            let mut one_r = ResistiveCell::new(params());
            one_r.device_mut().set_state(state);
            let exact = 1.0 / one_r.resistance().get();
            prop_assert_eq!(one_r.conductance_at(v, gate_on).to_bits(), exact.to_bits());
            prop_assert!(ulps(exact, probe_secant(&one_r, v, gate_on)) <= 1);

            let mut gated =
                TransistorCell::with_off_resistance(params(), Resistance::new(r_off_ohms));
            gated.device.set_state(state);
            let exact = if gate_on {
                1.0 / gated.device.resistance().get()
            } else {
                1.0 / r_off_ohms
            };
            prop_assert_eq!(gated.conductance_at(v, gate_on).to_bits(), exact.to_bits());
            prop_assert!(ulps(exact, probe_secant(&gated, v, gate_on)) <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "non-linearity must be >= 1")]
    fn selector_rejects_sublinear_alpha() {
        let _ = SelectorCell::new(params(), 0.5, Voltage::from_volts(2.0));
    }
}
