//! Online calibration: certified predictions versus observed ledgers,
//! reconciled in exact count-space.
//!
//! After every dispatched run the calibrator compares the estimate's
//! predicted [`CostLedger`] against the ledger the run actually
//! charged, and (in [`CalibrationMode::Online`]) refines one dyadic
//! scale factor per component × phase cell. The refinement never
//! leaves the conservation contract: factors are quantised through
//! [`ScaleTable::set`] (dyadic mantissas), applied to prices via
//! [`ScaleTable::rescale`] (which re-quantises through
//! `UnitCosts::set`), so a calibrated prediction is still *exact
//! counts × dyadic prices* — the same currency every ledger in the
//! workspace conserves bit-for-bit.
//!
//! [`CalibrationMode::Frozen`] records prediction errors without
//! touching the scales, which is what reproducible benches use: the
//! route taken on run *n* can never depend on the runs before it.

use cim_sim::CostEstimate;
use cim_units::{Component, CostLedger, Phase, ScaleTable};
use serde::{Deserialize, Serialize};

use crate::trace::Route;

/// Whether observations refine the scale tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CalibrationMode {
    /// Scales never change; errors are still recorded. Use for
    /// reproducible benches, where decision `n` must not depend on
    /// runs `0..n`.
    Frozen,
    /// Each observation refits the observed machine's per-cell scale
    /// factors (dyadically quantised).
    Online,
}

/// Tracks per-machine scale tables and the prediction-error history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibrator {
    mode: CalibrationMode,
    cim: ScaleTable,
    host: ScaleTable,
    errors: Vec<f64>,
}

/// Relative error between a predicted and an observed non-negative
/// quantity: zero when both are zero, one when only the observation is
/// zero (the prediction invented cost from nothing).
fn relative_error(predicted: f64, observed: f64) -> f64 {
    if observed > 0.0 {
        (predicted - observed).abs() / observed
    } else if predicted > 0.0 {
        1.0
    } else {
        0.0
    }
}

impl Calibrator {
    /// A calibrator with identity scales in the given mode.
    pub fn new(mode: CalibrationMode) -> Self {
        Self {
            mode,
            cim: ScaleTable::identity(),
            host: ScaleTable::identity(),
            errors: Vec::new(),
        }
    }

    /// A frozen calibrator (identity scales, never refined).
    pub fn frozen() -> Self {
        Self::new(CalibrationMode::Frozen)
    }

    /// An online calibrator.
    pub fn online() -> Self {
        Self::new(CalibrationMode::Online)
    }

    /// The mode observations run in.
    pub fn mode(&self) -> CalibrationMode {
        self.mode
    }

    /// Current scales for the CIM machine's prices.
    pub fn cim_scales(&self) -> &ScaleTable {
        &self.cim
    }

    /// Current scales for the host machine's prices.
    pub fn host_scales(&self) -> &ScaleTable {
        &self.host
    }

    /// Relative prediction errors, one per observation, in order.
    pub fn errors(&self) -> &[f64] {
        &self.errors
    }

    /// Reconciles one run: scores the estimate's *calibrated* ledger
    /// against the observed one, records the relative error (the worse
    /// of the energy and time axes), and — in online mode — refits the
    /// observed machine's scale factors cell by cell. Returns the
    /// recorded error.
    ///
    /// The refit is exact count-space arithmetic: for every cell the
    /// estimate counted, the new factor is the ratio of observed to
    /// *base-priced* cost (so factors never compound), quantised
    /// dyadically by [`ScaleTable::set`]. Cells the estimate never
    /// counted — or whose base price is zero — keep their factor:
    /// there is no evidence to refit them on.
    pub fn observe(&mut self, route: Route, estimate: &CostEstimate, observed: &CostLedger) -> f64 {
        let scales = match route {
            Route::Cim => &self.cim,
            Route::Host => &self.host,
        };
        let predicted = scales.rescale(&estimate.prices).evaluate(&estimate.counts);
        let error = relative_error(
            predicted.total_energy().get(),
            observed.total_energy().get(),
        )
        .max(relative_error(
            predicted.total_time().get(),
            observed.total_time().get(),
        ));
        self.errors.push(error);
        if self.mode == CalibrationMode::Online {
            let scales = match route {
                Route::Cim => &mut self.cim,
                Route::Host => &mut self.host,
            };
            for component in Component::ALL {
                for phase in Phase::ALL {
                    let count = estimate.counts.count(component, phase);
                    if count == 0 {
                        continue;
                    }
                    let seen = observed.entry(component, phase);
                    let base_energy =
                        estimate.prices.unit_energy(component, phase).get() * count as f64;
                    let base_time =
                        estimate.prices.unit_time(component, phase).get() * count as f64;
                    let refit = |base: f64, seen: f64, keep: f64| {
                        if base > 0.0 && seen > 0.0 {
                            seen / base
                        } else {
                            keep
                        }
                    };
                    let energy_factor = refit(
                        base_energy,
                        seen.energy.get(),
                        scales.energy_factor(component, phase),
                    );
                    let time_factor = refit(
                        base_time,
                        seen.time.get(),
                        scales.time_factor(component, phase),
                    );
                    scales.set(component, phase, energy_factor, time_factor);
                }
            }
        }
        error
    }
}

/// Versioned header of the calibrator persistence format.
const PERSIST_HEADER: &str = "cim-calibrator/1";

impl Calibrator {
    /// Serialises the calibrator (mode plus both scale tables) to a
    /// versioned text format whose factors round-trip *exactly*: every
    /// factor is written as the hex encoding of its `f64` bits, one
    /// `machine component phase energy time` line per non-identity
    /// cell. The error history is session-local and not persisted.
    pub fn save_string(&self) -> String {
        let mode = match self.mode {
            CalibrationMode::Frozen => "frozen",
            CalibrationMode::Online => "online",
        };
        let mut out = format!("{PERSIST_HEADER}\nmode {mode}\n");
        for (machine, scales) in [("cim", &self.cim), ("host", &self.host)] {
            for component in Component::ALL {
                for phase in Phase::ALL {
                    let energy = scales.energy_factor(component, phase);
                    let time = scales.time_factor(component, phase);
                    if energy == 1.0 && time == 1.0 {
                        continue;
                    }
                    out.push_str(&format!(
                        "{machine} {} {} {:016x} {:016x}\n",
                        component.label(),
                        phase.label(),
                        energy.to_bits(),
                        time.to_bits()
                    ));
                }
            }
        }
        out
    }

    /// Parses a calibrator previously written by
    /// [`save_string`](Self::save_string). Factors load through
    /// [`ScaleTable::set`], which is the identity on the already-dyadic
    /// saved values — the round-trip is bit-exact. The error history
    /// starts empty.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, or of a
    /// missing/unknown header, mode, machine, component, or phase. A
    /// factor that is non-finite or not positive is an error naming its
    /// line, never silently replaced: [`save_string`](Self::save_string)
    /// cannot write one, so such a file was not written by it.
    pub fn load_string(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty calibrator file")?;
        if header.trim() != PERSIST_HEADER {
            return Err(format!(
                "unknown calibrator header `{header}` (expected {PERSIST_HEADER})"
            ));
        }
        let mode_line = lines.next().ok_or("missing mode line")?;
        let mode = match mode_line.trim() {
            "mode frozen" => CalibrationMode::Frozen,
            "mode online" => CalibrationMode::Online,
            other => return Err(format!("unknown mode line `{other}`")),
        };
        let mut calibrator = Self::new(mode);
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [machine, component_label, phase_label, energy_hex, time_hex] = fields[..] else {
                return Err(format!("malformed calibrator line `{line}`"));
            };
            let component = Component::ALL
                .into_iter()
                .find(|c| c.label() == component_label)
                .ok_or_else(|| format!("unknown component `{component_label}`"))?;
            let phase = Phase::ALL
                .into_iter()
                .find(|p| p.label() == phase_label)
                .ok_or_else(|| format!("unknown phase `{phase_label}`"))?;
            let parse_bits = |hex: &str| {
                let factor = u64::from_str_radix(hex, 16)
                    .map(f64::from_bits)
                    .map_err(|_| format!("malformed factor `{hex}` in `{line}`"))?;
                if factor.is_finite() && factor > 0.0 {
                    Ok(factor)
                } else {
                    Err(format!(
                        "factor `{hex}` ({factor}) in `{line}` is not finite and positive"
                    ))
                }
            };
            let energy = parse_bits(energy_hex)?;
            let time = parse_bits(time_hex)?;
            let scales = match machine {
                "cim" => &mut calibrator.cim,
                "host" => &mut calibrator.host,
                other => return Err(format!("unknown machine `{other}`")),
            };
            scales.set(component, phase, energy, time);
        }
        Ok(calibrator)
    }

    /// Writes [`save_string`](Self::save_string) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.save_string())
    }

    /// Reads a calibrator from `path` via
    /// [`load_string`](Self::load_string).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; parse failures surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::load_string(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::online()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_units::{CountLedger, Energy, Time, UnitCosts};

    fn estimate(count: u64, energy_fj: f64, time_ps: f64) -> CostEstimate {
        let mut counts = CountLedger::new();
        counts.charge(Component::ImplyStep, Phase::Map, count);
        let mut prices = UnitCosts::new();
        prices.set(
            Component::ImplyStep,
            Phase::Map,
            Energy::from_femto_joules(energy_fj),
            Time::from_pico_seconds(time_ps),
        );
        CostEstimate {
            machine: "cim",
            counts,
            prices,
            certified: true,
        }
    }

    /// An observed ledger that charges 1.5x the estimate's energy and
    /// 0.5x its time.
    fn skewed_observation(est: &CostEstimate) -> CostLedger {
        let base = est.ledger();
        let cell = base.entry(Component::ImplyStep, Phase::Map);
        let mut observed = CostLedger::new();
        observed.charge(
            Component::ImplyStep,
            Phase::Map,
            Energy::new(cell.energy.get() * 1.5),
            Time::new(cell.time.get() * 0.5),
            cell.count,
        );
        observed
    }

    #[test]
    fn online_calibration_shrinks_error_to_quantisation() {
        let est = estimate(1000, 45.0, 0.27);
        let observed = skewed_observation(&est);
        let mut calibrator = Calibrator::online();
        let first = calibrator.observe(Route::Cim, &est, &observed);
        let second = calibrator.observe(Route::Cim, &est, &observed);
        // The time axis dominates: observed is half the prediction, so
        // |p - o| / o = 1.0 (the energy axis alone would read 1/3).
        assert!((first - 1.0).abs() < 1e-12, "first error {first}");
        // One refit lands within dyadic quantisation of the truth.
        assert!(second < 1e-6, "second error {second}");
        assert!(second <= first);
        assert_eq!(calibrator.errors().len(), 2);
        assert!(!calibrator.cim_scales().is_identity());
        assert!(calibrator.host_scales().is_identity());
    }

    #[test]
    fn frozen_calibration_records_but_never_refits() {
        let est = estimate(1000, 45.0, 0.27);
        let observed = skewed_observation(&est);
        let mut calibrator = Calibrator::frozen();
        let first = calibrator.observe(Route::Cim, &est, &observed);
        let second = calibrator.observe(Route::Cim, &est, &observed);
        assert_eq!(first, second, "frozen errors must not drift");
        assert!(calibrator.cim_scales().is_identity());
        assert_eq!(calibrator.mode(), CalibrationMode::Frozen);
    }

    #[test]
    fn calibrator_round_trips_exactly_through_the_text_format() {
        // Drive an online calibrator away from identity with a skewed
        // observation, then prove the persisted factors reload
        // bit-for-bit.
        let est = estimate(1000, 45.0, 0.27);
        let observed = skewed_observation(&est);
        let mut calibrator = Calibrator::online();
        calibrator.observe(Route::Cim, &est, &observed);
        assert!(!calibrator.cim_scales().is_identity());

        let text = calibrator.save_string();
        assert!(text.starts_with("cim-calibrator/1\nmode online\n"));
        let loaded = Calibrator::load_string(&text).expect("round-trip parses");
        assert_eq!(loaded.mode(), calibrator.mode());
        for component in Component::ALL {
            for phase in Phase::ALL {
                for (ours, theirs) in [
                    (calibrator.cim_scales(), loaded.cim_scales()),
                    (calibrator.host_scales(), loaded.host_scales()),
                ] {
                    assert_eq!(
                        ours.energy_factor(component, phase).to_bits(),
                        theirs.energy_factor(component, phase).to_bits(),
                        "energy factor drifted at {component:?}/{phase:?}"
                    );
                    assert_eq!(
                        ours.time_factor(component, phase).to_bits(),
                        theirs.time_factor(component, phase).to_bits(),
                        "time factor drifted at {component:?}/{phase:?}"
                    );
                }
            }
        }
        // A second generation survives unchanged too: saved factors are
        // already dyadic, so `ScaleTable::set` is the identity on them.
        assert_eq!(loaded.save_string(), text);
    }

    #[test]
    fn identity_calibrators_persist_compactly() {
        let text = Calibrator::frozen().save_string();
        assert_eq!(text, "cim-calibrator/1\nmode frozen\n");
        let loaded = Calibrator::load_string(&text).expect("parses");
        assert!(loaded.cim_scales().is_identity());
        assert!(loaded.host_scales().is_identity());
        assert_eq!(loaded.mode(), CalibrationMode::Frozen);
    }

    #[test]
    fn malformed_calibrator_files_are_rejected_with_evidence() {
        for (text, needle) in [
            ("", "empty"),
            ("cim-calibrator/0\nmode frozen\n", "unknown calibrator header"),
            ("cim-calibrator/1\n", "missing mode"),
            ("cim-calibrator/1\nmode warm\n", "unknown mode"),
            (
                "cim-calibrator/1\nmode frozen\ncim imply_step\n",
                "malformed calibrator line",
            ),
            (
                "cim-calibrator/1\nmode frozen\ngpu imply_step map 3ff0000000000000 3ff0000000000000\n",
                "unknown machine",
            ),
            (
                "cim-calibrator/1\nmode frozen\ncim warp_shuffle map 3ff0000000000000 3ff0000000000000\n",
                "unknown component",
            ),
            (
                "cim-calibrator/1\nmode frozen\ncim imply_step zap 3ff0000000000000 3ff0000000000000\n",
                "unknown phase",
            ),
            (
                "cim-calibrator/1\nmode frozen\ncim imply_step map nothex 3ff0000000000000\n",
                "malformed factor",
            ),
            (
                "cim-calibrator/1\nmode frozen\ncim imply_step map 7ff8000000000000 3ff0000000000000\n",
                "`7ff8000000000000` (NaN) in `cim imply_step map",
            ),
            (
                "cim-calibrator/1\nmode frozen\nhost imply_step map 3ff0000000000000 bff0000000000000\n",
                "`bff0000000000000` (-1) in `host imply_step map",
            ),
            (
                "cim-calibrator/1\nmode frozen\ncim imply_step map 7ff0000000000000 3ff0000000000000\n",
                "not finite and positive",
            ),
            (
                "cim-calibrator/1\nmode frozen\ncim imply_step map 0000000000000000 3ff0000000000000\n",
                "not finite and positive",
            ),
        ] {
            let err = Calibrator::load_string(text).expect_err(needle);
            assert!(err.contains(needle), "`{err}` missing `{needle}`");
        }
    }

    #[test]
    fn subnormal_factors_load_as_finite_scales() {
        // 2^-1074 and 2^-1022: positive and finite, so they load, and
        // the dyadic quantisation must keep them finite (not NaN).
        for hex in ["0000000000000001", "0010000000000000"] {
            let text = format!("cim-calibrator/1\nmode frozen\ncim imply_step map {hex} {hex}\n");
            let loaded = Calibrator::load_string(&text).expect(hex);
            let scales = loaded.cim_scales();
            for factor in [
                scales.energy_factor(Component::ImplyStep, Phase::Map),
                scales.time_factor(Component::ImplyStep, Phase::Map),
            ] {
                assert!(factor.is_finite() && factor > 0.0, "{hex} -> {factor}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_calibrator_lines_load_or_error_without_panicking(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 6),
            energy in proptest::prelude::any::<u64>(),
            time in proptest::prelude::any::<u64>(),
        ) {
            // Each field is drawn from valid labels plus garbage, and the
            // field count varies, so every parse branch is reachable.
            let machines = ["cim", "host", "gpu", ""];
            let components: Vec<&str> = Component::ALL
                .iter()
                .map(|c| c.label())
                .chain(["warp_shuffle"])
                .collect();
            let phases: Vec<&str> =
                Phase::ALL.iter().map(|p| p.label()).chain(["zap"]).collect();
            let pick = |options: &[&'static str], i: usize| {
                options[picks[i] as usize % options.len()]
            };
            let fields = [
                pick(&machines, 0).to_string(),
                pick(&components, 1).to_string(),
                pick(&phases, 2).to_string(),
                format!("{energy:016x}"),
                if picks[3].is_multiple_of(8) {
                    "nothex".into()
                } else {
                    format!("{time:016x}")
                },
            ];
            let kept = if picks[4].is_multiple_of(4) { picks[5] as usize % 5 } else { 5 };
            let text =
                format!("cim-calibrator/1\nmode online\n{}\n", fields[..kept].join(" "));
            match Calibrator::load_string(&text) {
                Ok(loaded) => {
                    for scales in [loaded.cim_scales(), loaded.host_scales()] {
                        for c in Component::ALL {
                            for p in Phase::ALL {
                                let e = scales.energy_factor(c, p);
                                let t = scales.time_factor(c, p);
                                proptest::prop_assert!(e.is_finite() && e > 0.0, "{text}");
                                proptest::prop_assert!(t.is_finite() && t > 0.0, "{text}");
                            }
                        }
                    }
                }
                Err(err) => proptest::prop_assert!(!err.is_empty()),
            }
        }
    }

    /// A positive factor covering every finite exponent (subnormals and
    /// zero included; `ScaleTable::set` maps zero to 1) from raw bits.
    fn factor_from_bits(bits: u64) -> f64 {
        const MANTISSA: u64 = (1 << 52) - 1;
        f64::from_bits(((bits >> 53) % 0x7ff) << 52 | (bits & MANTISSA))
    }

    /// A calibrator whose scale tables hold `cells`, each a raw
    /// `(cell selector, energy bits, time bits)` draw.
    fn calibrator_with(online: bool, cells: &[(u64, u64, u64)]) -> Calibrator {
        let mut calibrator = if online {
            Calibrator::online()
        } else {
            Calibrator::frozen()
        };
        for &(selector, energy, time) in cells {
            let component = Component::ALL[selector as usize % Component::ALL.len()];
            let phase = Phase::ALL[(selector >> 8) as usize % Phase::ALL.len()];
            let scales = if selector >> 16 & 1 == 0 {
                &mut calibrator.cim
            } else {
                &mut calibrator.host
            };
            scales.set(
                component,
                phase,
                factor_from_bits(energy),
                factor_from_bits(time),
            );
        }
        calibrator
    }

    /// A non-empty line no calibrator field can parse: the first token
    /// carries `#`, which is in no label and is not a hex digit.
    fn garbage_line(bytes: &[u8]) -> String {
        const ALPHABET: [char; 24] = [
            'a', 'c', 'f', 'i', 'm', 'p', 's', 't', '0', '1', '7', '9', '_', '-', '/', '.', 'x',
            'é', 'λ', ' ', ' ', '\t', '\r', '#',
        ];
        let tail: String = bytes
            .iter()
            .map(|&b| ALPHABET[b as usize % ALPHABET.len()])
            .collect();
        format!("#{tail}")
    }

    proptest::proptest! {
        #[test]
        fn garbage_calibrator_text_is_an_error_never_a_panic(
            corruption in 0u64..4,
            position in proptest::prelude::any::<u64>(),
            garbage in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
            bad_bits in proptest::prelude::any::<u64>(),
            cells in proptest::collection::vec(
                (
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                ),
                0..6,
            ),
        ) {
            // A valid file with at least one factor line, then one
            // corruption: a garbage header, a garbage mode line, a
            // garbage line anywhere in the body, or one factor field
            // replaced by garbage, an overflowing hex run, or the bits of
            // a non-finite or non-positive factor.
            let mut calibrator = calibrator_with(position & 1 == 1, &cells);
            calibrator.cim.set(Component::ImplyStep, Phase::Map, 1.5, 0.75);
            let mut lines: Vec<String> =
                calibrator.save_string().lines().map(str::to_string).collect();
            let garbage = garbage_line(&garbage);
            match corruption {
                0 => lines[0] = garbage,
                1 => lines[1] = garbage,
                2 => {
                    let at = 2 + position as usize % (lines.len() - 1);
                    lines.insert(at, garbage);
                }
                _ => {
                    let at = 2 + position as usize % (lines.len() - 2);
                    let mut fields: Vec<String> =
                        lines[at].split(' ').map(str::to_string).collect();
                    let bad = match bad_bits % 5 {
                        0 => garbage,
                        1 => format!("1{bad_bits:016x}"),
                        2 => format!("{:016x}", bad_bits | 1 << 63),
                        3 => format!("{:016x}", bad_bits | 0x7ff << 52),
                        _ => "0000000000000000".to_string(),
                    };
                    fields[3 + (position >> 1) as usize % 2] = bad;
                    lines[at] = fields.join(" ");
                }
            }
            let text = lines.join("\n");
            match Calibrator::load_string(&text) {
                Ok(_) => proptest::prop_assert!(false, "garbage loaded:\n{text}"),
                Err(err) => proptest::prop_assert!(!err.is_empty()),
            }
        }

        #[test]
        fn dyadic_scale_tables_round_trip_exactly(
            online in proptest::prelude::any::<bool>(),
            cells in proptest::collection::vec(
                (
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                ),
                0..40,
            ),
        ) {
            let calibrator = calibrator_with(online, &cells);
            let text = calibrator.save_string();
            let loaded = Calibrator::load_string(&text).expect("saved text loads");
            proptest::prop_assert_eq!(&loaded, &calibrator);
            proptest::prop_assert_eq!(loaded.save_string(), text);
        }
    }

    #[test]
    fn calibrator_save_load_round_trips_through_a_file() {
        let est = estimate(512, 45.0, 0.27);
        let observed = skewed_observation(&est);
        let mut calibrator = Calibrator::online();
        calibrator.observe(Route::Cim, &est, &observed);
        let dir = std::env::temp_dir();
        let path = dir.join("cim-calibrator-roundtrip-test.txt");
        calibrator.save(&path).expect("save");
        let loaded = Calibrator::load(&path).expect("load");
        assert_eq!(loaded.save_string(), calibrator.save_string());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn perfect_predictions_have_zero_error() {
        let est = estimate(64, 45.0, 0.27);
        let observed = est.ledger();
        let mut calibrator = Calibrator::online();
        assert_eq!(calibrator.observe(Route::Host, &est, &observed), 0.0);
        // Refitting on a perfect observation keeps factors at identity
        // up to dyadic quantisation (1.0 is exactly dyadic).
        assert!(calibrator.host_scales().max_deviation() < 1e-7);
    }
}
