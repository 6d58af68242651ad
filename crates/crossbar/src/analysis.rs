//! Read-margin vs array-size studies (the design space of Fig. 3).

use cim_units::{Current, Power};
use serde::{Deserialize, Serialize};

use crate::bias::BiasScheme;
use crate::cell::Cell;
use crate::crossbar::Crossbar;
use crate::solver::SolverConfig;

/// Background data pattern used for worst-case read analysis.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorstCasePattern {
    /// Every non-selected cell stores 1 (LRS) — the classic worst case:
    /// maximum sneak conductance in parallel with the selected cell.
    #[default]
    AllOnes,
    /// Alternating bits — a typical (less pessimistic) background.
    Checkerboard,
}

impl WorstCasePattern {
    fn bit(self, r: usize, c: usize) -> bool {
        match self {
            WorstCasePattern::AllOnes => true,
            WorstCasePattern::Checkerboard => (r + c).is_multiple_of(2),
        }
    }
}

/// One point of a read-margin study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarginPoint {
    /// Array side length (the array is `n × n`).
    pub n: usize,
    /// Sense current when the selected cell stores 1.
    pub i_one: Current,
    /// Sense current when the selected cell stores 0 (sneak-inflated).
    pub i_zero: Current,
    /// Normalised read margin `(i_one − i_zero) / i_one`; readable arrays
    /// need roughly > 0.1.
    pub margin: f64,
    /// Power burned in non-selected cells during the read.
    pub parasitic_power: Power,
    /// True when both reads' solves met their stop rule within the
    /// sweep budget; when false the two currents are whatever the last
    /// sweep left, not answers to the stated accuracy.
    pub converged: bool,
    /// The worse of the two solves' final relative KCL residuals
    /// ([`SolvedRead::residual`](crate::SolvedRead::residual)).
    pub residual: f64,
}

/// Sweeps array sizes and reports the worst-case read margin for a given
/// junction/bias combination.
///
/// The selected cell sits at the electrically worst corner (farthest from
/// both drivers) and the background stores `pattern`. For each size the
/// study solves the access twice — selected cell storing 1, then 0 — and
/// reports the margin between the two sense currents. This regenerates the
/// trade-off the paper's Fig. 3 sketches: bare 1R arrays lose their margin
/// within tens of lines, selector/CRS junctions hold it for thousands.
///
/// `make(r, c)` builds the cell for each position (fresh cells per size).
pub fn read_margin_study<C: Cell>(
    make: impl FnMut(usize, usize) -> C,
    sizes: &[usize],
    bias: BiasScheme,
    pattern: WorstCasePattern,
) -> Vec<MarginPoint> {
    read_margin_study_with(make, sizes, bias, pattern, SolverConfig::default())
}

/// [`read_margin_study`] under an explicit solver configuration (its
/// sweep budget). A study runs on the calling thread; independent
/// studies can run in parallel, as `fig3_sneak --threads N` runs its
/// bias × junction studies.
pub fn read_margin_study_with<C: Cell>(
    mut make: impl FnMut(usize, usize) -> C,
    sizes: &[usize],
    bias: BiasScheme,
    pattern: WorstCasePattern,
    config: SolverConfig,
) -> Vec<MarginPoint> {
    sizes
        .iter()
        .map(|&n| {
            assert!(n >= 2, "margin study needs at least a 2x2 array");
            let mut array = Crossbar::new(n, n, &mut make).with_solver_config(config);
            let sel = (0, n - 1);
            array.fill(|r, c| pattern.bit(r, c));

            // Full electrical reads (with the pulse), so CRS cells develop
            // their ON window and destructive reads are restored.
            array.program(sel.0, sel.1, true);
            let one = array.read(sel.0, sel.1, bias);
            array.program(sel.0, sel.1, false);
            let zero = array.read(sel.0, sel.1, bias);

            let i_one = one.sense_current.get().abs();
            let i_zero = zero.sense_current.get().abs();
            MarginPoint {
                n,
                i_one: Current::new(i_one),
                i_zero: Current::new(i_zero),
                margin: (i_one - i_zero) / i_one.max(1e-30),
                parasitic_power: zero.solved.parasitic_power,
                converged: one.solved.converged && zero.solved.converged,
                residual: one.solved.residual.max(zero.solved.residual),
            }
        })
        .collect()
}

/// Largest array side (from `sizes`) whose margin stays above `threshold`.
pub fn max_readable_size(points: &[MarginPoint], threshold: f64) -> Option<usize> {
    points
        .iter()
        .filter(|p| p.margin >= threshold)
        .map(|p| p.n)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CrsCell, ResistiveCell, SelectorCell, TransistorCell};
    use cim_device::DeviceParams;

    fn params() -> DeviceParams {
        DeviceParams::table1_cim()
    }

    const SIZES: [usize; 4] = [2, 4, 8, 16];

    #[test]
    fn one_r_floating_margin_collapses_with_size() {
        let points = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &SIZES,
            BiasScheme::Floating,
            WorstCasePattern::AllOnes,
        );
        assert_eq!(points.len(), SIZES.len());
        // Margin must be monotonically non-increasing and collapse.
        for w in points.windows(2) {
            assert!(w[1].margin <= w[0].margin + 1e-9);
        }
        let last = points.last().expect("nonempty");
        assert!(
            last.margin < 0.2,
            "1R floating margin should collapse by n=16, got {}",
            last.margin
        );
    }

    #[test]
    fn third_v_improves_bare_1r_margin() {
        let floating = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &[16],
            BiasScheme::Floating,
            WorstCasePattern::AllOnes,
        );
        let third_v = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &[16],
            BiasScheme::ThirdV,
            WorstCasePattern::AllOnes,
        );
        assert!(third_v[0].margin > floating[0].margin * 1.2);
    }

    #[test]
    fn bias_alone_cannot_rescue_bare_1r() {
        // The physics the paper's junction survey responds to: V/2 biasing
        // kills sneak paths through *unselected* cells, but the selected
        // column's half-selected LRS cells still inject current into the
        // sense node, so a bare-1R margin barely moves. Junction
        // engineering (selector/transistor/CRS) is what actually rescues
        // large arrays.
        let floating = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &[16],
            BiasScheme::Floating,
            WorstCasePattern::AllOnes,
        );
        let half_v = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &[16],
            BiasScheme::HalfV,
            WorstCasePattern::AllOnes,
        );
        assert!((half_v[0].margin - floating[0].margin).abs() < 0.05);
        let p = params();
        let guarded = read_margin_study(
            |_, _| SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5),
            &[16],
            BiasScheme::HalfV,
            WorstCasePattern::AllOnes,
        );
        assert!(guarded[0].margin > 0.9);
    }

    #[test]
    fn selector_beats_bare_resistor_under_floating_bias() {
        let p = params();
        let bare = read_margin_study(
            |_, _| ResistiveCell::new(p.clone()),
            &[16],
            BiasScheme::Floating,
            WorstCasePattern::AllOnes,
        );
        let guarded = read_margin_study(
            |_, _| SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5),
            &[16],
            BiasScheme::Floating,
            WorstCasePattern::AllOnes,
        );
        assert!(
            guarded[0].margin > bare[0].margin,
            "1S1R {} vs 1R {}",
            guarded[0].margin,
            bare[0].margin
        );
    }

    #[test]
    fn transistor_and_crs_hold_margin_at_size() {
        let p = params();
        let t = read_margin_study(
            |_, _| TransistorCell::new(p.clone()),
            &[16],
            BiasScheme::HalfV,
            WorstCasePattern::AllOnes,
        );
        assert!(t[0].margin > 0.8, "1T1R margin {}", t[0].margin);
        let crs = read_margin_study(
            |_, _| CrsCell::new(p.clone()),
            &[16],
            BiasScheme::HalfV,
            WorstCasePattern::AllOnes,
        );
        // CRS sensing is inverted (ON-window current spike when reading a
        // 0) and differential; require a solid raw window between the two
        // stored values even before leakage cancellation.
        assert!(
            crs[0].i_zero.get() > 5.0 * crs[0].i_one.get(),
            "CRS must keep a 5x sensing window: {} vs {}",
            crs[0].i_one,
            crs[0].i_zero
        );
    }

    #[test]
    fn max_readable_size_picks_threshold_crossing() {
        let points = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &SIZES,
            BiasScheme::Floating,
            WorstCasePattern::AllOnes,
        );
        let readable = max_readable_size(&points, 0.5);
        assert!(readable.is_some());
        assert!(readable.expect("some") < 16);
        // An impossible threshold yields None.
        assert_eq!(max_readable_size(&points, 2.0), None);
    }

    #[test]
    fn checkerboard_is_less_pessimistic_than_all_ones() {
        let all = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &[8],
            BiasScheme::Floating,
            WorstCasePattern::AllOnes,
        );
        let checker = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &[8],
            BiasScheme::Floating,
            WorstCasePattern::Checkerboard,
        );
        assert!(checker[0].margin >= all[0].margin);
    }

    #[test]
    fn points_carry_their_solves_convergence() {
        let study = |max_sweeps| {
            read_margin_study_with(
                |_, _| SelectorCell::new(params(), 10.0, params().v_set * 0.5),
                &[8],
                BiasScheme::Floating,
                WorstCasePattern::AllOnes,
                SolverConfig { max_sweeps },
            )[0]
        };
        let full = study(SolverConfig::default().max_sweeps);
        assert!(full.converged, "residual {:e}", full.residual);
        assert!(full.residual <= 1e-12, "residual {:e}", full.residual);
        // Two sweeps cannot settle a floating 1S1R array: the point says
        // so instead of passing off the last sweep's currents as answers.
        let cut = study(2);
        assert!(!cut.converged);
        assert!(cut.residual > 1e-12, "residual {:e}", cut.residual);
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn rejects_degenerate_sizes() {
        let _ = read_margin_study(
            |_, _| ResistiveCell::new(params()),
            &[1],
            BiasScheme::HalfV,
            WorstCasePattern::AllOnes,
        );
    }
}
