//! Accuracy contract of the default solver.
//!
//! For every configuration of the Fig. 3 study (`fig3_sneak`: each
//! junction option under floating, V/2 and V/3 bias, at each array size)
//! the default solver's `i_one`, `i_zero` and `margin` must lie within
//! [`BOUND`] (relative) of a reference solve. The reference is
//! [`SolverConfig::reference`]: it stops when no node moves by 1e-13 V in
//! a sweep, a rule independent of the default's relative-residual rule,
//! and with secants consistent to 1e-12.

use cim_crossbar::{
    read_margin_study_with, BiasScheme, Cell, CrsCell, ResistiveCell, SelectorCell, SolverConfig,
    TransistorCell, WorstCasePattern,
};
use cim_device::DeviceParams;

/// `fig3_sneak`'s array sides.
const SIZES: [usize; 5] = [4, 8, 16, 32, 64];

/// Largest relative distance from the reference any output may have. The
/// worst case measured is 2.2e-9: the margin of a floating 64×64 1R array,
/// a small difference of two large sense currents.
const BOUND: f64 = 1e-8;

/// Checks one junction under every bias scheme at every size.
fn check<C: Cell>(junction: &str, make: impl Fn() -> C) {
    for bias in [BiasScheme::Floating, BiasScheme::HalfV, BiasScheme::ThirdV] {
        let study = |config| {
            read_margin_study_with(
                |_, _| make(),
                &SIZES,
                bias,
                WorstCasePattern::AllOnes,
                config,
            )
        };
        let solved = study(SolverConfig::default());
        let reference = study(SolverConfig::reference());
        for (got, want) in solved.iter().zip(&reference) {
            for (output, value, exact) in [
                ("i_one", got.i_one.get(), want.i_one.get()),
                ("i_zero", got.i_zero.get(), want.i_zero.get()),
                ("margin", got.margin, want.margin),
            ] {
                assert!(
                    (value - exact).abs() <= BOUND * exact.abs(),
                    "{junction}/{bias}/n={} {output}: {value:e} vs reference {exact:e}",
                    got.n
                );
            }
        }
    }
}

#[test]
fn one_r_outputs_match_the_reference() {
    let p = DeviceParams::table1_cim();
    check("1R", || ResistiveCell::new(p.clone()));
}

#[test]
fn one_s1r_outputs_match_the_reference() {
    let p = DeviceParams::table1_cim();
    check("1S1R", || SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5));
}

#[test]
fn one_t1r_outputs_match_the_reference() {
    let p = DeviceParams::table1_cim();
    check("1T1R", || TransistorCell::new(p.clone()));
}

#[test]
fn crs_outputs_match_the_reference() {
    let p = DeviceParams::table1_cim();
    check("CRS", || CrsCell::new(p.clone()));
}
