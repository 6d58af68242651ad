//! Accuracy contract of the default solvers.
//!
//! Every answer is held to [`oracle`], a direct nodal solve that shares no
//! code with the solvers: it stamps the full Kirchhoff system, factors it
//! by LU with partial pivoting and runs Newton for non-ohmic cells.
//!
//! * The Fig. 3 study (`fig3_sneak`): every junction option under
//!   floating, V/2 and V/3 bias, at each array size, must report sense
//!   currents and margins within a stated bound of the oracle's, on ideal
//!   wires and on [`Geometry::nanowire`]. Each read is compared on the
//!   cell grid it actually senses, after its read pulse, so a CRS cell
//!   that the pulse switched ON is covered too.
//! * The `crossbar_rw` array shape (1T1R under V/2) at a small side, for
//!   every selected cell at the read amplitude and at ± the write
//!   amplitude.
//! * A property search over random grids, bits, selections, schemes and
//!   both geometries for each junction.

mod oracle;

use cim_crossbar::{
    read_margin_study_with, BiasScheme, Cell, CellOps, Crossbar, CrsCell, DistributedSolver,
    Geometry, JunctionKind, ResistiveCell, SelectorCell, SolvedRead, SolverConfig, TransistorCell,
    WorstCasePattern,
};
use cim_device::DeviceParams;
use cim_units::Voltage;
use proptest::prelude::*;

/// `fig3_sneak`'s array sides.
const SIZES: [usize; 5] = [4, 8, 16, 32, 64];

/// The bias schemes `fig3_sneak --bias-sweep` covers.
const SCHEMES: [BiasScheme; 3] = [BiasScheme::Floating, BiasScheme::HalfV, BiasScheme::ThirdV];

/// Largest relative distance of a Fig. 3 sense current from the
/// oracle's on ideal wires; margins `(i_one − i_zero) / i_one` are held to
/// it relative to `max(|margin|, 1)`. The worst case measured is 3.9e-11:
/// `i_zero` of a floating 64×64 1R array, whose margin is off by 7.4e-11.
const FIG3_IDEAL: f64 = 1e-9;

/// [`FIG3_IDEAL`] on [`Geometry::nanowire`]. The worst case measured is
/// 4.2e-9: `i_zero` of a floating 16×16 1R array, whose margin is off by
/// 7.3e-9.
const FIG3_NANOWIRE: f64 = 2.5e-8;

/// How far a single solve may lie from the oracle.
struct Bounds {
    /// Relative distance of the sense current.
    current: f64,
    /// Largest distance of any cell voltage, relative to the amplitude.
    voltage: f64,
}

/// [`Bounds`] on ideal wires. The worst cases measured over 4,000 random
/// draws are 2.2e-11 (sense current) and 3.7e-11 (cell voltage), both of
/// floating 1R arrays; on the `crossbar_rw` shape they are 1.5e-15 and
/// 1.0e-15.
const IDEAL: Bounds = Bounds {
    current: 1e-9,
    voltage: 1e-9,
};

/// [`Bounds`] on [`Geometry::nanowire`]. The solvers stop on a residual
/// relative to each node's Norton current, which the 0.4 S wire segments
/// dominate, so on floating lines a small sense current or a small cell
/// voltage carries a larger relative error. Over 4,000 random draws the
/// worst cases measured are 1.7e-8 (the sense current of a floating 5×5
/// 1R array) and 2.6e-6 (a cell voltage of a floating 7×7 1S1R array),
/// and both still grew with the number of draws, so the bounds leave
/// room for the tail.
const NANOWIRE: Bounds = Bounds {
    current: 1e-6,
    voltage: 5e-5,
};

/// Whether an access belongs to the one class of solves known not to
/// converge: floating selector (1S1R) lines on resistive wires. Their
/// cells at near-zero voltage see their secants move by about 1e-5 from
/// sweep to sweep, far above the solver's 1e-9 secant bound, so every
/// such solve spends the whole sweep budget with its KCL residual near
/// 1e-12. Their answers are still held to the oracle; only the
/// `converged` flag is not asserted for them.
fn known_to_stall(junction: JunctionKind, bias: BiasScheme, geometry: &Geometry) -> bool {
    junction == JunctionKind::OneS1R
        && bias == BiasScheme::Floating
        && geometry.line_resistance.get() > 0.0
}

/// The worst relative distance seen so far and where.
#[derive(Default)]
struct Worst {
    error: f64,
    at: String,
}

impl Worst {
    fn note(&mut self, error: f64, at: impl FnOnce() -> String) {
        if error > self.error || error.is_nan() {
            self.error = error;
            self.at = at();
        }
    }

    fn assert_within(&self, bound: f64, what: &str) {
        assert!(
            self.error <= bound,
            "{what}: {:e} off the oracle at {}, bound {bound:e}",
            self.error,
            self.at
        );
    }
}

fn relative(got: f64, exact: f64) -> f64 {
    (got - exact).abs() / exact.abs()
}

/// The cells of `array` as `array.read(r, c, bias)` senses them: after
/// its read pulse, which stresses each cell with the voltage of the
/// pre-pulse solve.
fn sensed_grid<C: Cell + Clone>(
    array: &Crossbar<C>,
    r: usize,
    c: usize,
    bias: BiasScheme,
) -> Vec<C> {
    let mut pulsed = array.clone();
    let (v_read, pulse) = (
        pulsed.cell(r, c).read_amplitude(),
        pulsed.cell(r, c).op_pulse(),
    );
    let pre = pulsed.solve_access(r, c, v_read, bias);
    let (rows, cols) = pulsed.dimensions();
    (0..rows * cols)
        .map(|k| {
            let (i, j) = (k / cols, k % cols);
            let mut cell = pulsed.cell(i, j).clone();
            cell.stress(Voltage::new(pre.cell_voltages[k]), pulse, i == r);
            cell
        })
        .collect()
}

/// The two reads of one Fig. 3 point (selected cell storing 1, then 0),
/// made as `read_margin_study_with` makes them but on `geometry`: the
/// solver's sense currents and the oracle's on the grids they sensed.
/// Asserts that each solve converged.
fn fig3_point<C: Cell + Clone>(
    make: &impl Fn() -> C,
    n: usize,
    bias: BiasScheme,
    geometry: Geometry,
) -> [(f64, f64); 2] {
    let mut array = Crossbar::homogeneous(n, n, make).with_geometry(geometry);
    let (r, c) = (0, n - 1);
    array.fill(|_, _| true);
    [true, false].map(|bit| {
        array.program(r, c, bit);
        let grid = sensed_grid(&array, r, c, bias);
        let v_read = array.cell(r, c).read_amplitude();
        let read = array.read(r, c, bias);
        assert!(
            read.solved.converged || known_to_stall(array.junction(), bias, &geometry),
            "{}/{bias}/n={n}: residual {:e}",
            array.junction(),
            read.solved.residual
        );
        let exact = oracle::solve(&grid, n, n, (r, c), bias.voltages(v_read), &geometry);
        (read.sense_current.get(), exact.sense_current)
    })
}

/// The Fig. 3 margin of a pair of sense currents.
fn margin(one: f64, zero: f64) -> f64 {
    (one.abs() - zero.abs()) / one.abs().max(1e-30)
}

/// Checks one junction's Fig. 3 study at `sizes` on `geometry` within
/// `bound`. On ideal wires the reads are also pinned to the ones
/// `read_margin_study_with` makes, bit for bit.
fn check_fig3<C: Cell + Clone>(
    junction: &str,
    make: impl Fn() -> C,
    sizes: &[usize],
    geometry: Geometry,
    bound: f64,
) {
    let (mut currents, mut margins) = (Worst::default(), Worst::default());
    for bias in SCHEMES {
        let study = (geometry.line_resistance.get() == 0.0).then(|| {
            read_margin_study_with(
                |_, _| make(),
                sizes,
                bias,
                WorstCasePattern::AllOnes,
                SolverConfig::default(),
            )
        });
        for (k, &n) in sizes.iter().enumerate() {
            let [(one, exact_one), (zero, exact_zero)] = fig3_point(&make, n, bias, geometry);
            if let Some(study) = &study {
                let point = &study[k];
                assert_eq!(
                    point.i_one.get(),
                    one.abs(),
                    "{junction}/{bias}/n={n} i_one"
                );
                assert_eq!(
                    point.i_zero.get(),
                    zero.abs(),
                    "{junction}/{bias}/n={n} i_zero"
                );
            }
            for (output, got, exact) in [("i_one", one, exact_one), ("i_zero", zero, exact_zero)] {
                currents.note(relative(got, exact), || {
                    format!("{junction}/{bias}/n={n} {output}: {got:e} vs {exact:e}")
                });
            }
            let (got, exact) = (margin(one, zero), margin(exact_one, exact_zero));
            margins.note((got - exact).abs() / exact.abs().max(1.0), || {
                format!("{junction}/{bias}/n={n} margin: {got:e} vs {exact:e}")
            });
        }
    }
    currents.assert_within(bound, "sense current");
    margins.assert_within(bound, "margin");
}

fn params() -> DeviceParams {
    DeviceParams::table1_cim()
}

fn ideal() -> Geometry {
    Geometry::ideal(params().cell_area)
}

fn nanowire() -> Geometry {
    Geometry::nanowire(params().cell_area)
}

fn one_r() -> ResistiveCell {
    ResistiveCell::new(params())
}

fn one_s1r() -> SelectorCell {
    let p = params();
    SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5)
}

fn one_t1r() -> TransistorCell {
    TransistorCell::new(params())
}

fn crs() -> CrsCell {
    CrsCell::new(params())
}

#[test]
fn one_r_outputs_match_the_reference() {
    check_fig3("1R", one_r, &SIZES, ideal(), FIG3_IDEAL);
}

#[test]
fn one_s1r_outputs_match_the_reference() {
    check_fig3("1S1R", one_s1r, &SIZES, ideal(), FIG3_IDEAL);
}

#[test]
fn one_t1r_outputs_match_the_reference() {
    check_fig3("1T1R", one_t1r, &SIZES, ideal(), FIG3_IDEAL);
}

#[test]
fn crs_outputs_match_the_reference() {
    check_fig3("CRS", crs, &SIZES, ideal(), FIG3_IDEAL);
}

/// Nano-wire sides checked in tier-1; side 16 has its own ignored test.
const NANOWIRE_SIDES: [usize; 2] = [4, 8];

#[test]
fn nanowire_outputs_match_the_reference() {
    check_fig3("1R", one_r, &NANOWIRE_SIDES, nanowire(), FIG3_NANOWIRE);
    check_fig3("1S1R", one_s1r, &NANOWIRE_SIDES, nanowire(), FIG3_NANOWIRE);
    check_fig3("1T1R", one_t1r, &NANOWIRE_SIDES, nanowire(), FIG3_NANOWIRE);
    check_fig3("CRS", crs, &NANOWIRE_SIDES, nanowire(), FIG3_NANOWIRE);
}

/// A dense 512-unknown LU per Newton step: about 17 s in a debug build
/// and 2.3 s in release (2-vCPU host), so CI runs it in release
/// (`--include-ignored`).
#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn nanowire_side_16_matches_the_reference() {
    check_fig3("1R", one_r, &[16], nanowire(), FIG3_NANOWIRE);
    check_fig3("1S1R", one_s1r, &[16], nanowire(), FIG3_NANOWIRE);
    check_fig3("1T1R", one_t1r, &[16], nanowire(), FIG3_NANOWIRE);
    check_fig3("CRS", crs, &[16], nanowire(), FIG3_NANOWIRE);
}

/// How far `solved` lies from the oracle's `exact` answer to an access of
/// `amplitude`: the relative sense-current distance and the largest
/// cell-voltage distance over the amplitude.
fn distances(solved: &SolvedRead, exact: &oracle::Exact, amplitude: Voltage) -> (f64, f64) {
    let drift = solved
        .cell_voltages
        .iter()
        .zip(&exact.cell_voltages)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    (
        relative(solved.sense_current.get(), exact.sense_current),
        drift / amplitude.get().abs(),
    )
}

#[test]
fn crossbar_rw_accesses_match_the_reference() {
    // The benchmark's array shape (1T1R under V/2) at side 8, mixed bits,
    // every cell selected at the read amplitude and at ± the write
    // amplitude, through the array's warm-starting workspace. Then the
    // bits the benchmark checks: every read returns the stored bit, and
    // every write of the complement verifies and reads back, with no
    // other cell disturbed.
    let side = 8;
    let pattern = |r: usize, c: usize| (r * 7 + c * 3) % 5 < 2;
    let mut array = Crossbar::homogeneous(side, side, one_t1r);
    array.fill(pattern);
    let cell = array.cell(0, 0);
    let amplitudes = [
        cell.read_amplitude(),
        cell.write_amplitude(),
        -cell.write_amplitude(),
    ];
    let (mut currents, mut voltages) = (Worst::default(), Worst::default());
    for r in 0..side {
        for c in 0..side {
            for amplitude in amplitudes {
                let grid: Vec<TransistorCell> = (0..side * side)
                    .map(|k| array.cell(k / side, k % side).clone())
                    .collect();
                let bias = BiasScheme::HalfV;
                let solved = array.solve_access(r, c, amplitude, bias);
                let exact = oracle::solve(
                    &grid,
                    side,
                    side,
                    (r, c),
                    bias.voltages(amplitude),
                    &ideal(),
                );
                let (current, voltage) = distances(&solved, &exact, amplitude);
                let at = || format!("({r}, {c}) at {amplitude}");
                currents.note(current, at);
                voltages.note(voltage, at);
            }
        }
    }
    currents.assert_within(IDEAL.current, "sense current");
    voltages.assert_within(IDEAL.voltage, "cell voltage");

    let bias = BiasScheme::HalfV;
    let reads = |array: &mut Crossbar<TransistorCell>| -> Vec<bool> {
        (0..side * side)
            .map(|k| array.read(k / side, k % side, bias).bit)
            .collect()
    };
    let stored: Vec<bool> = (0..side * side)
        .map(|k| pattern(k / side, k % side))
        .collect();
    assert_eq!(reads(&mut array), stored, "reads of the stored pattern");
    for (k, &bit) in stored.iter().enumerate() {
        let (r, c) = (k / side, k % side);
        let outcome = array.write(r, c, !bit, bias);
        assert!(
            outcome.verified && outcome.flipped,
            "write of {} at ({r}, {c}): {outcome:?}",
            !bit
        );
    }
    let flipped: Vec<bool> = stored.iter().map(|&bit| !bit).collect();
    assert_eq!(reads(&mut array), flipped, "reads after the writes");
}

/// One access of a `rows × cols` grid of `make`'s cells programmed to
/// `bits`, at the cells' read amplitude, solved by the default solver and
/// by the oracle: their [`distances`]. Asserts that the solve converged.
fn random_access<C: Cell>(
    make: impl Fn() -> C,
    bits: &[bool],
    (rows, cols): (usize, usize),
    selected: (usize, usize),
    bias: BiasScheme,
    geometry: &Geometry,
) -> (f64, f64) {
    let cells: Vec<C> = bits[..rows * cols]
        .iter()
        .map(|&bit| {
            let mut cell = make();
            cell.program(bit);
            cell
        })
        .collect();
    let amplitude = cells[0].read_amplitude();
    let voltages = bias.voltages(amplitude);
    let solved =
        DistributedSolver::default().solve(&cells, rows, cols, selected, voltages, geometry);
    assert!(
        solved.converged || known_to_stall(cells[0].junction(), bias, geometry),
        "{}: residual {:e}",
        cells[0].junction(),
        solved.residual
    );
    let exact = oracle::solve(&cells, rows, cols, selected, voltages, geometry);
    distances(&solved, &exact, amplitude)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes, bits, selections, schemes and geometries: every
    /// junction's default solve stays within the bounds of the oracle.
    #[test]
    fn random_accesses_match_the_reference(
        rows in 2usize..=8,
        cols in 2usize..=8,
        bits in prop::collection::vec(any::<bool>(), 64),
        selected in (0usize..8, 0usize..8),
        scheme in prop_oneof![
            Just(BiasScheme::Floating),
            Just(BiasScheme::HalfV),
            Just(BiasScheme::ThirdV),
        ],
        wired in any::<bool>(),
    ) {
        let selected = (selected.0 % rows, selected.1 % cols);
        let (geometry, bounds) = if wired {
            (nanowire(), NANOWIRE)
        } else {
            (ideal(), IDEAL)
        };
        let shape = (rows, cols);
        let checks = [
            ("1R", random_access(one_r, &bits, shape, selected, scheme, &geometry)),
            ("1S1R", random_access(one_s1r, &bits, shape, selected, scheme, &geometry)),
            ("1T1R", random_access(one_t1r, &bits, shape, selected, scheme, &geometry)),
            ("CRS", random_access(crs, &bits, shape, selected, scheme, &geometry)),
        ];
        for (junction, (current, voltage)) in checks {
            prop_assert!(current <= bounds.current, "{junction}: sense current {current:e} off");
            prop_assert!(voltage <= bounds.voltage, "{junction}: cell voltage {voltage:e} off");
        }
    }
}
