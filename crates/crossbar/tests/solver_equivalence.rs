//! Equivalence suite for the optimized solver hot path.
//!
//! The warm-started, workspace-backed solvers must reproduce cold-start
//! answers: warm starting changes the iteration's initial guess, never its
//! fixed point, so `solve_access` on a warm array is pinned to the same
//! access on a copy whose warm start was dropped
//! (`Crossbar::invalidate_warm_start`), within the solver's accuracy,
//! across every junction kind × bias scheme. Parallel line relaxation is
//! pinned harder still — bit-identical `ReadResult`s at any thread count —
//! and three reference solves are pinned to their exact output bits.

use cim_crossbar::{
    BiasScheme, Cell, Crossbar, CrsCell, DistributedSolver, Geometry, LumpedSolver, ReadResult,
    ResistiveCell, SelectorCell, SolvedRead, TransistorCell,
};
use cim_device::DeviceParams;
use cim_units::Voltage;

const N: usize = 16;

/// Absolute tolerance for warm-vs-cold agreement. The solvers stop at a
/// 1e-12 relative KCL residual; sense currents here are below 1e-3 A and
/// parasitic powers below 1e-3 W, so both starts land far inside 1e-9.
const TOL: f64 = 1e-9;

fn assert_warm_tracks_cold<C: Cell + Clone>(
    label: &str,
    array: &mut Crossbar<C>,
    v: Voltage,
    bias: BiasScheme,
) {
    // A logic-program-like cadence: each access is solved, one cell is
    // reprogrammed, and the same access is solved again, so the warm
    // start always seeds from a perturbed conductance map.
    let accesses = [(0, N - 1), (N - 1, 0), (N / 2, N / 2), (0, N - 1)];
    for (step, &(r, c)) in accesses.iter().enumerate() {
        let _ = array.solve_access(r, c, v, bias);
        array.program(step % N, (step * 3 + 1) % N, step % 2 == 0);
        let mut fresh = array.clone();
        fresh.invalidate_warm_start();
        let cold = fresh.solve_access(r, c, v, bias);
        let warm = array.solve_access(r, c, v, bias);
        let di = (warm.sense_current.get() - cold.sense_current.get()).abs();
        let dp = (warm.parasitic_power.get() - cold.parasitic_power.get()).abs();
        assert!(
            di < TOL,
            "{label}/{bias} step {step}: sense current drift {di:e}"
        );
        assert!(
            dp < TOL,
            "{label}/{bias} step {step}: parasitic power drift {dp:e}"
        );
    }
}

#[test]
fn warm_solves_match_cold_across_junctions_and_biases() {
    let p = DeviceParams::table1_cim();
    let biases = [BiasScheme::Floating, BiasScheme::HalfV, BiasScheme::ThirdV];
    for bias in biases {
        let read_v = p.v_set * 0.5;

        let mut bare = Crossbar::homogeneous(N, N, || ResistiveCell::new(p.clone()));
        bare.fill(|r, c| (r + c) % 2 == 0);
        assert_warm_tracks_cold("1R", &mut bare, read_v, bias);

        let mut guarded =
            Crossbar::homogeneous(N, N, || SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5));
        guarded.fill(|r, c| (r + c) % 2 == 0);
        assert_warm_tracks_cold("1S1R", &mut guarded, read_v, bias);

        let mut gated = Crossbar::homogeneous(N, N, || TransistorCell::new(p.clone()));
        gated.fill(|r, c| (r + c) % 2 == 0);
        assert_warm_tracks_cold("1T1R", &mut gated, read_v, bias);

        // CRS cells need the larger write-voltage rail to open their ON
        // window; the solver equivalence holds regardless of rail.
        let mut crs = Crossbar::homogeneous(N, N, || CrsCell::new(p.clone()));
        crs.fill(|r, c| (r + c) % 2 == 0);
        assert_warm_tracks_cold("CRS", &mut crs, p.write_voltage * 0.95, bias);
    }
}

#[test]
fn warm_solves_match_cold_on_distributed_wires() {
    let p = DeviceParams::table1_cim();
    let mut array = Crossbar::homogeneous(N, N, || ResistiveCell::new(p.clone()))
        .with_geometry(Geometry::nanowire(p.cell_area));
    array.fill(|r, c| (r + c) % 2 == 0);
    for bias in [BiasScheme::Floating, BiasScheme::HalfV, BiasScheme::ThirdV] {
        assert_warm_tracks_cold("1R/nanowire", &mut array, p.v_set * 0.5, bias);
    }
}

/// Runs the same operation sequence on a fresh array with the given
/// solver thread count and returns every `ReadResult` it produced.
fn scripted_reads(threads: usize) -> Vec<ReadResult> {
    let p = DeviceParams::table1_cim();
    let mut array = Crossbar::homogeneous(N, N, || ResistiveCell::new(p.clone()))
        .with_geometry(Geometry::nanowire(p.cell_area))
        .with_solver_threads(threads);
    array.fill(|r, c| (r * 7 + c) % 3 == 0);
    let mut out = Vec::new();
    for step in 0..4 {
        array.program(step, (step * 5 + 2) % N, step % 2 == 0);
        out.push(array.read(step, (step * 5 + 2) % N, BiasScheme::HalfV));
        out.push(array.read(N - 1 - step, step, BiasScheme::ThirdV));
    }
    out.push(array.read_multistage(0, N - 1, BiasScheme::HalfV));
    out
}

#[test]
fn read_results_are_bit_identical_across_thread_counts() {
    let serial = scripted_reads(1);
    for threads in [2, 4, 0] {
        let parallel = scripted_reads(threads);
        assert_eq!(
            serial, parallel,
            "parallel line relaxation must be bit-identical at {threads} threads"
        );
    }
}

/// Order-sensitive digest of a voltage map's exact bits.
fn bits_checksum(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A `rows × cols` grid of freshly built cells programmed to `bit(r, c)`.
fn programmed<C: Cell>(
    rows: usize,
    cols: usize,
    make: impl Fn() -> C,
    bit: impl Fn(usize, usize) -> bool,
) -> Vec<C> {
    (0..rows * cols)
        .map(|k| {
            let mut cell = make();
            cell.program(bit(k / cols, k % cols));
            cell
        })
        .collect()
}

/// `(sense_current, parasitic_power, iterations, cell_voltages digest)`
/// in exact bits.
fn golden(solved: &SolvedRead) -> (u64, u64, usize, u64) {
    (
        solved.sense_current.get().to_bits(),
        solved.parasitic_power.get().to_bits(),
        solved.iterations,
        bits_checksum(&solved.cell_voltages),
    )
}

/// The solvers' exact output bits on three reference accesses, pinned so
/// that a hot-path optimisation which claims to be bit-identical has to
/// prove it: a linear gated 1T1R read, a non-linear 1S1R solve under
/// floating bias and a distributed-wire 1R solve. These bits pin
/// determinism only; how close the answers are to the converged network
/// is the contract of `tests/accuracy.rs`.
#[test]
fn reference_solves_keep_their_exact_bits() {
    let p = DeviceParams::table1_cim();
    let read_v = p.v_set * 0.5;
    let ideal = Geometry::ideal(p.cell_area);

    let gated = programmed(
        16,
        16,
        || TransistorCell::new(p.clone()),
        |r, c| (r * 5 + c) % 3 == 0,
    );
    let one_t1r = LumpedSolver::default().solve(
        &gated,
        16,
        16,
        (3, 11),
        BiasScheme::HalfV.voltages(read_v),
        &ideal,
    );
    let guarded = programmed(
        12,
        12,
        || SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5),
        |r, c| (r + 2 * c) % 3 != 0,
    );
    let one_s1r = LumpedSolver::default().solve(
        &guarded,
        12,
        12,
        (5, 2),
        BiasScheme::Floating.voltages(read_v),
        &ideal,
    );
    let bare = programmed(
        12,
        12,
        || ResistiveCell::new(p.clone()),
        |r, c| (r * 7 + c) % 4 != 1,
    );
    let nanowire = DistributedSolver::default().solve(
        &bare,
        12,
        12,
        (0, 11),
        BiasScheme::ThirdV.voltages(read_v),
        &Geometry::nanowire(p.cell_area),
    );
    let expected = [
        (
            "1T1R",
            &one_t1r,
            (
                0x3ea0_c872_71ca_9a13,
                0x3f03_ed6e_d81c_2836,
                3,
                0x15ba_2839_8aa8_7ad7,
            ),
        ),
        (
            "1S1R",
            &one_s1r,
            (
                0x3ea1_20d9_002f_b6a4,
                0x3e37_9306_a4e0_9254,
                234,
                0x6240_8a3d_ac84_d896,
            ),
        ),
        (
            "1R/nanowire",
            &nanowire,
            (
                0x3f26_022d_554f_cd81,
                0x3f32_d32b_f090_708c,
                5,
                0xb757_68a0_0af5_bf2b,
            ),
        ),
    ];
    for (label, solved, bits) in expected {
        assert!(solved.converged, "{label} did not converge");
        assert_eq!(golden(solved), bits, "{label} solve changed its bits");
    }
}
