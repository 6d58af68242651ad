//! A direct nodal solve of one crossbar access, written to share no code
//! with the crate's iterative solvers.
//!
//! It reads only [`Cell::current`], the bias voltages and the
//! [`Geometry`] fields. Every driver, sense source, wire segment and cell
//! is stamped into a dense Jacobian of Kirchhoff's current law, and
//! Newton's method runs to the solution, each step solved by LU
//! factorisation with partial pivoting. Ohmic cells make the system
//! linear, so Newton then lands in one step and confirms it with the
//! next. It is not meant to be fast; it is meant to be obviously right.
//!
//! Unknowns: with ideal wires (zero line resistance) each wordline and
//! each bitline is one node, `rows + cols` in all. With resistive wires
//! every crosspoint has a wordline node and a bitline node, `2 × rows ×
//! cols`, joined along each line by segments of `line_resistance`;
//! wordlines are driven at column 0 and bitlines at row `rows − 1`, the
//! placement the distributed solver documents.

use cim_crossbar::{BiasVoltages, Cell, Geometry};
use cim_units::Voltage;

/// What the oracle solved.
pub struct Exact {
    /// Current into the selected bitline's sense source, in amperes.
    pub sense_current: f64,
    /// Voltage across every cell, row-major; wordline side positive.
    pub cell_voltages: Vec<f64>,
}

/// Largest move of any node in one Newton step, in volts. It keeps the
/// iteration inside the region where a selector's tangent describes it.
const MAX_STEP: f64 = 0.05;

/// Newton stops once no node moved by more than this, in volts.
const CONVERGED_STEP: f64 = 1e-15;

/// Newton iterations before the oracle declares failure.
const MAX_ITERATIONS: usize = 200;

/// Floor of a cell tangent in siemens, so no node is left unconnected.
const TANGENT_FLOOR: f64 = 1e-18;

/// Node numbering of one access.
struct Nodes {
    rows: usize,
    cols: usize,
    distributed: bool,
}

impl Nodes {
    fn count(&self) -> usize {
        if self.distributed {
            2 * self.rows * self.cols
        } else {
            self.rows + self.cols
        }
    }

    /// The wordline node at crosspoint `(i, j)`.
    fn word(&self, i: usize, j: usize) -> usize {
        if self.distributed {
            i * self.cols + j
        } else {
            i
        }
    }

    /// The bitline node at crosspoint `(i, j)`.
    fn bit(&self, i: usize, j: usize) -> usize {
        if self.distributed {
            self.rows * self.cols + i * self.cols + j
        } else {
            self.rows + j
        }
    }
}

/// Kirchhoff's current law at every node: `f` is the net current into
/// each node, `jacobian` its derivative by the node potentials.
struct Kcl {
    f: Vec<f64>,
    jacobian: Vec<Vec<f64>>,
}

impl Kcl {
    fn new(n: usize) -> Self {
        Self {
            f: vec![0.0; n],
            jacobian: vec![vec![0.0; n]; n],
        }
    }

    /// Conductance `g` from node `a` (at `v_a`) to a fixed potential.
    fn source(&mut self, a: usize, v_a: f64, potential: f64, g: f64) {
        self.f[a] += g * (potential - v_a);
        self.jacobian[a][a] -= g;
    }

    /// A branch carrying `current` from node `a` to node `b`, whose
    /// derivative by `v_a − v_b` is `slope`.
    fn branch(&mut self, a: usize, b: usize, current: f64, slope: f64) {
        self.f[a] -= current;
        self.f[b] += current;
        self.jacobian[a][a] -= slope;
        self.jacobian[a][b] += slope;
        self.jacobian[b][b] -= slope;
        self.jacobian[b][a] += slope;
    }
}

/// Solves `a · x = rhs` by LU factorisation with partial pivoting.
///
/// # Panics
///
/// Panics if `a` is singular.
fn lu_solve(mut a: Vec<Vec<f64>>, mut rhs: Vec<f64>) -> Vec<f64> {
    let n = rhs.len();
    for k in 0..n {
        let pivot = (k..n)
            .max_by(|&x, &y| a[x][k].abs().total_cmp(&a[y][k].abs()))
            .expect("non-empty column");
        assert!(a[pivot][k] != 0.0, "singular nodal matrix at column {k}");
        a.swap(k, pivot);
        rhs.swap(k, pivot);
        let (upper, lower) = a.split_at_mut(k + 1);
        let row_k = &upper[k];
        for (offset, row) in lower.iter_mut().enumerate() {
            let factor = row[k] / row_k[k];
            if factor == 0.0 {
                continue;
            }
            row[k] = factor;
            for (x, &u) in row[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                *x -= factor * u;
            }
            rhs[k + 1 + offset] -= factor * rhs[k];
        }
    }
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let tail: f64 = a[k][k + 1..]
            .iter()
            .zip(&x[k + 1..])
            .map(|(u, x)| u * x)
            .sum();
        x[k] = (rhs[k] - tail) / a[k][k];
    }
    x
}

/// A cell's current at `v` and its tangent `dI/dv` by central difference.
fn current_and_tangent<C: Cell>(cell: &C, v: f64, gate_on: bool) -> (f64, f64) {
    let at = |v: f64| cell.current(Voltage::new(v), gate_on).get();
    let h = 1e-7 * v.abs().max(1e-3);
    let tangent = (at(v + h) - at(v - h)) / (2.0 * h);
    (at(v), tangent.max(TANGENT_FLOOR))
}

/// Solves an access of `selected` in the `rows × cols` grid `cells`
/// (row-major) under `bias`. The selected row's gates are on.
///
/// # Panics
///
/// Panics if Newton does not converge within [`MAX_ITERATIONS`].
pub fn solve<C: Cell>(
    cells: &[C],
    rows: usize,
    cols: usize,
    selected: (usize, usize),
    bias: BiasVoltages,
    geometry: &Geometry,
) -> Exact {
    assert_eq!(cells.len(), rows * cols, "cell grid shape mismatch");
    let (sel_r, sel_c) = selected;
    let nodes = Nodes {
        rows,
        cols,
        distributed: geometry.line_resistance.get() > 0.0,
    };
    let g_drv = 1.0 / geometry.driver_resistance.get();
    let g_sense = 1.0 / geometry.sense_resistance.get();
    let word_source = |i: usize| {
        if i == sel_r {
            Some((bias.wl_selected.get(), g_drv))
        } else {
            bias.wl_unselected.map(|v| (v.get(), g_drv))
        }
    };
    let bit_source = |j: usize| {
        if j == sel_c {
            Some((bias.bl_selected.get(), g_sense))
        } else {
            bias.bl_unselected.map(|v| (v.get(), g_drv))
        }
    };
    // Driven lines start at their source, floating ones at mid-rail.
    let mid = bias.wl_selected.get() / 2.0;
    let mut v = vec![0.0; nodes.count()];
    for i in 0..rows {
        for j in 0..cols {
            v[nodes.word(i, j)] = word_source(i).map_or(mid, |(s, _)| s);
            v[nodes.bit(i, j)] = bit_source(j).map_or(mid, |(s, _)| s);
        }
    }
    // Drivers sit at column 0 of each wordline and at row `rows − 1` of
    // each bitline; on lumped lines every crosspoint is the same node.
    let (driven_col, driven_row) = (0, rows - 1);
    let sense_node = nodes.bit(driven_row, sel_c);

    for _ in 0..MAX_ITERATIONS {
        let mut kcl = Kcl::new(nodes.count());
        for i in 0..rows {
            if let Some((s, g)) = word_source(i) {
                let a = nodes.word(i, driven_col);
                kcl.source(a, v[a], s, g);
            }
        }
        for j in 0..cols {
            if let Some((s, g)) = bit_source(j) {
                let a = nodes.bit(driven_row, j);
                kcl.source(a, v[a], s, g);
            }
        }
        if nodes.distributed {
            let g_line = 1.0 / geometry.line_resistance.get();
            for i in 0..rows {
                for j in 0..cols {
                    if j > 0 {
                        let (a, b) = (nodes.word(i, j - 1), nodes.word(i, j));
                        kcl.branch(a, b, g_line * (v[a] - v[b]), g_line);
                    }
                    if i > 0 {
                        let (a, b) = (nodes.bit(i - 1, j), nodes.bit(i, j));
                        kcl.branch(a, b, g_line * (v[a] - v[b]), g_line);
                    }
                }
            }
        }
        for i in 0..rows {
            for j in 0..cols {
                let (a, b) = (nodes.word(i, j), nodes.bit(i, j));
                let (current, slope) =
                    current_and_tangent(&cells[i * cols + j], v[a] - v[b], i == sel_r);
                kcl.branch(a, b, current, slope);
            }
        }
        // Newton: J · Δ = −f.
        let rhs = kcl.f.iter().map(|f| -f).collect();
        let mut step = lu_solve(kcl.jacobian, rhs);
        let largest = step.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        if largest > MAX_STEP {
            let scale = MAX_STEP / largest;
            for d in &mut step {
                *d *= scale;
            }
        }
        for (v, d) in v.iter_mut().zip(&step) {
            *v += d;
        }
        if largest < CONVERGED_STEP {
            let cell_voltages = (0..rows * cols)
                .map(|k| v[nodes.word(k / cols, k % cols)] - v[nodes.bit(k / cols, k % cols)])
                .collect();
            return Exact {
                sense_current: (v[sense_node] - bias.bl_selected.get()) * g_sense,
                cell_voltages,
            };
        }
    }
    panic!("the nodal oracle did not converge in {MAX_ITERATIONS} Newton steps");
}
