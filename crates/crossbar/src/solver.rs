//! Electrical solvers for crossbar accesses.
//!
//! Two fidelity levels:
//!
//! * [`LumpedSolver`] — each wordline/bitline is one equipotential node
//!   (valid when wire resistance is negligible, the regime the paper's
//!   Table 1 assumes). Handles floating lines and non-linear cells by
//!   Gauss-Seidel iteration with secant-conductance refresh.
//! * [`DistributedSolver`] — one node per crosspoint per line, capturing
//!   IR drop along the nano-wires (each sweep solves every line exactly
//!   with the crossing lines held fixed).
//!
//! Both return a [`SolvedRead`]: the sense current plus the full per-cell
//! voltage map, which the array layer uses for disturb stressing and
//! half-select power accounting.
//!
//! # Convergence
//!
//! A sweep updates every wordline node, then every bitline node, then
//! refreshes the secant conductances. Three rules decide how a solve
//! converges, and none of them depends on the thread count:
//!
//! * **Stop rule.** By default ([`StopRule::Residual`]) a solve stops when
//!   two things hold. First, every node's KCL residual is at most 1e-12 of
//!   its Norton current `Σ g·|v|` over its branches and source. The
//!   lumped solver reads the residual off the row/column sums `Σ g·v` and
//!   `Σ g` that the update forms anyway; the distributed solver forms it
//!   from each line's tridiagonal system before solving it. Second, every
//!   stored conductance `g` is consistent with its cell at the voltages
//!   the sweep reached: `|secant/g − 1| <= 1e-9`. Both are functions of
//!   the potentials, not of the step the iteration took, so a short
//!   under-relaxed step cannot pass them far from the fixed point.
//!   [`SolvedRead::residual`] reports the residual reached.
//!   [`SolverConfig::reference`] swaps in the conventional step rule at
//!   1e-13 V as an independent reference.
//! * **Relaxation.** Lumped node updates are plain Gauss-Seidel (ω = 1.0).
//!   On linear cells a cold solve under a driven (V/2, V/3) scheme takes
//!   three or four sweeps. Floating lines with strongly
//!   non-linear (selector) cells can oscillate under it. So once a sweep's
//!   stop measure grows, the rest of the solve relaxes at ω = 0.7, a
//!   decision made from crew-wide maxima and therefore the same at any
//!   thread count.
//! * **Exact ohmic secants.** [`Cell::OHMIC`] cells (1R, 1T1R) return
//!   `1/R` exactly from [`Cell::conductance_at`], so their secants do not
//!   move with the voltage. They are linearised once per solve, and the
//!   per-sweep refresh runs only for non-linear cells (1S1R, CRS).
//!
//! # Performance model
//!
//! The plain `solve` entry points are *cold*: every call starts from the
//! bias-derived initial guess and allocates its own scratch. The `solve_in`
//! entry points run the same iteration out of a persistent
//! [`SolverWorkspace`]:
//!
//! * **warm start** — the workspace keeps the converged `w`/`b`
//!   potentials of the previous access; a repeat of the *same* access
//!   (selected cell, bias and shape) seeds from them and, on an unchanged
//!   array, stops after its first sweep. Any other access starts cold: on
//!   random accesses a warm start from a different selection took more
//!   sweeps than the bias-derived guess (3.73 against 3.46 per read on
//!   the 64×64 1T1R benchmark array). The iteration is a contraction to
//!   the unique nodal solution, so the start trades sweeps, never
//!   accuracy, and a cold solve through a used workspace equals one
//!   through a fresh workspace bit for bit.
//! * **buffer reuse** — conductance grids, tridiagonal systems, and
//!   `cell_voltages` output buffers are recycled instead of reallocated.
//!   The distributed solver stores bitline potentials column-major and
//!   keeps a transposed conductance copy so *both* half-sweeps stream
//!   memory contiguously.
//! * **deterministic parallelism** — [`SolverConfig::threads`] sizes a
//!   persistent phase-stepped crew ([`cim_pool::run_crew`]): worker
//!   threads are spawned once per solve and re-used for every half-sweep
//!   *and* every conductance refresh, synchronized by a spin barrier
//!   instead of a spawn/join round per half-sweep. A line update only
//!   reads the *other* axis's potentials and writes its own line, the
//!   refresh touches disjoint cells, and the convergence reduction is a
//!   `max`, so the result is bit-identical at any thread count (the same
//!   determinism contract `cim-sim`'s batch driver establishes). Many
//!   *independent* arrays parallelize better still: see
//!   [`crate::solve_batch`], which needs no intra-solve synchronization
//!   at all.

use std::sync::Mutex;

use cim_pool::{band, resolve_workers, run_crew, Conductor, SharedF64};
use cim_units::{Current, Power, Voltage};
use serde::{Deserialize, Serialize};

use crate::bias::BiasVoltages;
use crate::cell::Cell;
use crate::geometry::Geometry;

/// Solution of one array access.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolvedRead {
    /// Current delivered into the selected bitline's sense node.
    pub sense_current: Current,
    /// Voltage across every cell, row-major (`rows × cols`); positive means
    /// wordline side higher.
    pub cell_voltages: Vec<f64>,
    /// Columns in the solved grid (row stride of `cell_voltages`).
    pub cols: usize,
    /// Power dissipated in all cells *except* the selected one.
    pub parasitic_power: Power,
    /// Gauss-Seidel sweeps used.
    pub iterations: usize,
    /// True if the solver met its stop rule within the sweep budget.
    pub converged: bool,
    /// The stop rule's measure over the final sweep: the largest relative
    /// KCL residual under [`StopRule::Residual`] (the default), the
    /// largest node step in volts under [`StopRule::Step`].
    pub residual: f64,
}

impl SolvedRead {
    /// Voltage across cell `(r, c)`.
    pub fn cell_voltage(&self, r: usize, c: usize) -> Voltage {
        Voltage::new(self.cell_voltages[r * self.cols + c])
    }
}

/// When an iterative solve stops. Either rule also requires secant
/// consistency ([`SolverConfig::secant_tolerance`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StopRule {
    /// Stop once every node's KCL residual `|Σg·v − v_n·Σg|`, summed
    /// over its branches and source, is at most this fraction of the
    /// node's Norton current `Σg·|v|`. The residual is a function of the
    /// potentials alone, so where the solver stops does not depend on
    /// how it got there (see the module docs).
    Residual(f64),
    /// Stop once no node moved by more than this many volts in a sweep.
    /// A short under-relaxed step passes it far from the fixed point, so
    /// it depends on the iteration path; it stays as the independent
    /// reference that accuracy checks compare the residual rule against.
    Step(f64),
}

impl StopRule {
    /// This rule's measure of one node update.
    fn measure(self, residual: f64, step: f64) -> f64 {
        match self {
            StopRule::Residual(_) => residual,
            StopRule::Step(_) => step,
        }
    }

    /// The bound the measure must reach.
    fn bound(self) -> f64 {
        match self {
            StopRule::Residual(bound) | StopRule::Step(bound) => bound,
        }
    }
}

/// Shared solver knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// When a solve may stop.
    pub stop: StopRule,
    /// Secant consistency required at the stop: every stored conductance
    /// `g` must satisfy `|secant(v)/g − 1| <=` this, with `secant(v)` its
    /// cell's [`Cell::conductance_at`] at the final voltages.
    pub secant_tolerance: f64,
    /// Sweep budget before giving up.
    pub max_sweeps: usize,
    /// Relaxation factor of the lumped node updates (1.0 = plain
    /// Gauss-Seidel). A solve drops to `min(omega, 0.7)` for its
    /// remaining sweeps once a sweep's stop measure grows.
    pub omega: f64,
    /// Log-space damping of the secant-conductance refresh (1.0 = none;
    /// smaller = heavier damping for strongly non-linear cells).
    pub conductance_blend: f64,
    /// Worker threads for the solve crew (per-line half-sweep updates
    /// and conductance refreshes): `1` = serial (the default), `0` = all
    /// cores. Any value produces bit-identical results; see the module
    /// docs for why. This is the same knob `solve_batch` uses to size
    /// its batch-of-solves pool.
    pub threads: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            // A relative residual of 1e-12 sits about three decades above
            // the rounding of the node sums. It holds every Fig. 3 output
            // within 1e-8 of the 1e-13 V reference (floating 1R margins,
            // a small difference of large currents, are the worst case);
            // 1e-9 would save about half a sweep per access and leave
            // them 3e-6 off.
            stop: StopRule::Residual(1e-12),
            // Bounds the selector secants left unsettled by the damped
            // refresh; ohmic cells meet it exactly.
            secant_tolerance: 1e-9,
            max_sweeps: 20_000,
            // Plain Gauss-Seidel: over-relaxation is needed nowhere and
            // under-relaxation only on floating lines with strongly
            // non-linear (selector) cells, where plain sweeps can
            // oscillate. A solve drops to FALLBACK_OMEGA once a sweep's
            // stop measure grows, which is where that happens.
            omega: 1.0,
            conductance_blend: 0.1,
            threads: 1,
        }
    }
}

impl SolverConfig {
    /// The accuracy reference: the [`StopRule::Step`] rule at 1e-13 V with
    /// secants consistent to 1e-12. Its stop rule is independent of the
    /// default residual rule, and both bounds are far tighter, so the
    /// default's outputs are checked against it.
    pub fn reference() -> Self {
        Self {
            stop: StopRule::Step(1e-13),
            secant_tolerance: 1e-12,
            ..Self::default()
        }
    }
}

/// Relaxation factor a solve falls back to once a sweep's stop measure
/// grows.
const FALLBACK_OMEGA: f64 = 0.7;

/// Which solver's potentials a workspace currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SolverKind {
    Lumped,
    Distributed,
}

/// Crew phase tags shared by both solvers (see [`cim_pool::run_crew`]).
const PHASE_ROWS: u32 = 0;
/// Column half-sweep.
const PHASE_COLS: u32 = 1;
/// Initial secant linearisation (undamped overwrite, `blend = 1.0`).
const PHASE_REFRESH_INIT: u32 = 2;
/// Damped per-sweep secant refresh.
const PHASE_REFRESH: u32 = 3;
/// Flag on a half-sweep tag: relax at the fallback factor.
const DAMPED: u32 = 4;

/// What the sweep loop of one solve reached.
struct Sweeps {
    iterations: usize,
    converged: bool,
    residual: f64,
}

/// Steps a crew through sweeps (row half-sweep, column half-sweep,
/// damped secant refresh) until `config`'s stop rule and secant bound
/// both hold or the budget runs out. `ohmic` cells ([`Cell::OHMIC`])
/// skip the per-sweep refresh: the initial one already stored secants
/// that no voltage can change, so their inconsistency is exactly 0. The
/// half-sweeps carry the [`DAMPED`] flag from the first sweep after one
/// whose stop measure grew. Every decision reads crew-wide maxima, which
/// are order-independent, so it is the same at any thread count.
fn sweep(crew: &Conductor<'_>, config: &SolverConfig, ohmic: bool) -> Sweeps {
    crew.phase(PHASE_REFRESH_INIT);
    let mut damped = 0;
    let mut previous = f64::INFINITY;
    let mut reached = Sweeps {
        iterations: 0,
        converged: false,
        residual: f64::INFINITY,
    };
    while reached.iterations < config.max_sweeps {
        let measure = crew
            .phase(PHASE_ROWS | damped)
            .max(crew.phase(PHASE_COLS | damped));
        let secant = if ohmic {
            0.0
        } else {
            crew.phase(PHASE_REFRESH)
        };
        reached.iterations += 1;
        reached.residual = measure;
        if measure <= config.stop.bound() && secant <= config.secant_tolerance {
            reached.converged = true;
            break;
        }
        if measure > previous {
            damped = DAMPED;
        }
        previous = measure;
    }
    reached
}

/// Persistent scratch + warm-start state for the solvers.
///
/// Owned by each `Crossbar` and threaded through `solve_in`; holds the
/// node-potential grids (which double as the warm start for the next
/// solve of the same shape), the conductance grid and its transpose, the
/// per-worker tridiagonal systems, and a free list of recycled
/// `cell_voltages` buffers.
///
/// A workspace is a pure cache: it never changes *what* is computed, only
/// how fast, so it deliberately compares equal to any other workspace and
/// is skipped by serialization.
#[derive(Debug, Default, Clone)]
pub struct SolverWorkspace {
    /// Wordline potentials: per row (lumped) or per crosspoint, row-major
    /// (distributed). Stored as a [`SharedF64`] so every crew phase can
    /// read and write through `&self`: relaxed accesses compile to plain
    /// moves, and the crew barrier provides the cross-phase ordering —
    /// which is also why the one-worker (serial) crew runs the identical
    /// instruction stream.
    w: SharedF64,
    /// Bitline potentials: per column (lumped) or per crosspoint,
    /// **column-major** (distributed) so the column half-sweep reads and
    /// writes contiguously.
    b: SharedF64,
    /// Secant cell conductances, row-major.
    g: SharedF64,
    /// Transposed (column-major) copy of `g` for the column half-sweep.
    g_t: SharedF64,
    /// Per-worker scratch for the distributed line solves.
    lanes: Vec<LaneScratch>,
    /// Recycled `cell_voltages` buffers.
    spare: Vec<Vec<f64>>,
    /// Which access the potentials in `w`/`b` solved, if any.
    warm: Option<Access>,
}

/// One solved access: solver, grid shape, selected cell and bias. A
/// solve warm-starts only from the potentials of the same access.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Access {
    kind: SolverKind,
    rows: usize,
    cols: usize,
    selected: (usize, usize),
    bias: BiasVoltages,
}

/// One crew member's private solve scratch: a reusable tridiagonal
/// system plus the line buffer it copies each chain into and solves in
/// place (the copy costs nothing measurable and keeps every storage
/// path — serial or crew — on the same arithmetic).
#[derive(Debug, Clone)]
struct LaneScratch {
    tri: Tridiagonal,
    line: Vec<f64>,
}

/// Retained `spare` buffers; enough for the deepest caller pipeline
/// (read_multistage holds two solutions plus the in-flight one).
const MAX_SPARE_BUFFERS: usize = 4;

impl SolverWorkspace {
    /// An empty workspace (first solve through it runs cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the warm-start state, forcing the next solve to start from
    /// the bias-derived guess. Scratch allocations are kept.
    pub fn invalidate(&mut self) {
        self.warm = None;
    }

    /// Hands a consumed `cell_voltages` buffer back for reuse.
    pub fn recycle(&mut self, buffer: Vec<f64>) {
        if self.spare.len() < MAX_SPARE_BUFFERS {
            self.spare.push(buffer);
        }
    }

    /// Sizes the grids for a solve of `access` and reports whether
    /// `w`/`b` hold a usable warm start: the final potentials of the same
    /// access. Disarms the warm flag; [`Self::finish`] re-arms it.
    fn begin(&mut self, access: Access) -> bool {
        let warm = self.warm == Some(access);
        self.warm = None;
        let Access {
            kind, rows, cols, ..
        } = access;
        let (w_len, b_len) = match kind {
            SolverKind::Lumped => (rows, cols),
            SolverKind::Distributed => (rows * cols, rows * cols),
        };
        self.w.resize(w_len);
        self.b.resize(b_len);
        self.g.resize(rows * cols);
        self.g_t.resize(rows * cols);
        warm
    }

    /// Records that `w`/`b` now hold the final potentials of `access`.
    fn finish(&mut self, access: Access) {
        self.warm = Some(access);
    }

    /// Ensures `workers` lane scratches of at least `capacity` nodes.
    fn grow_lanes(&mut self, workers: usize, capacity: usize) {
        let too_small = self
            .lanes
            .first()
            .is_some_and(|lane| lane.tri.capacity() < capacity);
        if self.lanes.len() < workers || too_small {
            self.lanes = (0..workers.max(1))
                .map(|_| LaneScratch {
                    tri: Tridiagonal::new(capacity),
                    line: vec![0.0; capacity],
                })
                .collect();
        }
    }

    /// A zeroed buffer of `len` f64s, recycled if possible.
    fn take_voltage_buffer(&mut self, len: usize) -> Vec<f64> {
        let mut buffer = self.spare.pop().unwrap_or_default();
        buffer.clear();
        buffer.resize(len, 0.0);
        buffer
    }
}

/// A workspace is an ephemeral cache with no logical identity.
impl PartialEq for SolverWorkspace {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Lumped-wire (equipotential-line) access solver.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LumpedSolver {
    /// Iteration parameters.
    pub config: SolverConfig,
}

impl LumpedSolver {
    /// Solves an access of `(row, col)` under the given bias voltages.
    ///
    /// Cold-start reference entry point: equivalent to [`Self::solve_in`]
    /// with a fresh workspace. `gate_row` tells 1T1R cells which
    /// wordline's gates are on.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != rows * cols` or the selection is out of
    /// bounds.
    pub fn solve<C: Cell>(
        &self,
        cells: &[C],
        rows: usize,
        cols: usize,
        selected: (usize, usize),
        bias: BiasVoltages,
        geometry: &Geometry,
    ) -> SolvedRead {
        self.solve_in(
            &mut SolverWorkspace::new(),
            cells,
            rows,
            cols,
            selected,
            bias,
            geometry,
        )
    }

    /// Workspace-backed solve: scratch comes from `ws`, and when `ws`
    /// holds the converged potentials of the same access (lumped solver,
    /// shape, selected cell and bias) they seed the iteration (warm
    /// start). Agrees with the cold [`Self::solve`] within the stop rule;
    /// a solve that does not warm-start equals it bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != rows * cols` or the selection is out of
    /// bounds.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_in<C: Cell>(
        &self,
        ws: &mut SolverWorkspace,
        cells: &[C],
        rows: usize,
        cols: usize,
        selected: (usize, usize),
        bias: BiasVoltages,
        geometry: &Geometry,
    ) -> SolvedRead {
        assert_eq!(cells.len(), rows * cols, "cell grid shape mismatch");
        assert!(
            selected.0 < rows && selected.1 < cols,
            "selection out of bounds"
        );
        let (sel_r, sel_c) = selected;
        let g_drv = 1.0 / geometry.driver_resistance.get();
        let g_sense = 1.0 / geometry.sense_resistance.get();

        // Line sources: Some((target_voltage, source_conductance)).
        let wl_source = |i: usize| -> Option<(f64, f64)> {
            if i == sel_r {
                Some((bias.wl_selected.get(), g_drv))
            } else {
                bias.wl_unselected.map(|v| (v.get(), g_drv))
            }
        };
        let bl_source = |j: usize| -> Option<(f64, f64)> {
            if j == sel_c {
                Some((bias.bl_selected.get(), g_sense))
            } else {
                bias.bl_unselected.map(|v| (v.get(), g_drv))
            }
        };

        let access = Access {
            kind: SolverKind::Lumped,
            rows,
            cols,
            selected,
            bias,
        };
        let warm = ws.begin(access);
        let workers = resolve_workers(self.config.threads, rows.max(cols));
        let out = ws.take_voltage_buffer(rows * cols);
        let SolverWorkspace { w, b, g, g_t, .. } = ws;
        let (w, b, g, g_t) = (&*w, &*b, &*g, &*g_t);

        // Initial guess: previous converged solution if warm, else source
        // targets / mid-rail for floating lines.
        let mid = bias.wl_selected.get() / 2.0;
        if !warm {
            for i in 0..rows {
                w.set(i, wl_source(i).map_or(mid, |(v, _)| v));
            }
            for j in 0..cols {
                b.set(j, bl_source(j).map_or(mid, |(v, _)| v));
            }
        }

        let gate_on = |i: usize| i == sel_r;
        let config = self.config;
        // One phase function serves every crew member; the serial path is
        // the one-worker crew running the same code inline, which is what
        // makes thread counts bit-invisible. Secant conductances are
        // geometrically damped between sweeps: with strongly non-linear
        // cells (1S1R selectors) an undamped fixed-point iteration
        // flip-flops between on/off linearisations. The initial refresh
        // overwrites (blend = 1.0), so stale warm conductances are
        // replaced.
        let phase_fn = |worker: usize, tag: u32| -> f64 {
            let omega = if tag & DAMPED == 0 {
                config.omega
            } else {
                config.omega.min(FALLBACK_OMEGA)
            };
            match tag & !DAMPED {
                PHASE_ROWS => {
                    let mut measure = 0.0f64;
                    for i in band(worker, workers, rows) {
                        let mut node = NodeSums::default();
                        if let Some((v_src, g_src)) = wl_source(i) {
                            node.add(g_src, v_src);
                        }
                        let row = g.iter_range(i * cols..(i + 1) * cols);
                        for (gc, v) in row.zip(b.iter_range(0..cols)) {
                            node.add(gc, v);
                        }
                        measure = measure.max(node.relax(w, i, omega, config.stop));
                    }
                    measure
                }
                PHASE_COLS => {
                    let mut measure = 0.0f64;
                    for j in band(worker, workers, cols) {
                        let mut node = NodeSums::default();
                        if let Some((v_src, g_src)) = bl_source(j) {
                            node.add(g_src, v_src);
                        }
                        let col = g_t.iter_range(j * rows..(j + 1) * rows);
                        for (gc, v) in col.zip(w.iter_range(0..rows)) {
                            node.add(gc, v);
                        }
                        measure = measure.max(node.relax(b, j, omega, config.stop));
                    }
                    measure
                }
                tag => refresh_band(
                    cells,
                    rows,
                    cols,
                    band(worker, workers, rows),
                    g,
                    g_t,
                    gate_on,
                    |i, j| w.get(i) - b.get(j),
                    if tag == PHASE_REFRESH_INIT {
                        1.0
                    } else {
                        config.conductance_blend
                    },
                ),
            }
        };
        let reached = run_crew(workers, phase_fn, |crew| sweep(crew, &config, C::OHMIC));

        let solved = LumpedSolution {
            cells,
            rows,
            cols,
            selected,
            w,
            b,
            gate_on,
            // Sense current: everything flowing out of the selected
            // bitline into its sense source.
            sense_current: (b.get(sel_c) - bias.bl_selected.get()) * g_sense,
            reached,
        }
        .package(out);
        ws.finish(access);
        solved
    }
}

/// Conductance-weighted sums over one node's branches (cells and line
/// source), each branch a conductance `g` to a potential `v`.
#[derive(Debug, Default)]
struct NodeSums {
    /// `Σ g·v`: the Norton current the branches would drive into the
    /// node at 0 V.
    num: f64,
    /// `Σ g`.
    den: f64,
    /// `Σ g·|v|`: the Norton current's magnitude scale.
    mag: f64,
}

impl NodeSums {
    fn add(&mut self, g: f64, v: f64) {
        self.num += g * v;
        self.den += g;
        self.mag += g * v.abs();
    }

    /// Relative KCL residual of the node at potential `v`: the net
    /// current `num − den·v` its branches drive into it, over `mag`.
    ///
    /// The scale is the Norton current rather than the current the
    /// branches carry at `v`: a line tied to its 1 Ω driver holds its
    /// potential to within one ulp (about 1e-16 V, so 1e-16 A of
    /// residual through the driver) while its gated-off cells carry only
    /// ~1e-10 A, so no f64 potential could bring that ratio below ~1e-6.
    /// Against `Σ g·|v|` the residual resolves down to rounding.
    fn residual(&self, v: f64) -> f64 {
        (self.num - self.den * v).abs() / self.mag.max(f64::MIN_POSITIVE)
    }

    /// One Gauss-Seidel update of `nodes[index]` relaxed by `omega`;
    /// returns `stop`'s measure of it (the residual of the potential it
    /// replaces, or the step).
    fn relax(&self, nodes: &SharedF64, index: usize, omega: f64, stop: StopRule) -> f64 {
        if self.den <= 0.0 {
            return 0.0;
        }
        let node = nodes.get(index);
        let relaxed = node + omega * (self.num / self.den - node);
        nodes.set(index, relaxed);
        stop.measure(self.residual(node), (relaxed - node).abs())
    }
}

/// Distributed-wire (per-crosspoint node) access solver.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedSolver {
    /// Iteration parameters.
    pub config: SolverConfig,
}

impl DistributedSolver {
    /// Solves an access with per-segment line resistance.
    ///
    /// Cold-start reference entry point: equivalent to [`Self::solve_in`]
    /// with a fresh workspace. Wordlines are driven at their left end
    /// (column 0), bitlines at their bottom end (row `rows − 1`), matching
    /// the usual peripheral placement. Falls back to the lumped solver
    /// when the geometry's line resistance is zero.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != rows * cols` or the selection is out of
    /// bounds.
    pub fn solve<C: Cell>(
        &self,
        cells: &[C],
        rows: usize,
        cols: usize,
        selected: (usize, usize),
        bias: BiasVoltages,
        geometry: &Geometry,
    ) -> SolvedRead {
        self.solve_in(
            &mut SolverWorkspace::new(),
            cells,
            rows,
            cols,
            selected,
            bias,
            geometry,
        )
    }

    /// Workspace-backed solve; see [`LumpedSolver::solve_in`] for the
    /// warm-start contract.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != rows * cols` or the selection is out of
    /// bounds.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    pub fn solve_in<C: Cell>(
        &self,
        ws: &mut SolverWorkspace,
        cells: &[C],
        rows: usize,
        cols: usize,
        selected: (usize, usize),
        bias: BiasVoltages,
        geometry: &Geometry,
    ) -> SolvedRead {
        assert_eq!(cells.len(), rows * cols, "cell grid shape mismatch");
        assert!(
            selected.0 < rows && selected.1 < cols,
            "selection out of bounds"
        );
        if geometry.line_resistance.get() == 0.0 {
            return LumpedSolver {
                config: self.config,
            }
            .solve_in(ws, cells, rows, cols, selected, bias, geometry);
        }
        let (sel_r, sel_c) = selected;
        let g_line = 1.0 / geometry.line_resistance.get();
        let g_drv = 1.0 / geometry.driver_resistance.get();
        let g_sense = 1.0 / geometry.sense_resistance.get();

        let wl_source = |i: usize| -> Option<(f64, f64)> {
            if i == sel_r {
                Some((bias.wl_selected.get(), g_drv))
            } else {
                bias.wl_unselected.map(|v| (v.get(), g_drv))
            }
        };
        let bl_source = |j: usize| -> Option<(f64, f64)> {
            if j == sel_c {
                Some((bias.bl_selected.get(), g_sense))
            } else {
                bias.bl_unselected.map(|v| (v.get(), g_drv))
            }
        };

        let access = Access {
            kind: SolverKind::Distributed,
            rows,
            cols,
            selected,
            bias,
        };
        let warm = ws.begin(access);
        let workers = resolve_workers(self.config.threads, rows.max(cols));
        ws.grow_lanes(workers, rows.max(cols));
        let out = ws.take_voltage_buffer(rows * cols);
        let SolverWorkspace {
            w,
            b,
            g,
            g_t,
            lanes,
            ..
        } = ws;
        let (w, b, g, g_t) = (&*w, &*b, &*g, &*g_t);
        // Once-locked mutexes hand each crew member exclusive use of its
        // own tridiagonal system and line buffer (warm capacity, reused
        // across sweeps and solves); a lock per phase, not per line.
        let lanes: Vec<Mutex<&mut LaneScratch>> =
            lanes[..workers].iter_mut().map(Mutex::new).collect();

        // `w` is row-major (each wordline contiguous); `b` is
        // column-major (each bitline contiguous) so both half-sweeps
        // solve their chains in place without gather/scatter copies.
        let mid = bias.wl_selected.get() / 2.0;
        if !warm {
            for i in 0..rows {
                let init = wl_source(i).map_or(mid, |(v, _)| v);
                w.fill_range(i * cols..(i + 1) * cols, init);
            }
            for j in 0..cols {
                let init = bl_source(j).map_or(mid, |(v, _)| v);
                b.fill_range(j * rows..(j + 1) * rows, init);
            }
        }

        // Line relaxation: the wire conductance dwarfs the cell
        // conductances (stiff system), so pointwise Gauss-Seidel stalls.
        // Instead each sweep solves every wordline and bitline *chain*
        // exactly (Thomas tridiagonal solve) with the crossing lines held
        // fixed — the textbook cure for anisotropic coupling.
        let gate_on = |i: usize| i == sel_r;
        let config = self.config;
        // The line solves are exact, so there is nothing to relax and the
        // DAMPED flag is ignored.
        let phase_fn = |worker: usize, tag: u32| -> f64 {
            match tag & !DAMPED {
                PHASE_ROWS => {
                    let mut lane = lanes[worker].lock().expect("lane scratch");
                    let LaneScratch { tri, line } = &mut **lane;
                    let line = &mut line[..cols];
                    let mut measure = 0.0f64;
                    for i in band(worker, workers, rows) {
                        let base = i * cols;
                        for (slot, value) in line.iter_mut().zip(w.iter_range(base..base + cols)) {
                            *slot = value;
                        }
                        tri.reset(cols);
                        for j in 0..cols {
                            if j > 0 {
                                tri.couple(j - 1, j, g_line);
                            } else if let Some((v_src, g_src)) = wl_source(i) {
                                tri.source(0, v_src, g_src);
                            }
                            tri.source(j, b.get(j * rows + i), g.get(base + j));
                        }
                        let residual = tri.residual(line);
                        let step = tri.solve_into(line);
                        measure = measure.max(config.stop.measure(residual, step));
                        w.store_range(base, line);
                    }
                    measure
                }
                PHASE_COLS => {
                    let mut lane = lanes[worker].lock().expect("lane scratch");
                    let LaneScratch { tri, line } = &mut **lane;
                    let line = &mut line[..rows];
                    let mut measure = 0.0f64;
                    for j in band(worker, workers, cols) {
                        let base = j * rows;
                        for (slot, value) in line.iter_mut().zip(b.iter_range(base..base + rows)) {
                            *slot = value;
                        }
                        tri.reset(rows);
                        for i in 0..rows {
                            if i > 0 {
                                tri.couple(i - 1, i, g_line);
                            }
                            if i + 1 == rows {
                                if let Some((v_src, g_src)) = bl_source(j) {
                                    tri.source(i, v_src, g_src);
                                }
                            }
                            tri.source(i, w.get(i * cols + j), g_t.get(base + i));
                        }
                        let residual = tri.residual(line);
                        let step = tri.solve_into(line);
                        measure = measure.max(config.stop.measure(residual, step));
                        b.store_range(base, line);
                    }
                    measure
                }
                tag => refresh_band(
                    cells,
                    rows,
                    cols,
                    band(worker, workers, rows),
                    g,
                    g_t,
                    gate_on,
                    |i, j| w.get(i * cols + j) - b.get(j * rows + i),
                    if tag == PHASE_REFRESH_INIT {
                        1.0
                    } else {
                        config.conductance_blend
                    },
                ),
            }
        };
        let reached = run_crew(workers, phase_fn, |crew| sweep(crew, &config, C::OHMIC));

        // Per-cell voltages and sense current at the selected bitline's
        // bottom end.
        let sense_node = sel_c * rows + (rows - 1);
        let sense_current = (b.get(sense_node) - bias.bl_selected.get()) * g_sense;
        let mut cell_voltages = out;
        let mut parasitic = 0.0;
        for i in 0..rows {
            for j in 0..cols {
                let idx = i * cols + j;
                let dv = w.get(idx) - b.get(j * rows + i);
                cell_voltages[idx] = dv;
                if (i, j) != (sel_r, sel_c) {
                    let current = cells[idx].current(Voltage::new(dv), gate_on(i));
                    parasitic += (current.get() * dv).abs();
                }
            }
        }
        let solved = SolvedRead {
            sense_current: Current::new(sense_current),
            cell_voltages,
            cols,
            parasitic_power: Power::new(parasitic),
            iterations: reached.iterations,
            converged: reached.converged,
            residual: reached.residual,
        };
        ws.finish(access);
        solved
    }
}

/// Conductance floor that keeps log-space damping well defined.
const G_FLOOR: f64 = 1e-18;

/// Slots in [`refresh_band`]'s per-call memo of damped secants (a power
/// of two: the slot is the top bits of a multiplicative hash).
const SECANT_MEMO_SLOTS: usize = 16;

/// Damped secant refresh: moves the stored conductance `old` a fraction
/// `blend` of the way to `secant` in log space. `blend = 0.5` is the
/// geometric mean, natural for power-law selector I-V curves.
fn damped_secant(old: f64, secant: f64, blend: f64) -> f64 {
    (old.ln() * (1.0 - blend) + secant.ln() * blend).exp()
}

/// Direct-mapped memo slot of an `(old, secant)` bit pair.
fn secant_memo_slot(old_bits: u64, secant_bits: u64) -> usize {
    let mixed = (old_bits ^ secant_bits.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> (64 - SECANT_MEMO_SLOTS.trailing_zeros())) as usize
}

/// Refreshes one crew member's band of rows of the damped secant
/// conductances in `g` and its transpose `g_t`; `blend = 1.0`
/// overwrites, anything smaller applies [`damped_secant`]. Returns the
/// band's secant inconsistency before the update: the largest
/// `|secant/g − 1|` over the stored conductances `g` (floored at
/// [`G_FLOOR`]), which the stop rule bounds.
///
/// Two shortcuts keep the transcendentals off the hot path, and neither
/// can change a bit. Cells whose secant already equals the stored value
/// are skipped outright; the extra `g_t` comparison keeps the transpose
/// consistent even if a workspace is reused across grids whose shape
/// reinterprets the index mapping. The second serves the non-linear
/// junctions (1S1R selectors, CRS) on a uniform background such as Fig.
/// 3's all-ones worst case: every cell in the same bias position sees the
/// same voltage, so the `(old, secant)` bit pairs of a whole refresh
/// collapse onto a handful of values. The damped value therefore comes
/// from a small direct-mapped table keyed by those bits, and `ln`/`exp`
/// run only on a miss. Over `fig3_sneak --bias-sweep` 99.6% of the 9.2M
/// lookups hit, and the run takes 0.52–0.60 s with the table against
/// 0.83–0.97 s without it (2-vCPU host). Ohmic cells never get here after
/// the first refresh of a solve ([`Cell::OHMIC`]). The table is a local
/// of each call and [`damped_secant`] is a pure function of `(old,
/// secant, blend)` with `blend` fixed per call, so a hit returns exactly
/// the bits a recomputation would, nothing is shared between crew
/// members, and thread counts stay bit-invisible.
#[allow(clippy::too_many_arguments)]
fn refresh_band<C: Cell>(
    cells: &[C],
    rows: usize,
    cols: usize,
    rows_band: std::ops::Range<usize>,
    g: &SharedF64,
    g_t: &SharedF64,
    gate_on: impl Fn(usize) -> bool,
    dv: impl Fn(usize, usize) -> f64,
    blend: f64,
) -> f64 {
    // `(old bits, secant bits, damped)`. The empty key's old bits are a
    // NaN pattern, which `max(G_FLOOR)` never produces.
    let mut memo = [(u64::MAX, 0u64, 0.0f64); SECANT_MEMO_SLOTS];
    let mut max_rel = 0.0f64;
    for i in rows_band {
        for j in 0..cols {
            let idx = i * cols + j;
            let t_idx = j * rows + i;
            let secant = cells[idx]
                .conductance_at(Voltage::new(dv(i, j)), gate_on(i))
                .max(G_FLOOR);
            let stored = g.get(idx);
            if secant == stored && g_t.get(t_idx) == stored {
                continue;
            }
            let old = stored.max(G_FLOOR);
            max_rel = max_rel.max((secant / old - 1.0).abs());
            let next = if blend >= 1.0 {
                // Overwrite fast path: the ln/exp damping round-trip is
                // the identity at blend = 1.0, so skip it.
                secant
            } else {
                let (old_bits, secant_bits) = (old.to_bits(), secant.to_bits());
                let slot = &mut memo[secant_memo_slot(old_bits, secant_bits)];
                if slot.0 != old_bits || slot.1 != secant_bits {
                    *slot = (old_bits, secant_bits, damped_secant(old, secant, blend));
                }
                slot.2
            };
            g.set(idx, next);
            g_t.set(t_idx, next);
        }
    }
    max_rel
}

/// A reusable symmetric tridiagonal system `A·x = rhs` built from
/// chain couplings and grounded sources, solved by the Thomas algorithm.
#[derive(Debug, Clone)]
struct Tridiagonal {
    diag: Vec<f64>,
    off: Vec<f64>,
    rhs: Vec<f64>,
    /// `Σ g·|v|` over each node's sources (see [`NodeSums`]).
    mag: Vec<f64>,
    n: usize,
    // Scratch for the forward sweep.
    c_star: Vec<f64>,
    d_star: Vec<f64>,
}

impl Tridiagonal {
    fn new(capacity: usize) -> Self {
        Self {
            diag: vec![0.0; capacity],
            off: vec![0.0; capacity],
            rhs: vec![0.0; capacity],
            mag: vec![0.0; capacity],
            n: 0,
            c_star: vec![0.0; capacity],
            d_star: vec![0.0; capacity],
        }
    }

    fn capacity(&self) -> usize {
        self.diag.len()
    }

    fn reset(&mut self, n: usize) {
        self.n = n;
        self.diag[..n].fill(0.0);
        self.off[..n].fill(0.0);
        self.rhs[..n].fill(0.0);
        self.mag[..n].fill(0.0);
    }

    /// Adds a conductance `g` between chain nodes `a` and `a + 1 == b`.
    fn couple(&mut self, a: usize, b: usize, g: f64) {
        debug_assert_eq!(b, a + 1, "tridiagonal coupling must be adjacent");
        self.diag[a] += g;
        self.diag[b] += g;
        self.off[a] -= g;
    }

    /// Adds a conductance `g` from node `i` to a fixed potential `v`.
    fn source(&mut self, i: usize, v: f64, g: f64) {
        self.diag[i] += g;
        self.rhs[i] += g * v;
        self.mag[i] += g * v.abs();
    }

    /// Largest relative KCL residual of the chain at potentials `x`: per
    /// node, [`NodeSums::residual`] over its sources and its chain
    /// neighbours.
    fn residual(&self, x: &[f64]) -> f64 {
        let n = self.n;
        debug_assert_eq!(x.len(), n);
        let mut max_residual = 0.0f64;
        for i in 0..n {
            let mut node = NodeSums {
                num: self.rhs[i],
                den: self.diag[i],
                mag: self.mag[i],
            };
            // The chain couplings are in `diag` already; `off` holds −g.
            if i > 0 {
                node.num -= self.off[i - 1] * x[i - 1];
                node.mag -= self.off[i - 1] * x[i - 1].abs();
            }
            if i + 1 < n {
                node.num -= self.off[i] * x[i + 1];
                node.mag -= self.off[i] * x[i + 1].abs();
            }
            max_residual = max_residual.max(node.residual(x[i]));
        }
        max_residual
    }

    /// Solves in place, writing the solution over `x` (which also provides
    /// the fallback for singular rows) and returning the max |Δx|.
    #[allow(clippy::needless_range_loop)] // i-1 lookbacks across four arrays
    fn solve_into(&mut self, x: &mut [f64]) -> f64 {
        let n = self.n;
        debug_assert_eq!(x.len(), n);
        // Thomas forward sweep.
        let mut prev_cs = 0.0;
        for i in 0..n {
            let denom = self.diag[i]
                - if i > 0 {
                    self.off[i - 1] * prev_cs
                } else {
                    0.0
                };
            if denom.abs() < 1e-300 {
                // Fully floating isolated node: keep its previous value.
                self.c_star[i] = 0.0;
                self.d_star[i] = x[i];
                prev_cs = 0.0;
                continue;
            }
            self.c_star[i] = self.off[i] / denom;
            let prev_ds = if i > 0 { self.d_star[i - 1] } else { 0.0 };
            self.d_star[i] = (self.rhs[i]
                - if i > 0 {
                    self.off[i - 1] * prev_ds
                } else {
                    0.0
                })
                / denom;
            prev_cs = self.c_star[i];
        }
        // Back substitution, tracking the largest update.
        let mut max_delta = 0.0f64;
        let mut next = 0.0;
        for i in (0..n).rev() {
            let value = self.d_star[i]
                - if i + 1 < n {
                    self.c_star[i] * next
                } else {
                    0.0
                };
            max_delta = max_delta.max((value - x[i]).abs());
            x[i] = value;
            next = value;
        }
        max_delta
    }
}

/// Converged lumped-solver state, ready to be packaged into a
/// [`SolvedRead`].
struct LumpedSolution<'a, C, G> {
    cells: &'a [C],
    rows: usize,
    cols: usize,
    selected: (usize, usize),
    /// Wordline potentials, one per row.
    w: &'a SharedF64,
    /// Bitline potentials, one per column.
    b: &'a SharedF64,
    gate_on: G,
    sense_current: f64,
    reached: Sweeps,
}

impl<C: Cell, G: Fn(usize) -> bool> LumpedSolution<'_, C, G> {
    /// Derives per-cell voltages and parasitic power from the line
    /// potentials, filling the (pre-sized) `cell_voltages` buffer.
    fn package(self, mut cell_voltages: Vec<f64>) -> SolvedRead {
        debug_assert_eq!(cell_voltages.len(), self.rows * self.cols);
        let mut parasitic = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                let dv = self.w.get(i) - self.b.get(j);
                cell_voltages[i * self.cols + j] = dv;
                if (i, j) != self.selected {
                    let current =
                        self.cells[i * self.cols + j].current(Voltage::new(dv), (self.gate_on)(i));
                    parasitic += (current.get() * dv).abs();
                }
            }
        }
        SolvedRead {
            sense_current: Current::new(self.sense_current),
            cell_voltages,
            cols: self.cols,
            parasitic_power: Power::new(parasitic),
            iterations: self.reached.iterations,
            converged: self.reached.converged,
            residual: self.reached.residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::BiasScheme;
    use crate::cell::{ResistiveCell, SelectorCell};
    use cim_device::DeviceParams;
    use cim_units::{Area, Resistance};
    use proptest::prelude::*;

    fn grid(rows: usize, cols: usize, bits: impl Fn(usize, usize) -> bool) -> Vec<ResistiveCell> {
        let p = DeviceParams::table1_cim();
        (0..rows * cols)
            .map(|k| {
                let mut c = ResistiveCell::new(p.clone());
                c.program(bits(k / cols, k % cols));
                c
            })
            .collect()
    }

    fn geometry() -> Geometry {
        Geometry::ideal(Area::from_square_micro_meters(1e-4))
    }

    #[test]
    fn single_cell_read_matches_ohms_law() {
        let cells = grid(1, 1, |_, _| true);
        let v = Voltage::from_volts(1.0);
        let solved = LumpedSolver::default().solve(
            &cells,
            1,
            1,
            (0, 0),
            BiasScheme::HalfV.voltages(v),
            &geometry(),
        );
        assert!(solved.converged);
        assert!(solved.residual <= 1e-12, "residual {:e}", solved.residual);
        let p = DeviceParams::table1_cim();
        // Current limited by R_on + driver + sense resistances.
        let r_total = p.r_on.get() + 1.0 + 100.0;
        let expect = 1.0 / r_total;
        assert!((solved.sense_current.get() / expect - 1.0).abs() < 1e-6);
    }

    #[test]
    fn half_v_isolates_unselected_cells() {
        // All-LRS worst case: with V/2 bias the sense current must still
        // be dominated by the selected cell.
        let rows = 8;
        let cells = grid(rows, rows, |_, _| true);
        let v = Voltage::from_volts(1.0);
        let solved = LumpedSolver::default().solve(
            &cells,
            rows,
            rows,
            (3, 4),
            BiasScheme::HalfV.voltages(v),
            &geometry(),
        );
        assert!(solved.converged);
        // Fully unselected cells see ~0 V.
        let dv_unsel = solved.cell_voltage(0, 0);
        assert!(dv_unsel.get().abs() < 1e-3);
        // Selected cell sees ~full V.
        let dv_sel = solved.cell_voltage(3, 4);
        assert!((dv_sel.as_volts() - 1.0).abs() < 0.05);
    }

    #[test]
    fn floating_bias_worst_case_matches_analytic_sneak() {
        // Selected cell HRS, all others LRS, floating unselected lines:
        // the classic sneak network R_on/(C−1) + R_on/((R−1)(C−1)) +
        // R_on/(R−1) in parallel with the selected cell.
        let n = 8;
        let cells = grid(n, n, |i, j| (i, j) != (0, 0));
        let p = DeviceParams::table1_cim();
        let v = 1.0;
        let solved = LumpedSolver::default().solve(
            &cells,
            n,
            n,
            (0, 0),
            BiasScheme::Floating.voltages(Voltage::from_volts(v)),
            &geometry(),
        );
        assert!(solved.converged);
        let nf = n as f64;
        let r_sneak = p.r_on.get() / (nf - 1.0)
            + p.r_on.get() / ((nf - 1.0) * (nf - 1.0))
            + p.r_on.get() / (nf - 1.0);
        let r_cell = p.r_off.get();
        let r_parallel = 1.0 / (1.0 / r_sneak + 1.0 / r_cell);
        let expect = v / (r_parallel + 1.0 + 100.0);
        assert!(
            (solved.sense_current.get() / expect - 1.0).abs() < 0.02,
            "sneak current {} vs analytic {}",
            solved.sense_current.get(),
            expect
        );
    }

    #[test]
    fn distributed_with_tiny_line_resistance_matches_lumped() {
        let n = 6;
        let cells = grid(n, n, |i, j| (i + j) % 2 == 0);
        let v = Voltage::from_volts(1.0);
        let bias = BiasScheme::HalfV.voltages(v);
        let lumped = LumpedSolver::default().solve(&cells, n, n, (2, 3), bias, &geometry());
        let mut geo = geometry();
        geo.line_resistance = Resistance::from_ohms(1e-3);
        let dist = DistributedSolver::default().solve(&cells, n, n, (2, 3), bias, &geo);
        assert!(lumped.converged && dist.converged);
        assert!(
            (dist.sense_current.get() / lumped.sense_current.get() - 1.0).abs() < 1e-3,
            "distributed {} vs lumped {}",
            dist.sense_current.get(),
            lumped.sense_current.get()
        );
    }

    #[test]
    fn line_resistance_degrades_far_corner_access() {
        let n = 16;
        let cells = grid(n, n, |_, _| true);
        let v = Voltage::from_volts(1.0);
        let bias = BiasScheme::HalfV.voltages(v);
        let mut geo = geometry();
        geo.line_resistance = Resistance::from_ohms(50.0);
        let solver = DistributedSolver::default();
        // Near corner: (rows-1, 0) is adjacent to both the wordline driver
        // (left end) and bitline sense (bottom end). Far corner: (0, n-1).
        let near = solver.solve(&cells, n, n, (n - 1, 0), bias, &geo);
        let far = solver.solve(&cells, n, n, (0, n - 1), bias, &geo);
        assert!(near.converged && far.converged);
        assert!(
            near.sense_current.get() > far.sense_current.get() * 1.05,
            "IR drop should penalise the far corner: near {} vs far {}",
            near.sense_current.get(),
            far.sense_current.get()
        );
    }

    #[test]
    fn zero_line_resistance_falls_back_to_lumped() {
        let cells = grid(3, 3, |_, _| true);
        let v = Voltage::from_volts(1.0);
        let bias = BiasScheme::HalfV.voltages(v);
        let a = DistributedSolver::default().solve(&cells, 3, 3, (1, 1), bias, &geometry());
        let b = LumpedSolver::default().solve(&cells, 3, 3, (1, 1), bias, &geometry());
        assert_eq!(a.sense_current, b.sense_current);
    }

    #[test]
    fn parallel_line_relaxation_is_bit_identical() {
        // The determinism contract: any thread count reproduces the
        // serial solve bit for bit, for both solvers.
        let n = 12;
        let cells = grid(n, n, |i, j| (i * 3 + j) % 2 == 0);
        let v = Voltage::from_volts(1.0);
        let bias = BiasScheme::HalfV.voltages(v);
        let mut nanowire = geometry();
        nanowire.line_resistance = Resistance::from_ohms(2.5);
        for threads in [2, 4, 0] {
            let config = SolverConfig {
                threads,
                ..SolverConfig::default()
            };
            let serial = LumpedSolver::default().solve(&cells, n, n, (1, 9), bias, &geometry());
            let parallel = LumpedSolver { config }.solve(&cells, n, n, (1, 9), bias, &geometry());
            assert_eq!(serial, parallel, "lumped, threads = {threads}");
            let serial = DistributedSolver::default().solve(&cells, n, n, (1, 9), bias, &nanowire);
            let parallel =
                DistributedSolver { config }.solve(&cells, n, n, (1, 9), bias, &nanowire);
            assert_eq!(serial, parallel, "distributed, threads = {threads}");
        }
    }

    #[test]
    fn warm_start_matches_cold_solution_and_saves_sweeps() {
        let n = 16;
        let cells = grid(n, n, |i, j| (i + j) % 2 == 0);
        let v = Voltage::from_volts(1.0);
        let bias = BiasScheme::HalfV.voltages(v);
        let solver = LumpedSolver::default();
        let mut ws = SolverWorkspace::new();
        let cold = solver.solve_in(&mut ws, &cells, n, n, (2, 3), bias, &geometry());
        let warm = solver.solve_in(&mut ws, &cells, n, n, (2, 3), bias, &geometry());
        assert!(cold.converged && warm.converged);
        assert!(
            (warm.sense_current.get() - cold.sense_current.get()).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.sense_current.get(),
            cold.sense_current.get()
        );
        assert!(
            warm.iterations < cold.iterations,
            "warm start must collapse sweeps: {} vs {}",
            warm.iterations,
            cold.iterations
        );
        // Invalidation forces a cold start again.
        ws.invalidate();
        let recold = solver.solve_in(&mut ws, &cells, n, n, (2, 3), bias, &geometry());
        assert_eq!(recold.iterations, cold.iterations);
    }

    #[test]
    fn a_cold_solve_is_an_invalidated_warm_solve_bit_for_bit() {
        // Cold solves need no entry point of their own: a workspace whose
        // warm start was dropped reproduces a fresh one exactly, for both
        // solvers, even after solving other accesses.
        let n = 12;
        let cells = grid(n, n, |i, j| (i * 5 + j) % 3 == 0);
        let bias = BiasScheme::ThirdV.voltages(Voltage::from_volts(1.0));
        let mut nanowire = geometry();
        nanowire.line_resistance = Resistance::from_ohms(2.5);
        for geo in [geometry(), nanowire] {
            let solver = DistributedSolver::default();
            let cold = solver.solve(&cells, n, n, (4, 7), bias, &geo);
            let mut ws = SolverWorkspace::new();
            let _ = solver.solve_in(&mut ws, &cells, n, n, (0, 0), bias, &geo);
            let _ = solver.solve_in(&mut ws, &cells, n, n, (4, 7), bias, &geo);
            ws.invalidate();
            let recold = solver.solve_in(&mut ws, &cells, n, n, (4, 7), bias, &geo);
            assert_eq!(cold, recold);
        }
    }

    #[test]
    fn strongly_non_linear_floating_selectors_converge() {
        // A floating 1S1R checkerboard at α = 24: plain Gauss-Seidel
        // oscillates here and never meets the residual bound; the sweep
        // whose measure grows drops the solve to the fallback factor,
        // which converges.
        let p = DeviceParams::table1_cim();
        let n = 16;
        let cells: Vec<SelectorCell> = (0..n * n)
            .map(|k| {
                let mut cell = SelectorCell::new(p.clone(), 24.0, p.v_set * 0.5);
                cell.program((k / n + k % n) % 2 == 0);
                cell
            })
            .collect();
        let bias = BiasScheme::Floating.voltages(p.v_set * 0.5);
        let solved = LumpedSolver::default().solve(&cells, n, n, (n / 3, n - 1), bias, &geometry());
        assert!(solved.converged, "residual {:e}", solved.residual);
        assert!(solved.residual <= 1e-12);
    }

    /// A linear cell of any conductance, zero included; a closed gate
    /// scales it down a thousandfold.
    #[derive(Debug, Clone)]
    struct FixedCell {
        siemens: f64,
        params: DeviceParams,
    }

    impl Cell for FixedCell {
        fn junction(&self) -> crate::JunctionKind {
            crate::JunctionKind::OneT1R
        }

        fn current(&self, v: Voltage, gate_on: bool) -> Current {
            let g = if gate_on {
                self.siemens
            } else {
                self.siemens * 1e-3
            };
            Current::new(v.get() * g)
        }

        fn stress(&mut self, _v: Voltage, _dt: cim_units::Time, _gate_on: bool) {}

        fn stored(&self) -> bool {
            self.siemens > 0.0
        }

        fn program(&mut self, _bit: bool) {}

        fn params(&self) -> &DeviceParams {
            &self.params
        }
    }

    /// Conductances of one grid: zero (floored to `G_FLOOR`), the two
    /// table-1 states, or anything log-uniform between.
    fn any_conductance() -> impl Strategy<Value = f64> {
        let p = DeviceParams::table1_cim();
        prop_oneof![
            Just(0.0),
            Just(1.0 / p.r_on.get()),
            Just(1.0 / p.r_off.get()),
            (-20.0f64..-2.0).prop_map(|decade| 10f64.powf(decade)),
        ]
    }

    /// Line potentials: exact zero (the probe path), a half rail, or any.
    fn any_potential() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(0.5), -1.0f64..1.0]
    }

    proptest! {
        /// The memoised refresh writes exactly the bits, and returns
        /// exactly the `max_rel`, of applying `damped_secant` cell by cell.
        #[test]
        fn memoised_refresh_matches_damped_secant_per_cell(
            rows in 1usize..10,
            cols in 1usize..10,
            conductances in prop::collection::vec(any_conductance(), 81),
            stored_kinds in prop::collection::vec(0usize..5, 81),
            stored_free in prop::collection::vec(any_conductance(), 81),
            w in prop::collection::vec(any_potential(), 9),
            b in prop::collection::vec(any_potential(), 9),
            gate_row in 0usize..10,
            blend in prop_oneof![Just(1.0), Just(0.5), Just(0.1)],
        ) {
            let p = DeviceParams::table1_cim();
            let n = rows * cols;
            let cells: Vec<FixedCell> = conductances[..n]
                .iter()
                .map(|&siemens| FixedCell { siemens, params: p.clone() })
                .collect();
            let gate_on = |i: usize| i == gate_row;
            let dv = |i: usize, j: usize| w[i] - b[j];
            let secant = |idx: usize| {
                let (i, j) = (idx / cols, idx % cols);
                cells[idx]
                    .conductance_at(Voltage::new(dv(i, j)), gate_on(i))
                    .max(G_FLOOR)
            };
            // Stored values: the secant itself (skipped), the secant with
            // a stale transpose (an `old == secant` pair), zero and
            // `G_FLOOR` (both damp from the floor), or unrelated.
            let mut g0 = vec![0.0; n];
            let mut g0_t = vec![0.0; n];
            for idx in 0..n {
                let value = match stored_kinds[idx] {
                    0 | 1 => secant(idx),
                    2 => 0.0,
                    3 => G_FLOOR,
                    _ => stored_free[idx],
                };
                g0[idx] = value;
                let t_idx = (idx % cols) * rows + idx / cols;
                g0_t[t_idx] = if stored_kinds[idx] == 1 { 0.0 } else { value };
            }

            let (g, g_t) = (SharedF64::new(n), SharedF64::new(n));
            g.store_range(0, &g0);
            g_t.store_range(0, &g0_t);
            let max_rel = refresh_band(&cells, rows, cols, 0..rows, &g, &g_t, gate_on, dv, blend);

            let (mut expect, mut expect_t) = (g0.clone(), g0_t.clone());
            let mut expect_rel = 0.0f64;
            for idx in 0..n {
                let t_idx = (idx % cols) * rows + idx / cols;
                let (stored, secant) = (g0[idx], secant(idx));
                if secant == stored && g0_t[t_idx] == stored {
                    continue;
                }
                let old = stored.max(G_FLOOR);
                let next = if blend >= 1.0 {
                    secant
                } else {
                    damped_secant(old, secant, blend)
                };
                expect_rel = expect_rel.max((secant / old - 1.0).abs());
                expect[idx] = next;
                expect_t[t_idx] = next;
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut got, mut got_t) = (vec![0.0; n], vec![0.0; n]);
            g.store_to(&mut got);
            g_t.store_to(&mut got_t);
            prop_assert_eq!(bits(&got), bits(&expect), "g");
            prop_assert_eq!(bits(&got_t), bits(&expect_t), "g_t");
            prop_assert_eq!(max_rel.to_bits(), expect_rel.to_bits(), "max_rel");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_wrong_grid_shape() {
        let cells = grid(2, 2, |_, _| true);
        let _ = LumpedSolver::default().solve(
            &cells,
            3,
            3,
            (0, 0),
            BiasScheme::HalfV.voltages(Voltage::from_volts(1.0)),
            &geometry(),
        );
    }
}
