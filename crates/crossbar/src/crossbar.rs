//! The crossbar array: cells + periphery + accounting.

use cim_units::{Area, Current, Time, Voltage};
use serde::{Deserialize, Serialize};

use crate::bias::{BiasScheme, BiasVoltages};
use crate::cell::{Cell, JunctionKind};
use crate::geometry::Geometry;
use crate::solver::{DistributedSolver, SolvedRead, SolverConfig, SolverWorkspace};
use crate::stats::ArrayStats;

/// Outcome of an electrical read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadResult {
    /// The sensed bit.
    pub bit: bool,
    /// Sense-amplifier input current.
    pub sense_current: Current,
    /// Sense current relative to the decision threshold (> 1 reads as 1).
    pub margin: f64,
    /// True if the read consumed the stored value and it was restored
    /// (CRS destructive-read write-back).
    pub restored: bool,
    /// Full electrical solution of the access.
    pub solved: SolvedRead,
}

/// Outcome of an electrical write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteOutcome {
    /// True if the cell's stored bit actually changed.
    pub flipped: bool,
    /// True if the cell now stores the requested bit.
    pub verified: bool,
}

/// A crossbar memory/logic array with electrical access semantics.
///
/// Reads and writes go through the nodal solver: every access computes the
/// voltage across *every* cell and stresses them for the pulse duration,
/// so half-select disturb, sneak currents, and bias-scheme energy overhead
/// all emerge rather than being assumed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar<C> {
    rows: usize,
    cols: usize,
    cells: Vec<C>,
    geometry: Geometry,
    solver: DistributedSolver,
    stats: ArrayStats,
    /// Per-cell state-flip counts (endurance consumption).
    flips: Vec<u64>,
    /// Per-column full write-pulse counts (selected cells of writes).
    col_writes: Vec<u64>,
    /// Per-column half-select disturb counts (row/column neighbours of
    /// write pulses; reads are sub-threshold and excluded).
    col_disturbs: Vec<u64>,
    /// Monotone counter bumped whenever any cell's internal state changes
    /// (stress, programming, direct mutation). Lets `read` prove the
    /// network did not move during a pulse and skip the re-solve.
    epoch: u64,
    /// Persistent solver scratch + warm-start state (a pure cache: it
    /// never changes what is computed, only how fast).
    #[serde(skip)]
    workspace: SolverWorkspace,
}

impl<C: Cell> Crossbar<C> {
    /// Builds an array whose cells come from `make(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, mut make: impl FnMut(usize, usize) -> C) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        let cells: Vec<C> = (0..rows * cols).map(|k| make(k / cols, k % cols)).collect();
        let cell_area = cells[0].params().cell_area;
        let flips = vec![0; cells.len()];
        Self {
            rows,
            cols,
            cells,
            geometry: Geometry::ideal(cell_area),
            solver: DistributedSolver::default(),
            stats: ArrayStats::default(),
            flips,
            col_writes: vec![0; cols],
            col_disturbs: vec![0; cols],
            epoch: 0,
            workspace: SolverWorkspace::new(),
        }
    }

    /// Builds an array of identical cells.
    pub fn homogeneous(rows: usize, cols: usize, mut make: impl FnMut() -> C) -> Self {
        Self::new(rows, cols, |_, _| make())
    }

    /// Replaces the wire/driver geometry (e.g. [`Geometry::nanowire`]).
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Opt-in deterministic parallel solving: fans each half-sweep's
    /// independent line updates over `threads` workers (`0` = all cores).
    /// Results are bit-identical at any thread count.
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.set_solver_threads(threads);
        self
    }

    /// Sets the solver worker count; see [`Crossbar::with_solver_threads`].
    pub fn set_solver_threads(&mut self, threads: usize) {
        self.solver.config.threads = threads;
    }

    /// Replaces the whole solver configuration: stop rule, secant bound,
    /// relaxation and worker count.
    pub fn with_solver_config(mut self, config: SolverConfig) -> Self {
        self.solver.config = config;
        self
    }

    /// Drops the solver's warm start: the next access solves from the
    /// bias-derived initial guess, bit for bit as through a fresh
    /// workspace.
    pub fn invalidate_warm_start(&mut self) {
        self.workspace.invalidate();
    }

    /// Array dimensions `(rows, cols)`.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The junction option of this array's cells.
    pub fn junction(&self) -> JunctionKind {
        self.cells[0].junction()
    }

    /// Total silicon area of the crosspoint array.
    pub fn area(&self) -> Area {
        self.geometry.array_area(self.rows, self.cols)
    }

    /// Accumulated activity counters.
    pub fn stats(&self) -> &ArrayStats {
        &self.stats
    }

    /// Clears the activity counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Borrow a cell.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cell(&self, r: usize, c: usize) -> &C {
        assert!(r < self.rows && c < self.cols, "cell index out of bounds");
        &self.cells[r * self.cols + c]
    }

    /// Mutably borrow a cell (fault injection, inspection).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cell_mut(&mut self, r: usize, c: usize) -> &mut C {
        assert!(r < self.rows && c < self.cols, "cell index out of bounds");
        // Assume the caller mutates: the epoch must never under-count
        // state changes (it only gates a solver shortcut).
        self.epoch += 1;
        &mut self.cells[r * self.cols + c]
    }

    /// The stored bit at `(r, c)` (state inspection, no electrical access).
    pub fn stored(&self, r: usize, c: usize) -> bool {
        self.cell(r, c).stored()
    }

    /// Ideally programs a cell (no disturb, no energy) — initialisation.
    pub fn program(&mut self, r: usize, c: usize, bit: bool) {
        self.cell_mut(r, c).program(bit);
    }

    /// Programs the whole array from a bit pattern.
    pub fn fill(&mut self, mut pattern: impl FnMut(usize, usize) -> bool) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.cells[r * self.cols + c].program(pattern(r, c));
            }
        }
        self.epoch += 1;
    }

    /// Solves an access electrically without stressing any cell (analysis).
    ///
    /// Runs out of the array's persistent [`SolverWorkspace`]: scratch is
    /// reused, and a repeat of the previous access warm-starts from its
    /// converged potentials, so it stops within a sweep or two. Any other
    /// access starts from the bias-derived guess, which on random
    /// accesses takes no more sweeps than a warm start from a different
    /// selection. Either start lands within the solver's accuracy of the
    /// converged network.
    pub fn solve_access(
        &mut self,
        r: usize,
        c: usize,
        amplitude: Voltage,
        scheme: BiasScheme,
    ) -> SolvedRead {
        self.solve_bias((r, c), scheme.voltages(amplitude))
    }

    /// Workspace-backed solve of an arbitrary bias point, with sweep
    /// accounting.
    fn solve_bias(&mut self, selected: (usize, usize), bias: BiasVoltages) -> SolvedRead {
        let solved = self.solver.solve_in(
            &mut self.workspace,
            &self.cells,
            self.rows,
            self.cols,
            selected,
            bias,
            &self.geometry,
        );
        self.stats.solver_sweeps += solved.iterations as u64;
        solved
    }

    /// Electrically writes `bit` at `(r, c)` under `scheme`.
    ///
    /// The pulse stresses every cell with its solved voltage, so repeated
    /// writes can disturb half-selected neighbours — measurably, which is
    /// the point.
    pub fn write(&mut self, r: usize, c: usize, bit: bool, scheme: BiasScheme) -> WriteOutcome {
        let cell = self.cell(r, c);
        let amplitude = if bit {
            cell.write_amplitude()
        } else {
            -cell.write_amplitude()
        };
        let pulse = cell.op_pulse();
        let before = cell.stored();
        let solved = self.solve_access(r, c, amplitude, scheme);
        self.stress_all(&solved, (r, c), pulse, true);
        let cell = self.cell(r, c);
        let after = cell.stored();
        let flipped = before != after;
        self.stats.writes += 1;
        if flipped {
            self.stats.cell_energy += self.cells[r * self.cols + c].params().write_energy;
        }
        self.stats.half_select_energy += solved.parasitic_power * pulse;
        self.account_wire_losses(&solved, pulse);
        self.stats.elapsed += pulse;
        self.workspace.recycle(solved.cell_voltages);
        WriteOutcome {
            flipped,
            verified: after == bit,
        }
    }

    /// Electrically reads `(r, c)` under `scheme`, restoring destructive
    /// reads (CRS).
    pub fn read(&mut self, r: usize, c: usize, scheme: BiasScheme) -> ReadResult {
        let cell = self.cell(r, c);
        let v_read = cell.read_amplitude();
        let pulse = cell.op_pulse();
        let threshold = cell.sense_threshold(v_read);
        let destructive = cell.destructive_read();
        let before = cell.stored();

        let epoch_before = self.epoch;
        let solved = self.solve_access(r, c, v_read, scheme);
        self.stress_all(&solved, (r, c), pulse, false);
        let pre_pulse_current = solved.sense_current;
        let pre_pulse_parasitic = solved.parasitic_power;
        // Sense after the pulse (CRS needs the pulse to develop its ON
        // window; memristive cells are unchanged by a sub-threshold read).
        // When the junction is non-destructive and the pulse moved no
        // cell state (epoch check), the post-pulse network is *identical*
        // to the pre-pulse one and the re-solve would reproduce `solved`
        // — reuse it instead of solving twice.
        let sensed = if destructive || self.epoch != epoch_before {
            let fresh = self.solve_access(r, c, v_read, scheme);
            self.workspace.recycle(solved.cell_voltages);
            fresh
        } else {
            self.stats.sense_reuses += 1;
            solved
        };
        let i = sensed.sense_current;
        // CRS senses *differentially*: the before/after current step
        // cancels the half-select leakage of the selected column, which
        // would otherwise swamp the ON-window signal in large arrays.
        // A current step ⇒ the cell snapped to ON ⇒ it stored '0'.
        // Resistive junctions sense absolutely: high current ⇒ LRS ⇒ 1.
        let (signal, bit) = if destructive {
            let step = (i.get() - pre_pulse_current.get()).abs();
            (step, step <= threshold.get())
        } else {
            let level = i.get().abs();
            (level, level > threshold.get())
        };
        let above = !destructive && bit || destructive && !bit;
        let mut restored = false;
        if destructive && above {
            // '0' became ON; write the 0 back.
            self.cells[r * self.cols + c].program(before);
            self.epoch += 1;
            restored = true;
        }
        self.stats.reads += 1;
        self.stats.half_select_energy += pre_pulse_parasitic * pulse;
        self.account_wire_losses(&sensed, pulse);
        self.stats.elapsed += pulse;
        ReadResult {
            bit,
            sense_current: i,
            margin: signal / threshold.get(),
            restored,
            solved: sensed,
        }
    }

    /// Two-phase ("multistage") read — paper Section IV.B, bias-scheme
    /// class: *"multistage reading"*.
    ///
    /// Phase 1 senses with the cell selected as usual; phase 2 senses a
    /// **reference** access with the selected wordline parked at the
    /// unselected bias, so only the background (half-select and sneak)
    /// current reaches the sense node. The bit is decided on the
    /// *difference*, cancelling the data-dependent baseline that defeats
    /// plain reads in large 1R arrays.
    ///
    /// Costs two pulses; not supported for destructive-read (CRS) cells,
    /// which already sense differentially in time, and requires a driven
    /// bias scheme (V/2 or V/3) — with floating lines the phase-2
    /// network has no stable reference.
    ///
    /// # Panics
    ///
    /// Panics if called on a destructive-read (CRS) array or with the
    /// floating bias scheme.
    pub fn read_multistage(&mut self, r: usize, c: usize, scheme: BiasScheme) -> ReadResult {
        let cell = self.cell(r, c);
        assert!(
            !cell.destructive_read(),
            "multistage reading applies to non-destructive junctions"
        );
        assert!(
            scheme != BiasScheme::Floating,
            "multistage reading needs driven unselected lines (V/2 or V/3)"
        );
        let v_read = cell.read_amplitude();
        let pulse = cell.op_pulse();
        let threshold = cell.sense_threshold(v_read);

        // Phase 1: normal access.
        let solved = self.solve_access(r, c, v_read, scheme);
        self.stress_all(&solved, (r, c), pulse, false);
        let i_signal = solved.sense_current;

        // Phase 2: reference access — selected wordline parked at the
        // unselected potential, removing the cell's drive.
        let mut bias = scheme.voltages(v_read);
        bias.wl_selected = bias.wl_unselected.expect("driven scheme");
        let reference = self.solve_bias((r, c), bias);
        self.stress_all(&reference, (r, c), pulse, false);
        let i_ref = reference.sense_current;

        let delta = i_signal.get() - i_ref.get();
        // The differential threshold: half the expected LRS delta. The
        // cell's contribution in phase 1 is roughly v_cell/R; in phase 2
        // it is (v_unsel − 0)/R.
        let expected_lrs_delta = {
            let p = self.cell(r, c).params();
            let v_unsel = scheme
                .voltages(v_read)
                .wl_unselected
                .expect("driven scheme");
            ((v_read - v_unsel) / p.r_on).get()
        };
        let bit = delta > expected_lrs_delta * 0.5;
        self.stats.reads += 1;
        self.stats.half_select_energy +=
            (solved.parasitic_power + reference.parasitic_power) * pulse;
        self.account_wire_losses(&solved, pulse);
        self.account_wire_losses(&reference, pulse);
        self.stats.elapsed += pulse * 2.0;
        self.workspace.recycle(reference.cell_voltages);
        ReadResult {
            bit,
            sense_current: Current::new(delta),
            margin: delta.abs() / threshold.get().max(f64::MIN_POSITIVE),
            restored: false,
            solved,
        }
    }

    /// Stresses every cell with its solved voltage for `pulse`, counting
    /// endurance-consuming state flips per cell. Bumps the state epoch if
    /// any cell's internal state moved.
    ///
    /// When the pulse is a *write* (`write_pulse`), wear is classified by
    /// position relative to the `selected` cell: the selected cell takes
    /// one full write pulse, its driven-row and selected-column
    /// neighbours each take one half-select disturb event. Reads are
    /// sub-threshold and charge no wear.
    fn stress_all(
        &mut self,
        solved: &SolvedRead,
        selected: (usize, usize),
        pulse: Time,
        write_pulse: bool,
    ) {
        let (selected_row, selected_col) = selected;
        let mut state_changed = false;
        for i in 0..self.rows {
            let gate_on = i == selected_row;
            for j in 0..self.cols {
                let idx = i * self.cols + j;
                let dv = Voltage::new(solved.cell_voltages[idx]);
                let before = self.cells[idx].stored();
                if self.cells[idx].stress_tracked(dv, pulse, gate_on) {
                    state_changed = true;
                }
                if self.cells[idx].stored() != before {
                    self.flips[idx] += 1;
                }
            }
        }
        if write_pulse {
            self.col_writes[selected_col] += 1;
            self.stats.write_pulses += 1;
            // Row neighbours: every other column of the driven row.
            for (j, disturbs) in self.col_disturbs.iter_mut().enumerate() {
                if j != selected_col {
                    *disturbs += 1;
                }
            }
            // Column neighbours: every other row of the selected column.
            self.col_disturbs[selected_col] += (self.rows - 1) as u64;
            self.stats.disturb_events += (self.cols - 1 + self.rows - 1) as u64;
        }
        if state_changed {
            self.epoch += 1;
        }
    }

    /// Per-cell state-flip counts, row-major — the endurance consumption
    /// map used by the wear-levelling studies.
    pub fn flip_counts(&self) -> &[u64] {
        &self.flips
    }

    /// The most-worn cell's flip count.
    pub fn max_flips(&self) -> u64 {
        self.flips.iter().copied().max().unwrap_or(0)
    }

    /// How many cells have consumed at least `rated` flips.
    pub fn cells_exceeding(&self, rated: u64) -> usize {
        self.flips.iter().filter(|&&n| n >= rated).count()
    }

    /// Per-column full write-pulse counts: entry `j` is how many write
    /// pulses selected a cell of column `j`.
    pub fn column_write_counts(&self) -> &[u64] {
        &self.col_writes
    }

    /// Per-column half-select disturb counts: entry `j` is how many
    /// write pulses half-selected a cell of column `j` (driven-row or
    /// selected-column neighbour without being the target).
    pub fn column_disturb_counts(&self) -> &[u64] {
        &self.col_disturbs
    }

    /// Per-column state-flip totals: the per-cell endurance map of
    /// [`Crossbar::flip_counts`] summed down each column.
    pub fn column_flip_counts(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.cols];
        for (idx, &flips) in self.flips.iter().enumerate() {
            totals[idx % self.cols] += flips;
        }
        totals
    }

    /// Ohmic losses in the driver and sense resistances.
    fn account_wire_losses(&mut self, solved: &SolvedRead, pulse: Time) {
        let i = solved.sense_current;
        let r_total = self.geometry.driver_resistance + self.geometry.sense_resistance;
        self.stats.wire_energy += i.joule_heating(r_total) * pulse;
    }
}

// --- Cell-level operating points --------------------------------------

/// Operating-point hooks with junction-appropriate defaults.
///
/// These live on [`Cell`] via an extension-style blanket so each junction
/// type picks its own voltages: CRS cells need over-`Vth2` writes and
/// between-threshold reads, while plain memristive junctions write at the
/// device's nominal voltage and read safely below threshold.
pub trait CellOps: Cell {
    /// Write-pulse amplitude.
    fn write_amplitude(&self) -> Voltage;
    /// Read-pulse amplitude (must not disturb the cell).
    fn read_amplitude(&self) -> Voltage;
    /// Pulse duration for reads and writes.
    fn op_pulse(&self) -> Time;
    /// Sense-current decision threshold at `v_read`.
    fn sense_threshold(&self, v_read: Voltage) -> Current;
    /// Whether reads consume the stored value (CRS).
    fn destructive_read(&self) -> bool;
}

impl<C: Cell> CellOps for C {
    fn write_amplitude(&self) -> Voltage {
        match self.junction() {
            // CRS: must exceed Vth2 ≈ 2·v_reset.
            JunctionKind::Crs => self.params().write_voltage * 1.5,
            _ => self.params().write_voltage,
        }
    }

    fn read_amplitude(&self) -> Voltage {
        match self.junction() {
            // Between Vth1 and Vth2, near the top of the ON window so the
            // self-limiting SET transition develops a full current step.
            JunctionKind::Crs => self.params().write_voltage * 0.95,
            // Safely below the SET threshold.
            _ => self.params().v_set * 0.5,
        }
    }

    fn op_pulse(&self) -> Time {
        match self.junction() {
            // The internal divider slows CRS transitions ~10×.
            JunctionKind::Crs => self.params().write_time * 10.0,
            _ => self.params().write_time,
        }
    }

    fn sense_threshold(&self, v_read: Voltage) -> Current {
        let p = self.params();
        if self.junction() == JunctionKind::Crs {
            // Differential sensing: the ON-window current step is roughly
            // v/(2·r_on); trigger at a quarter of it.
            v_read / (p.r_on * 8.0)
        } else {
            let i_hi = v_read / p.r_on;
            let i_lo = v_read / p.r_off;
            Current::new((i_hi.get() * i_lo.get()).sqrt())
        }
    }

    fn destructive_read(&self) -> bool {
        self.junction() == JunctionKind::Crs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CrsCell, ResistiveCell, SelectorCell, TransistorCell};
    use cim_device::DeviceParams;

    fn params() -> DeviceParams {
        DeviceParams::table1_cim()
    }

    fn one_r(n: usize) -> Crossbar<ResistiveCell> {
        Crossbar::homogeneous(n, n, || ResistiveCell::new(params()))
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut array = one_r(4);
        for bit in [true, false, true] {
            let w = array.write(1, 2, bit, BiasScheme::HalfV);
            assert!(w.verified);
            let r = array.read(1, 2, BiasScheme::HalfV);
            assert_eq!(r.bit, bit, "read back {bit}");
            assert!(r.margin > 1.0 || !r.bit);
        }
    }

    #[test]
    fn writes_track_flip_energy() {
        let mut array = one_r(4);
        let w1 = array.write(0, 0, true, BiasScheme::HalfV);
        assert!(w1.flipped);
        let e1 = array.stats().cell_energy;
        assert!((e1.as_femto_joules() - 1.0).abs() < 1e-9);
        // Writing the same bit again doesn't flip or cost cell energy.
        let w2 = array.write(0, 0, true, BiasScheme::HalfV);
        assert!(!w2.flipped);
        assert_eq!(array.stats().cell_energy, e1);
        assert_eq!(array.stats().writes, 2);
    }

    #[test]
    fn reads_do_not_disturb_resistive_cells() {
        let mut array = one_r(8);
        array.fill(|r, c| (r + c) % 3 == 0);
        let snapshot: Vec<bool> = (0..8)
            .flat_map(|r| (0..8).map(move |c| (r + c) % 3 == 0))
            .collect();
        for _ in 0..50 {
            let _ = array.read(3, 3, BiasScheme::HalfV);
        }
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(array.stored(r, c), snapshot[r * 8 + c]);
            }
        }
        assert_eq!(array.stats().reads, 50);
    }

    #[test]
    fn crs_array_reads_restore_destructively_read_zeros() {
        let mut array = Crossbar::homogeneous(4, 4, || CrsCell::new(params()));
        array.program(2, 2, false);
        let r = array.read(2, 2, BiasScheme::HalfV);
        assert!(!r.bit);
        assert!(r.restored, "reading '0' must be destructive + restored");
        assert!(!array.stored(2, 2));
        // '1' reads are non-destructive.
        array.program(2, 2, true);
        let r = array.read(2, 2, BiasScheme::HalfV);
        assert!(r.bit);
        assert!(!r.restored);
    }

    #[test]
    fn all_junctions_round_trip() {
        let p = params();
        fn check<C: Cell>(mut array: Crossbar<C>) {
            for bit in [true, false] {
                let w = array.write(1, 1, bit, BiasScheme::HalfV);
                assert!(w.verified, "{} write", array.junction());
                assert_eq!(
                    array.read(1, 1, BiasScheme::HalfV).bit,
                    bit,
                    "{} read",
                    array.junction()
                );
            }
        }
        check(Crossbar::homogeneous(4, 4, || {
            ResistiveCell::new(p.clone())
        }));
        check(Crossbar::homogeneous(4, 4, || {
            // Selector full-on point at the array read voltage so reads
            // see the storage element.
            SelectorCell::new(p.clone(), 8.0, p.v_set * 0.5)
        }));
        check(Crossbar::homogeneous(4, 4, || {
            TransistorCell::new(p.clone())
        }));
        check(Crossbar::homogeneous(4, 4, || CrsCell::new(p.clone())));
    }

    #[test]
    fn non_destructive_reads_reuse_the_pulse_solution() {
        let mut array = one_r(8);
        array.fill(|r, c| (r + c) % 2 == 0);
        array.reset_stats();
        for _ in 0..5 {
            let _ = array.read(2, 2, BiasScheme::HalfV);
        }
        assert_eq!(array.stats().reads, 5);
        assert_eq!(
            array.stats().sense_reuses,
            5,
            "sub-threshold 1R reads move no state and must skip the re-solve"
        );
        assert!(array.stats().solver_sweeps > 0);

        // CRS reads develop their ON window during the pulse: state moves,
        // so differential sensing keeps the two-solve path.
        let mut crs = Crossbar::homogeneous(4, 4, || CrsCell::new(params()));
        crs.program(1, 1, false);
        crs.reset_stats();
        let _ = crs.read(1, 1, BiasScheme::HalfV);
        assert_eq!(crs.stats().sense_reuses, 0);
    }

    #[test]
    fn repeat_access_stops_at_once_on_the_reference_answer() {
        // A repeat read of an unchanged array warm-starts from its own
        // converged potentials: the first sweep finds them at the fixed
        // point. The answer must be the converged one, within the bound
        // of the accuracy contract (`tests/accuracy.rs`).
        let mut array = one_r(16);
        array.fill(|r, c| (r * 3 + c) % 4 != 0);
        let mut reference = array.clone().with_solver_config(SolverConfig::reference());
        let exact = reference.read(3, 3, BiasScheme::HalfV).sense_current;
        let _ = array.read(3, 3, BiasScheme::HalfV);
        let before = array.stats().solver_sweeps;
        let repeat = array.read(3, 3, BiasScheme::HalfV);
        let sweeps = array.stats().solver_sweeps - before;
        assert!(sweeps <= 2, "repeat access took {sweeps} sweeps");
        assert!(
            (repeat.sense_current / exact - 1.0).abs() <= 1e-8,
            "repeat {} vs reference {}",
            repeat.sense_current,
            exact
        );
    }

    #[test]
    fn area_scales_with_cell_count() {
        let array = one_r(10);
        let expect = params().cell_area * 100.0;
        assert!((array.area() / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_select_energy_accumulates_under_half_v() {
        let mut array = one_r(16);
        array.fill(|_, _| true);
        array.reset_stats();
        let _ = array.write(0, 0, false, BiasScheme::HalfV);
        // Half-selected LRS cells at V/2 burn real power.
        assert!(array.stats().half_select_energy.get() > 0.0);
    }

    #[test]
    fn multistage_read_rescues_bare_1r_at_size() {
        // A 24x24 all-LRS-background 1R array: plain reads of an HRS cell
        // misclassify (margin collapse, Fig. 3), the two-phase multistage
        // read cancels the baseline and recovers the bit.
        let n = 24;
        let mut array = Crossbar::homogeneous(n, n, || ResistiveCell::new(params()));
        array.fill(|_, _| true);
        array.program(0, n - 1, false);
        let plain = array.read(0, n - 1, BiasScheme::HalfV);
        assert!(
            plain.bit,
            "plain read should misread 0 as 1 here — if it doesn't, the \
             margin model changed and this test needs a larger n"
        );
        array.program(0, n - 1, false);
        let staged = array.read_multistage(0, n - 1, BiasScheme::HalfV);
        assert!(!staged.bit, "multistage read must recover the stored 0");
        // And it still reads a stored 1 correctly.
        array.program(0, n - 1, true);
        assert!(array.read_multistage(0, n - 1, BiasScheme::HalfV).bit);
    }

    #[test]
    fn multistage_read_costs_two_pulses() {
        let mut array = one_r(4);
        array.program(1, 1, true);
        array.reset_stats();
        let _ = array.read_multistage(1, 1, BiasScheme::HalfV);
        let single = params().write_time;
        assert_eq!(array.stats().reads, 1);
        assert!((array.stats().elapsed / (single * 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multistage_read_works_under_third_v() {
        let n = 16;
        let mut array = Crossbar::homogeneous(n, n, || ResistiveCell::new(params()));
        array.fill(|_, _| true);
        for bit in [false, true] {
            array.program(0, n - 1, bit);
            assert_eq!(
                array.read_multistage(0, n - 1, BiasScheme::ThirdV).bit,
                bit,
                "V/3 multistage read of {bit}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "driven unselected lines")]
    fn multistage_read_rejects_floating() {
        let mut array = one_r(4);
        let _ = array.read_multistage(0, 0, BiasScheme::Floating);
    }

    #[test]
    #[should_panic(expected = "non-destructive junctions")]
    fn multistage_read_rejects_crs() {
        let mut array = Crossbar::homogeneous(3, 3, || CrsCell::new(params()));
        let _ = array.read_multistage(0, 0, BiasScheme::ThirdV);
    }

    #[test]
    fn flip_counts_track_endurance_consumption() {
        let mut array = one_r(4);
        // 10 toggles of one cell = 10 flips there, far fewer elsewhere.
        for k in 0..10 {
            let _ = array.write(1, 1, k % 2 == 0, BiasScheme::HalfV);
        }
        assert_eq!(array.max_flips(), 10);
        assert_eq!(array.flip_counts()[4 + 1], 10);
        assert_eq!(array.cells_exceeding(10), 1);
        assert_eq!(array.cells_exceeding(1), 1, "half-select must not flip");
    }

    #[test]
    fn column_wear_counters_classify_writes_and_disturbs() {
        let mut array = one_r(4);
        // 3 writes to column 1 and 1 write to column 2, various rows.
        let _ = array.write(0, 1, true, BiasScheme::HalfV);
        let _ = array.write(2, 1, false, BiasScheme::HalfV);
        let _ = array.write(3, 1, true, BiasScheme::HalfV);
        let _ = array.write(1, 2, true, BiasScheme::HalfV);
        assert_eq!(array.column_write_counts(), &[0, 3, 1, 0]);
        // Each write disturbs the 3 other columns once (driven row) and
        // its own column 3 times (other rows of the selected column).
        assert_eq!(array.column_disturb_counts(), &[4, 10, 6, 4]);
        assert_eq!(array.stats().write_pulses, 4);
        assert_eq!(array.stats().disturb_events, 4 * 6);
        // Reads are sub-threshold: no wear.
        let _ = array.read(0, 1, BiasScheme::HalfV);
        let _ = array.read_multistage(0, 0, BiasScheme::HalfV);
        assert_eq!(array.stats().write_pulses, 4);
        assert_eq!(array.stats().disturb_events, 24);
        assert_eq!(array.column_write_counts(), &[0, 3, 1, 0]);
        // Column flip totals aggregate the per-cell endurance map.
        let flips: u64 = array.flip_counts().iter().sum();
        assert_eq!(array.column_flip_counts().iter().sum::<u64>(), flips);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cell_access_bounds_checked() {
        let array = one_r(2);
        let _ = array.cell(2, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_empty_array() {
        let _ = Crossbar::homogeneous(0, 4, || ResistiveCell::new(params()));
    }
}
