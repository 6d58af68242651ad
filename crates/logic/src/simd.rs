//! Row-parallel (SIMD) execution of IMPLY microcode.
//!
//! The CIM architecture's throughput comes from issuing the *same* logic
//! step across many crossbar rows at once ("huge crossbar architectures
//! allowing massive parallelism"): the controller broadcasts one
//! `FALSE`/`IMP` micro-operation per time step and every row's devices
//! respond in parallel. Latency therefore scales with the *program
//! length*, not with the number of rows; energy scales with both.

use cim_device::DeviceParams;
use cim_units::{Component, Energy};

use crate::bitslice::{BitSliceEngine, CompiledProgram, LANES};
use crate::cost::LogicCost;
use crate::engine::{ImplyEngine, ImplyParams};
use crate::program::Program;
use crate::wear::WearLedger;

/// Executes one program across many independent rows in lock-step.
///
/// ```
/// use cim_logic::{ProgramBuilder, RowParallelEngine};
///
/// let mut b = ProgramBuilder::new();
/// let p = b.input();
/// let q = b.input();
/// let out = b.nand(p, q);
/// let program = b.finish(vec![out]);
///
/// let mut simd = RowParallelEngine::for_program(&program, 4);
/// let inputs = vec![vec![true, true]; 4];
/// let outs = simd.run(&program, &inputs);
/// assert!(outs.iter().all(|o| !o[0]));
/// // Latency counts broadcast steps, not rows:
/// assert_eq!(simd.cost().steps, program.len() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct RowParallelEngine {
    backend: Backend,
    params: ImplyParams,
    broadcast_steps: u64,
    wear: WearLedger,
}

/// How the rows execute. Both backends follow the same cost law —
/// latency counts broadcast steps, energy scales with rows × steps —
/// but the electrical one integrates device physics per row while the
/// bit-sliced one runs a [`CompiledProgram`] 64 rows per instruction
/// and charges the nominal write energy.
#[derive(Debug, Clone)]
enum Backend {
    /// One electrical register file per row.
    Electrical(Vec<ImplyEngine>),
    /// Functional: a compiled artifact shared by all rows (boxed — the
    /// payload dwarfs the electrical variant's `Vec` header).
    BitSliced(Box<SlicedRows>),
}

/// State of the bit-sliced backend.
#[derive(Debug, Clone)]
struct SlicedRows {
    compiled: CompiledProgram,
    engine: BitSliceEngine,
    rows: usize,
    device: DeviceParams,
    energy: Energy,
}

impl SlicedRows {
    /// Runs the compiled artifact across all rows, [`LANES`] lanes per
    /// host instruction, and charges nominal write energy per row-step.
    fn run(&mut self, program: &Program, inputs_per_row: &[Vec<bool>]) -> Vec<Vec<bool>> {
        assert_eq!(
            (program.inputs.len(), program.outputs.len(), program.len()),
            (
                self.compiled.num_inputs(),
                self.compiled.num_outputs(),
                self.compiled.steps()
            ),
            "program does not match the compiled artifact"
        );
        let mut outputs = Vec::with_capacity(self.rows);
        let mut in_slices = vec![[0u64]; self.compiled.num_inputs()];
        let mut out_slices = vec![[0u64]; self.compiled.num_outputs()];
        for group in inputs_per_row.chunks(LANES) {
            in_slices.fill([0]);
            for (lane, row) in group.iter().enumerate() {
                assert_eq!(
                    row.len(),
                    self.compiled.num_inputs(),
                    "input arity mismatch"
                );
                for (slice, &bit) in in_slices.iter_mut().zip(row) {
                    slice[0] |= u64::from(bit) << lane;
                }
            }
            self.engine.run(&self.compiled, &in_slices, &mut out_slices);
            for lane in 0..group.len() {
                outputs.push(out_slices.iter().map(|s| (s[0] >> lane) & 1 == 1).collect());
            }
        }
        // One write per row per broadcast step, at nominal energy.
        self.energy += self.device.write_energy * (self.compiled.steps() * self.rows) as f64;
        outputs
    }
}

impl RowParallelEngine {
    /// Creates `rows` register files sized for `program`, with Table-1
    /// devices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn for_program(program: &Program, rows: usize) -> Self {
        assert!(rows > 0, "need at least one row");
        let device = DeviceParams::table1_cim();
        let params = ImplyParams::for_device(&device);
        Self {
            backend: Backend::Electrical(
                (0..rows)
                    .map(|_| ImplyEngine::new(program.registers, device.clone(), params.clone()))
                    .collect(),
            ),
            params,
            broadcast_steps: 0,
            wear: WearLedger::new(program.registers),
        }
    }

    /// Creates a bit-sliced engine: `program` is compiled once and every
    /// [`RowParallelEngine::run`] executes it across all rows, 64 lanes
    /// per host instruction. Cost accounting follows the same law as the
    /// electrical backend (latency = broadcast steps, energy ∝ rows ×
    /// steps) using the Table-1 nominal write energy per device step.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `program` fails [`Program::validate`].
    pub fn for_program_bitsliced(program: &Program, rows: usize) -> Self {
        assert!(rows > 0, "need at least one row");
        let device = DeviceParams::table1_cim();
        let params = ImplyParams::for_device(&device);
        let compiled =
            CompiledProgram::compile(program).unwrap_or_else(|e| panic!("invalid program: {e}"));
        Self {
            backend: Backend::BitSliced(Box::new(SlicedRows {
                compiled,
                engine: BitSliceEngine::new(),
                rows,
                device,
                energy: Energy::ZERO,
            })),
            params,
            broadcast_steps: 0,
            wear: WearLedger::new(program.registers),
        }
    }

    /// Number of rows operating in parallel.
    pub fn rows(&self) -> usize {
        match &self.backend {
            Backend::Electrical(rows) => rows.len(),
            Backend::BitSliced(sliced) => sliced.rows,
        }
    }

    /// Runs `program` on every row with that row's inputs, lock-step.
    /// A bit-sliced engine executes its compiled artifact; `program`
    /// must be the one it was built from.
    ///
    /// # Panics
    ///
    /// Panics if `inputs_per_row.len() != self.rows()`, any row's input
    /// arity mismatches the program, or a bit-sliced engine is handed a
    /// program of different shape than it compiled.
    pub fn run(&mut self, program: &Program, inputs_per_row: &[Vec<bool>]) -> Vec<Vec<bool>> {
        assert_eq!(
            inputs_per_row.len(),
            self.rows(),
            "one input vector per row required"
        );
        let outputs = match &mut self.backend {
            Backend::Electrical(rows) => rows
                .iter_mut()
                .zip(inputs_per_row)
                .map(|(engine, inputs)| engine.run(program, inputs))
                .collect(),
            Backend::BitSliced(sliced) => sliced.run(program, inputs_per_row),
        };
        // Every row executed the same broadcast sequence.
        self.broadcast_steps += program.len() as u64;
        // And aged under it: the target column of each step takes a
        // write pulse, every other column a half-select disturb. The
        // sliced backend charges from the compiled artifact it
        // actually executed; the electrical backend from the program.
        match &self.backend {
            Backend::Electrical(_) => {
                self.wear.record(program.steps.iter().map(|s| s.target()));
            }
            Backend::BitSliced(sliced) => {
                let targets = sliced.compiled.step_targets();
                self.wear.record(targets.iter().map(|&t| t as usize));
            }
        }
        outputs
    }

    /// Per-column wear accumulated over every run: write pulses and
    /// half-select disturbs per register column, per device (identical
    /// across rows under broadcast). `cim-verify`'s `WearCertificate`
    /// re-derives these counts statically and asserts them bit-for-bit.
    pub fn wear(&self) -> &WearLedger {
        &self.wear
    }

    /// Aggregate cost: latency counts *broadcast* steps (the whole array
    /// advances together); energy sums over rows.
    pub fn cost(&self) -> LogicCost {
        let (energy, devices) = match &self.backend {
            Backend::Electrical(rows) => (
                rows.iter().map(|r| r.cost().energy).sum(),
                rows.iter().map(super::engine::ImplyEngine::registers).sum(),
            ),
            Backend::BitSliced(sliced) => {
                (sliced.energy, sliced.compiled.registers() * sliced.rows)
            }
        };
        LogicCost {
            steps: self.broadcast_steps,
            devices,
            latency: self.params.pulse * self.broadcast_steps as f64,
            energy,
            component: Component::ImplyStep,
        }
    }

    /// Effective operations per broadcast step (the SIMD width).
    pub fn throughput_multiplier(&self) -> usize {
        self.rows()
    }
}

/// Row-parallel cost summary without execution: `rows` instances of a
/// block whose single-row cost is `unit`.
pub fn simd_cost(unit: &LogicCost, rows: u64) -> LogicCost {
    LogicCost {
        steps: unit.steps,
        devices: unit.devices * rows as usize,
        latency: unit.latency,
        energy: unit.energy * rows as f64,
        component: unit.component,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::Comparator;
    use crate::program::ProgramBuilder;
    use cim_units::Time;

    #[test]
    fn lockstep_results_match_sequential_execution() {
        let mut b = ProgramBuilder::new();
        let p = b.input();
        let q = b.input();
        let out = b.xor(p, q);
        let program = b.finish(vec![out]);

        let inputs: Vec<Vec<bool>> = (0..8u8).map(|k| vec![k & 1 == 1, k & 2 == 2]).collect();
        let mut simd = RowParallelEngine::for_program(&program, inputs.len());
        let outputs = simd.run(&program, &inputs);
        for (input, output) in inputs.iter().zip(&outputs) {
            assert_eq!(output, &program.evaluate(input));
        }
    }

    #[test]
    fn latency_is_independent_of_row_count() {
        let cmp = Comparator::new();
        let program = cmp.eq_program().clone();
        let mut narrow = RowParallelEngine::for_program(&program, 2);
        let mut wide = RowParallelEngine::for_program(&program, 64);
        let one = vec![true, false, true, false];
        let _ = narrow.run(&program, &vec![one.clone(); 2]);
        let _ = wide.run(&program, &vec![one.clone(); 64]);
        assert_eq!(narrow.cost().steps, wide.cost().steps);
        assert_eq!(narrow.cost().latency, wide.cost().latency);
        // …while energy scales with the width.
        assert!(wide.cost().energy.get() > 10.0 * narrow.cost().energy.get());
        assert_eq!(wide.throughput_multiplier(), 64);
    }

    #[test]
    fn bitsliced_backend_matches_electrical_results() {
        let cmp = Comparator::new();
        let program = cmp.eq_program().clone();
        // 100 rows exercises a full 64-lane group plus a ragged tail.
        let inputs: Vec<Vec<bool>> = (0..100u32)
            .map(|k| {
                let (a, b) = (k % 4, (k / 4) % 4);
                vec![a & 1 == 1, a & 2 == 2, b & 1 == 1, b & 2 == 2]
            })
            .collect();
        let mut electrical = RowParallelEngine::for_program(&program, inputs.len());
        let mut sliced = RowParallelEngine::for_program_bitsliced(&program, inputs.len());
        assert_eq!(
            electrical.run(&program, &inputs),
            sliced.run(&program, &inputs)
        );
    }

    #[test]
    fn bitsliced_backend_follows_the_simd_cost_law() {
        let cmp = Comparator::new();
        let program = cmp.eq_program().clone();
        let one = vec![true, false, true, false];
        let mut narrow = RowParallelEngine::for_program_bitsliced(&program, 2);
        let mut wide = RowParallelEngine::for_program_bitsliced(&program, 128);
        let _ = narrow.run(&program, &vec![one.clone(); 2]);
        let _ = wide.run(&program, &vec![one.clone(); 128]);
        // Latency counts broadcast steps regardless of width…
        assert_eq!(narrow.cost().steps, program.len() as u64);
        assert_eq!(narrow.cost().steps, wide.cost().steps);
        assert_eq!(narrow.cost().latency, wide.cost().latency);
        // …energy and devices scale with the width.
        let ratio = wide.cost().energy.get() / narrow.cost().energy.get();
        assert!((ratio - 64.0).abs() < 1e-9, "energy ratio {ratio}");
        assert_eq!(wide.cost().devices, 64 * narrow.cost().devices);
        assert_eq!(wide.throughput_multiplier(), 128);
    }

    #[test]
    fn simd_cost_helper_scales_energy_and_devices_only() {
        let unit = LogicCost {
            steps: 16,
            devices: 13,
            latency: Time::from_nano_seconds(3.2),
            energy: cim_units::Energy::from_femto_joules(45.0),
            component: cim_units::Component::ImplyStep,
        };
        let wide = simd_cost(&unit, 1_000);
        assert_eq!(wide.steps, 16);
        assert_eq!(wide.devices, 13_000);
        assert_eq!(wide.latency, unit.latency);
        assert!((wide.energy.as_pico_joules() - 45.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one input vector per row")]
    fn rejects_mismatched_input_rows() {
        let mut b = ProgramBuilder::new();
        let p = b.input();
        let out = b.not(p);
        let program = b.finish(vec![out]);
        let mut simd = RowParallelEngine::for_program(&program, 4);
        let _ = simd.run(&program, &[vec![true]]);
    }
}
