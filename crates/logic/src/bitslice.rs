//! Bit-sliced execution of IMPLY microprograms: compile once, run 64
//! lanes per instruction.
//!
//! The paper's CIM advantage is row-broadcast SIMD: the controller
//! issues one `FALSE`/`IMP` step and *every crossbar row* responds in
//! the same write time. This module mirrors that semantics inside the
//! simulator. A [`CompiledProgram`] lowers a [`Program`] once into a
//! flat, register-indexed op stream; a [`BitSliceEngine`] then holds
//! each register as a `u64` whose 64 bits are 64 independent lanes
//! (≡ 64 crossbar rows), so
//!
//! ```text
//! Imply(p, q)  ⇒  regs[q] = !regs[p] | regs[q]
//! ```
//!
//! executes 64 rows of the array in one Rust instruction. Wider
//! workloads run more 64-lane passes; [`transpose64`] converts 64
//! operand-major words to slice-major form and back. Programs with
//! at most [`LUT_MAX_INPUTS`] inputs additionally compile to a
//! truth-table fast path: each output's full truth table fits in one
//! `u64` mask, and a Shannon-expansion combine evaluates all 64 lanes
//! in at most `2ⁿ − 1` bitwise mux nodes — fewer than the op stream for
//! small kernels like the 4-input DNA eq-comparator.
//!
//! Results are bit-identical to [`Program::evaluate`] lane by lane; the
//! equivalence suite in `tests/bitslice_equivalence.rs` cross-checks
//! sliced vs scalar vs electrical ([`crate::ImplyEngine`]) execution.

use serde::{Deserialize, Serialize};

use crate::program::{Program, ProgramError, Step};

/// Lanes per slice: one `u64` register bit per crossbar row.
pub const LANES: usize = 64;

/// Largest input arity compiled to the truth-table fast path (a `2⁶`
/// entry table exactly fills one `u64` mask per output).
pub const LUT_MAX_INPUTS: usize = 6;

/// One lowered micro-operation over `u64` register slices.
///
/// Register indices are `u32` so the op stream stays dense (8 bytes per
/// op) — a compiled program is validated, so the narrowing is lossless
/// for any program that fits in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SliceOp {
    /// `regs[q] = 0` across all lanes.
    False(u32),
    /// `regs[q] = !regs[p] | regs[q]` across all lanes.
    Imply(u32, u32),
}

/// How a compiled program executes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Kernel {
    /// The lowered step stream plus input-load / output-store plans.
    Ops {
        /// Register receiving each input slot, in input order.
        loads: Vec<u32>,
        /// The step stream.
        ops: Vec<SliceOp>,
        /// Register read for each output slot, in output order.
        stores: Vec<u32>,
    },
    /// One 2ⁿ-bit truth-table mask per output (bit `t` = the output for
    /// input word `t`, input `i` = bit `i` of `t`).
    TruthTable(Vec<u64>),
}

/// A [`Program`] lowered for bit-sliced execution.
///
/// Compile once, run many: the artifact is immutable and shares freely
/// across threads. The *modelled hardware* cost is unchanged by the
/// lowering — [`CompiledProgram::steps`] reports the source program's
/// step count, which is what latency/energy accounting charges, even
/// when the truth-table kernel executes fewer host instructions.
///
/// ```
/// use cim_logic::{BitSliceEngine, CompiledProgram, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// let p = b.input();
/// let q = b.input();
/// let out = b.nand(p, q);
/// let program = b.finish(vec![out]);
///
/// let compiled = CompiledProgram::compile(&program).unwrap();
/// let mut engine = BitSliceEngine::new();
/// let mut outs = [0u64];
/// // Lane k computes NAND(p_k, q_k): 64 gates in a handful of ops.
/// engine.run(&compiled, &[0b1100, 0b1010], &mut outs);
/// assert_eq!(outs[0] & 0xF, 0b0111);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledProgram {
    kernel: Kernel,
    registers: usize,
    num_inputs: usize,
    num_outputs: usize,
    steps: usize,
    /// Register written by each source step, in program order — kept
    /// even for the truth-table kernel, because the *modelled hardware*
    /// pulses every source step regardless of how the host executes.
    targets: Vec<u32>,
}

impl CompiledProgram {
    /// Lowers `program`, validating it first (see [`Program::validate`]).
    pub fn compile(program: &Program) -> Result<Self, ProgramError> {
        program.validate()?;
        let kernel = if program.inputs.len() <= LUT_MAX_INPUTS {
            Kernel::TruthTable(Self::tabulate(program))
        } else {
            Kernel::Ops {
                loads: program.inputs.iter().map(|&r| r as u32).collect(),
                ops: program
                    .steps
                    .iter()
                    .map(|&s| match s {
                        Step::False(q) => SliceOp::False(q as u32),
                        Step::Imply(p, q) => SliceOp::Imply(p as u32, q as u32),
                    })
                    .collect(),
                stores: program.outputs.iter().map(|&r| r as u32).collect(),
            }
        };
        Ok(Self {
            kernel,
            registers: program.registers,
            num_inputs: program.inputs.len(),
            num_outputs: program.outputs.len(),
            steps: program.len(),
            targets: program.steps.iter().map(|&s| s.target() as u32).collect(),
        })
    }

    /// Exhaustively evaluates the scalar semantics over all `2ⁿ` input
    /// words to build one mask per output.
    fn tabulate(program: &Program) -> Vec<u64> {
        let n = program.inputs.len();
        let mut masks = vec![0u64; program.outputs.len()];
        let mut inputs = vec![false; n];
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for word in 0..(1u64 << n) {
            for (i, bit) in inputs.iter_mut().enumerate() {
                *bit = (word >> i) & 1 == 1;
            }
            program.evaluate_into(&inputs, &mut scratch, &mut out);
            for (mask, &bit) in masks.iter_mut().zip(&out) {
                *mask |= u64::from(bit) << word;
            }
        }
        masks
    }

    /// Source-program step count (the hardware latency in write times).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Source-program register (memristor) footprint per row.
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// Number of input slices [`BitSliceEngine::run`] expects.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output slices [`BitSliceEngine::run`] produces.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// True when the truth-table fast path was selected.
    pub fn is_lut(&self) -> bool {
        matches!(self.kernel, Kernel::TruthTable(_))
    }

    /// The register each source step writes, in program order: the
    /// write-pulse trace wear accounting charges. The truth-table
    /// kernel executes fewer host instructions, but the modelled array
    /// still issues (and ages under) every source step.
    pub fn step_targets(&self) -> &[u32] {
        &self.targets
    }
}

/// Evaluates a truth-table mask over input slices by Shannon expansion:
/// split the table on the last input, recurse, and mux the halves with
/// `(!x & lo) | (x & hi)`. At most `2ⁿ − 1` mux nodes; equal halves
/// collapse, so constant and input-independent cofactors cost nothing.
fn shannon(mask: u64, inputs: &[u64]) -> u64 {
    let Some((&x, rest)) = inputs.split_last() else {
        return if mask & 1 == 1 { u64::MAX } else { 0 };
    };
    let half = 1u32 << rest.len();
    let low = if half >= 64 {
        u64::MAX
    } else {
        (1u64 << half) - 1
    };
    let lo = shannon(mask & low, rest);
    let hi = shannon(mask >> half, rest);
    if lo == hi {
        lo
    } else {
        (!x & lo) | (x & hi)
    }
}

/// Executes [`CompiledProgram`]s, [`LANES`] lanes at a time.
///
/// The engine owns the register file (one `u64` slice per register) and
/// reuses it across runs, so steady-state execution is allocation-free.
/// Unused high lanes are harmless: every lane computes independently,
/// and callers mask the result down to the lanes they populated.
#[derive(Debug, Clone, Default)]
pub struct BitSliceEngine {
    regs: Vec<u64>,
}

impl BitSliceEngine {
    /// Creates the 64-lane engine; the register file grows lazily on
    /// first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `compiled` with one slice per input, writing one slice per
    /// output. Lane `k` of every slice is an independent instance: lane
    /// outputs depend only on lane inputs, exactly like [`LANES`]
    /// crossbar rows answering one broadcast instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` length mismatches the program.
    pub fn run(&mut self, compiled: &CompiledProgram, inputs: &[u64], outputs: &mut [u64]) {
        assert_eq!(
            inputs.len(),
            compiled.num_inputs,
            "wrong number of input slices"
        );
        assert_eq!(
            outputs.len(),
            compiled.num_outputs,
            "wrong number of output slices"
        );
        match &compiled.kernel {
            Kernel::TruthTable(masks) => {
                for (out, &mask) in outputs.iter_mut().zip(masks) {
                    *out = shannon(mask, inputs);
                }
            }
            Kernel::Ops { loads, ops, stores } => {
                self.regs.clear();
                self.regs.resize(compiled.registers, 0);
                for (&reg, &slice) in loads.iter().zip(inputs) {
                    self.regs[reg as usize] = slice;
                }
                for &op in ops {
                    match op {
                        SliceOp::False(q) => self.regs[q as usize] = 0,
                        SliceOp::Imply(p, q) => {
                            self.regs[q as usize] |= !self.regs[p as usize];
                        }
                    }
                }
                for (out, &reg) in outputs.iter_mut().zip(stores) {
                    *out = self.regs[reg as usize];
                }
            }
        }
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards, bit `j` of
/// `m[i]` is the previous bit `i` of `m[j]` (LSB-first on both axes).
///
/// This is the bridge between operand-major and slice-major layouts:
/// load 64 words as rows, transpose, and row `i` becomes the slice of
/// every word's bit `i` — ready for a bit-sliced adder pass. Classic
/// recursive block swap: for each block size `j`, exchange the
/// off-diagonal `j×j` sub-blocks of every `2j×2j` block (6 rounds,
/// 32 word-pair swaps each).
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32usize;
    while j != 0 {
        // Bits whose column index has bit `j` clear.
        let mask = u64::MAX / ((1u64 << j) + 1);
        let mut k = 0;
        while k < 64 {
            if k & j == 0 {
                let t = ((m[k] >> j) ^ m[k + j]) & mask;
                m[k] ^= t << j;
                m[k + j] ^= t;
            }
            k += 1;
        }
        j >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::Comparator;
    use crate::program::ProgramBuilder;

    /// Broadcasts a scalar input word into lane-constant slices.
    fn splat(bits: &[bool]) -> Vec<u64> {
        bits.iter().map(|&b| if b { u64::MAX } else { 0 }).collect()
    }

    #[test]
    fn truth_table_kernel_matches_scalar_on_all_words() {
        let cmp = Comparator::new();
        let compiled = CompiledProgram::compile(cmp.eq_program()).unwrap();
        assert!(compiled.is_lut());
        assert_eq!(compiled.steps(), cmp.eq_program().len());
        let mut engine = BitSliceEngine::new();
        let mut outs = [0u64];
        for word in 0..16u8 {
            let bits: Vec<bool> = (0..4).map(|i| (word >> i) & 1 == 1).collect();
            engine.run(&compiled, &splat(&bits), &mut outs);
            let expect = cmp.eq_program().evaluate(&bits)[0];
            assert_eq!(outs[0], if expect { u64::MAX } else { 0 }, "word {word}");
        }
    }

    #[test]
    fn ops_kernel_matches_scalar_per_lane() {
        // 7 inputs forces the op-stream kernel (> LUT_MAX_INPUTS).
        let mut b = ProgramBuilder::new();
        let ins: Vec<_> = (0..7).map(|_| b.input()).collect();
        let mut acc = b.xor(ins[0], ins[1]);
        for &i in &ins[2..] {
            let t = b.and(acc, i);
            acc = b.or(t, acc);
            acc = b.xor(acc, i);
        }
        let program = b.finish(vec![acc]);
        let compiled = CompiledProgram::compile(&program).unwrap();
        assert!(!compiled.is_lut());

        // 64 distinct lanes: lane k carries the input word k * 2 + 1.
        let mut slices = vec![0u64; 7];
        for lane in 0..LANES {
            let word = (lane * 2 + 1) as u32;
            for (i, slice) in slices.iter_mut().enumerate() {
                *slice |= u64::from((word >> i) & 1) << lane;
            }
        }
        let mut outs = [0u64];
        let mut engine = BitSliceEngine::new();
        engine.run(&compiled, &slices, &mut outs);
        for lane in 0..LANES {
            let word = (lane * 2 + 1) as u32;
            let bits: Vec<bool> = (0..7).map(|i| (word >> i) & 1 == 1).collect();
            let expect = program.evaluate(&bits)[0];
            assert_eq!((outs[0] >> lane) & 1 == 1, expect, "lane {lane}");
        }
    }

    #[test]
    fn lanes_are_independent() {
        let cmp = Comparator::new();
        let compiled = CompiledProgram::compile(cmp.eq_program()).unwrap();
        let mut engine = BitSliceEngine::new();
        // Lane 0 compares (3, 3): equal. Lane 1 compares (3, 0):
        // unequal. Idle lanes compare (0, 0): equal.
        let inputs = [
            0b11u64, // a bit 0 per lane
            0b11,    // a bit 1
            0b01,    // b bit 0
            0b01,    // b bit 1
        ];
        let mut outs = [0u64];
        engine.run(&compiled, &inputs, &mut outs);
        assert_eq!(outs[0] & 1, 1, "lane 0 symbols match");
        assert_eq!((outs[0] >> 1) & 1, 0, "lane 1 symbols differ");
        assert_eq!(outs[0] >> 2, u64::MAX >> 2, "idle lanes compare 0 == 0");
    }

    #[test]
    fn compile_rejects_invalid_programs() {
        let program = Program {
            steps: vec![Step::Imply(0, 9)],
            registers: 2,
            inputs: vec![0],
            outputs: vec![1],
        };
        assert_eq!(
            CompiledProgram::compile(&program),
            Err(ProgramError::RegisterOutOfRange {
                reg: 9,
                registers: 2,
                site: "step"
            })
        );
    }

    #[test]
    fn transpose_matches_naive_reference() {
        // A full-period LCG fills the matrix with asymmetric junk.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut m = [0u64; 64];
        for row in &mut m {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *row = state;
        }
        let original = m;
        transpose64(&mut m);
        for (i, &row) in m.iter().enumerate() {
            for (j, &orig) in original.iter().enumerate() {
                assert_eq!((row >> j) & 1, (orig >> i) & 1, "element ({i}, {j})");
            }
        }
        // An involution: transposing back restores the original.
        transpose64(&mut m);
        assert_eq!(m, original);
    }

    #[test]
    fn shannon_collapses_constant_functions() {
        assert_eq!(shannon(0, &[0xDEAD, 0xBEEF]), 0);
        assert_eq!(shannon(0xF, &[0xDEAD, 0xBEEF]), u64::MAX);
    }
}
