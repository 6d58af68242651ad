//! Bit-sliced execution of IMPLY microprograms: compile once, run `W`
//! words of 64 lanes per gate visit.
//!
//! The paper's CIM advantage is row-broadcast SIMD: the controller
//! issues one `FALSE`/`IMP` step and *every crossbar row* responds in
//! the same write time. This module mirrors that semantics inside the
//! simulator. A [`CompiledProgram`] lowers a [`Program`] once into a
//! folded OR-netlist: symbolic execution of the step stream tracks
//! each register as a possibly negated *literal*, so
//!
//! ```text
//! Imply(p, q)  ⇒  reg[q] = or(¬reg[p], reg[q])
//! ```
//!
//! costs one gate only when neither operand is a constant, equal or
//! complementary — moves, NOTs and clears fold away. A
//! [`BitSliceEngine`] then evaluates the surviving gates in SSA order
//! over `[u64; W]` slices whose `64 × W` bits are independent lanes
//! (≡ crossbar rows), one visit per gate for all of them: the adder
//! runs 512 lanes per pass ([`crate::WORDS`] = 8 words), the
//! comparator one word. [`transpose64`] converts `W` groups of 64
//! operand-major words to slice-major form and back.
//!
//! Results are bit-identical to [`Program::evaluate`] lane by lane; the
//! equivalence suite in `tests/bitslice_equivalence.rs` cross-checks
//! sliced vs scalar vs electrical ([`crate::ImplyEngine`]) execution.

use serde::{Deserialize, Serialize};

use crate::program::{Program, ProgramError, Step};

/// Lanes per slice: one `u64` register bit per crossbar row.
pub const LANES: usize = 64;

/// The constant-0 literal (slot 0, not negated); `ZERO ^ 1` is the
/// constant 1.
const ZERO: u32 = 0;

/// A [`Program`] lowered for bit-sliced execution.
///
/// The kernel is an OR-netlist in SSA form over *literals*
/// `slot << 1 | negated`: slot 0 is the constant 0, slots `1..=n` are
/// the inputs and slot `n + 1 + k` is gate `k`, the OR of two earlier
/// literals. Compile once, run many: the artifact is immutable and
/// shares freely across threads. The *modelled hardware* cost is
/// unchanged by the lowering — [`CompiledProgram::steps`] and
/// [`CompiledProgram::step_targets`] report the source program, which
/// is what latency, energy and wear accounting charge, even though the
/// host evaluates only [`CompiledProgram::gates`] ORs.
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
/// // NAND(p, q) = ¬p ∨ ¬q: one gate for the whole step sequence.
/// assert_eq!(compiled.gates(), 1);
/// let mut engine = BitSliceEngine::new();
/// let mut outs = [[0u64]];
/// // Lane k computes NAND(p_k, q_k): 64 gates in one OR.
/// engine.run(&compiled, &[[0b1100], [0b1010]], &mut outs);
/// assert_eq!(outs[0][0] & 0xF, 0b0111);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledProgram {
    /// Operand literals of each live gate, in evaluation order.
    gates: Vec<[u32; 2]>,
    /// The literal read for each output slot, in output order.
    outputs: Vec<u32>,
    registers: usize,
    num_inputs: usize,
    /// Register written by each source step, in program order: the
    /// *modelled hardware* pulses every source step, however few gates
    /// the host executes.
    targets: Vec<u32>,
}

/// `a ∨ b` over literals, folding constants, equal and complementary
/// operands; any other pair appends a gate numbered after `first_gate`.
fn or(gates: &mut Vec<[u32; 2]>, first_gate: usize, a: u32, b: u32) -> u32 {
    if a == ZERO ^ 1 || b == ZERO ^ 1 || a == b ^ 1 {
        return ZERO ^ 1;
    }
    if a == ZERO || a == b {
        return b;
    }
    if b == ZERO {
        return a;
    }
    gates.push([a, b]);
    ((first_gate + gates.len() - 1) as u32) << 1
}

impl CompiledProgram {
    /// Lowers `program`, validating it first (see [`Program::validate`]).
    pub fn compile(program: &Program) -> Result<Self, ProgramError> {
        program.validate()?;
        let first_gate = program.inputs.len() + 1;
        // Scratch registers start at the constant 0, as the engines
        // clear them; input `i` is slot `i + 1`.
        let mut regs = vec![ZERO; program.registers];
        for (i, &reg) in program.inputs.iter().enumerate() {
            regs[reg] = ((i + 1) as u32) << 1;
        }
        let mut gates = Vec::new();
        for &step in &program.steps {
            match step {
                Step::False(q) => regs[q] = ZERO,
                Step::Imply(p, q) => regs[q] = or(&mut gates, first_gate, regs[p] ^ 1, regs[q]),
            }
        }
        // Drop the gates no output reaches, then renumber the rest.
        let mut slot: Vec<u32> = (0..first_gate as u32).collect();
        slot.resize(first_gate + gates.len(), u32::MAX);
        let mut live = vec![false; slot.len()];
        for &out in &program.outputs {
            live[(regs[out] >> 1) as usize] = true;
        }
        for k in (0..gates.len()).rev() {
            if live[first_gate + k] {
                for lit in gates[k] {
                    live[(lit >> 1) as usize] = true;
                }
            }
        }
        let relabel = |slot: &[u32], lit: u32| slot[(lit >> 1) as usize] << 1 | (lit & 1);
        let mut kept = 0;
        for k in 0..gates.len() {
            if live[first_gate + k] {
                slot[first_gate + k] = (first_gate + kept) as u32;
                gates[kept] = gates[k].map(|lit| relabel(&slot, lit));
                kept += 1;
            }
        }
        gates.truncate(kept);
        let outputs = program
            .outputs
            .iter()
            .map(|&r| relabel(&slot, regs[r]))
            .collect();
        Ok(Self {
            gates,
            outputs,
            registers: program.registers,
            num_inputs: program.inputs.len(),
            targets: program.steps.iter().map(|&s| s.target() as u32).collect(),
        })
    }

    /// Source-program step count (the hardware latency in write times).
    pub fn steps(&self) -> usize {
        self.targets.len()
    }

    /// OR gates the host evaluates per run — at most [`Self::steps`],
    /// and usually far fewer, since moves, NOTs and clears fold away.
    pub fn gates(&self) -> usize {
        self.gates.len()
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
        self.outputs.len()
    }

    /// The register each source step writes, in program order: the
    /// write-pulse trace wear accounting charges. The netlist executes
    /// fewer host instructions, but the modelled array still issues
    /// (and ages under) every source step.
    pub fn step_targets(&self) -> &[u32] {
        &self.targets
    }
}

/// The lane values of literal `lit` in slot file `slots`.
#[inline]
fn literal<const W: usize>(slots: &[[u64; W]], lit: u32) -> [u64; W] {
    let negate = 0u64.wrapping_sub(u64::from(lit & 1));
    slots[(lit >> 1) as usize].map(|word| word ^ negate)
}

/// Executes [`CompiledProgram`]s, `W` words of [`LANES`] lanes at a
/// time.
///
/// The engine owns the slot file (`W` words per constant, input and
/// gate) and reuses it across runs, so steady-state execution is
/// allocation-free. Unused high lanes are harmless: every lane computes
/// independently, and callers mask the result down to the lanes they
/// populated.
#[derive(Debug, Clone, Default)]
pub struct BitSliceEngine {
    slots: Vec<u64>,
}

impl BitSliceEngine {
    /// Creates an engine; the slot file grows lazily on first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `compiled` with one `W`-word slice per input, writing one
    /// per output. Each gate visit evaluates all `W × LANES` lanes, and
    /// lane `k` of every slice is an independent instance: lane outputs
    /// depend only on lane inputs, exactly like crossbar rows answering
    /// one broadcast instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` length mismatches the program.
    pub fn run<const W: usize>(
        &mut self,
        compiled: &CompiledProgram,
        inputs: &[[u64; W]],
        outputs: &mut [[u64; W]],
    ) {
        assert_eq!(
            inputs.len(),
            compiled.num_inputs,
            "wrong number of input slices"
        );
        assert_eq!(
            outputs.len(),
            compiled.outputs.len(),
            "wrong number of output slices"
        );
        let first_gate = inputs.len() + 1;
        self.slots
            .resize((first_gate + compiled.gates.len()) * W, 0);
        let (slots, _) = self.slots.as_chunks_mut::<W>();
        slots[0] = [0; W];
        slots[1..first_gate].copy_from_slice(inputs);
        for (k, &[a, b]) in compiled.gates.iter().enumerate() {
            let (x, y) = (literal(slots, a), literal(slots, b));
            slots[first_gate + k] = std::array::from_fn(|w| x[w] | y[w]);
        }
        for (out, &lit) in outputs.iter_mut().zip(&compiled.outputs) {
            *out = literal(slots, lit);
        }
    }
}

/// Transposes `W` interleaved 64×64 bit matrices in place: afterwards,
/// bit `j` of `m[i][w]` is the previous bit `i` of `m[j][w]`
/// (LSB-first on both axes), for each word `w` on its own.
///
/// This is the bridge between operand-major and slice-major layouts:
/// load 64 operands per word as rows, transpose, and row `i` becomes
/// the slice of every operand's bit `i`, `W` words wide — the layout
/// [`BitSliceEngine::run`] takes. Classic recursive block swap: for each
/// block size `j`, exchange the off-diagonal `j×j` sub-blocks of every
/// `2j×2j` block (6 rounds, 32 row-pair swaps each, every swap `W`
/// words wide).
pub fn transpose64<const W: usize>(m: &mut [[u64; W]; 64]) {
    swap_blocks::<32, W>(m);
    swap_blocks::<16, W>(m);
    swap_blocks::<8, W>(m);
    swap_blocks::<4, W>(m);
    swap_blocks::<2, W>(m);
    swap_blocks::<1, W>(m);
}

/// One round of [`transpose64`]: swaps the off-diagonal `J×J`
/// sub-blocks of every `2J×2J` block.
#[inline]
fn swap_blocks<const J: usize, const W: usize>(m: &mut [[u64; W]; 64]) {
    // Bits whose column index has bit `J` clear.
    let mask = u64::MAX / ((1u64 << J) + 1);
    for block in m.chunks_exact_mut(2 * J) {
        let (low, high) = block.split_at_mut(J);
        for (low, high) in low.iter_mut().zip(high) {
            for (l, h) in low.iter_mut().zip(high) {
                let t = ((*l >> J) ^ *h) & mask;
                *l ^= t << J;
                *h ^= t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::Comparator;
    use crate::program::ProgramBuilder;

    /// Broadcasts a scalar input word into lane-constant slices.
    fn splat(bits: &[bool]) -> Vec<[u64; 1]> {
        bits.iter()
            .map(|&b| [if b { u64::MAX } else { 0 }])
            .collect()
    }

    #[test]
    fn truth_table_kernel_matches_scalar_on_all_words() {
        let cmp = Comparator::new();
        let compiled = CompiledProgram::compile(cmp.eq_program()).unwrap();
        // The 29-step eq-comparator folds to a 7-gate netlist.
        assert_eq!(compiled.gates(), 7);
        assert_eq!(compiled.steps(), cmp.eq_program().len());
        let mut engine = BitSliceEngine::new();
        let mut outs = [[0u64]];
        for word in 0..16u8 {
            let bits: Vec<bool> = (0..4).map(|i| (word >> i) & 1 == 1).collect();
            engine.run(&compiled, &splat(&bits), &mut outs);
            let expect = cmp.eq_program().evaluate(&bits)[0];
            assert_eq!(outs[0], [if expect { u64::MAX } else { 0 }], "word {word}");
        }
    }

    #[test]
    fn ops_kernel_matches_scalar_per_lane() {
        // A 7-input chain of XOR/AND/OR gates over 64 distinct lanes.
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
        assert!(compiled.gates() <= compiled.steps());

        // 64 distinct lanes: lane k carries the input word k * 2 + 1.
        let mut slices = vec![[0u64]; 7];
        for lane in 0..LANES {
            let word = (lane * 2 + 1) as u32;
            for (i, slice) in slices.iter_mut().enumerate() {
                slice[0] |= u64::from((word >> i) & 1) << lane;
            }
        }
        let mut outs = [[0u64]];
        let mut engine = BitSliceEngine::new();
        engine.run(&compiled, &slices, &mut outs);
        for lane in 0..LANES {
            let word = (lane * 2 + 1) as u32;
            let bits: Vec<bool> = (0..7).map(|i| (word >> i) & 1 == 1).collect();
            let expect = program.evaluate(&bits)[0];
            assert_eq!((outs[0][0] >> lane) & 1 == 1, expect, "lane {lane}");
        }

        // Eight words per gate visit: word `w` runs the lanes rotated
        // by `w`, and each word equals its own one-word run, on an
        // engine whose slot file was sized for one word.
        let wide: Vec<[u64; 8]> = slices
            .iter()
            .map(|&[s]| std::array::from_fn(|w| s.rotate_left(w as u32)))
            .collect();
        let mut wide_outs = [[0u64; 8]];
        engine.run(&compiled, &wide, &mut wide_outs);
        for w in 0..8 {
            let narrow: Vec<[u64; 1]> = wide.iter().map(|s| [s[w]]).collect();
            engine.run(&compiled, &narrow, &mut outs);
            assert_eq!(wide_outs[0][w], outs[0][0], "word {w}");
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
            [0b11u64], // a bit 0 per lane
            [0b11],    // a bit 1
            [0b01],    // b bit 0
            [0b01],    // b bit 1
        ];
        let mut outs = [[0u64]];
        engine.run(&compiled, &inputs, &mut outs);
        assert_eq!(outs[0][0] & 1, 1, "lane 0 symbols match");
        assert_eq!((outs[0][0] >> 1) & 1, 0, "lane 1 symbols differ");
        assert_eq!(outs[0][0] >> 2, u64::MAX >> 2, "idle lanes compare 0 == 0");
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
        let mut m = [[0u64; 3]; 64];
        for row in m.as_flattened_mut() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *row = state;
        }
        let original = m;
        transpose64(&mut m);
        for (i, row) in m.iter().enumerate() {
            for (j, orig) in original.iter().enumerate() {
                for w in 0..3 {
                    let (got, want) = ((row[w] >> j) & 1, (orig[w] >> i) & 1);
                    assert_eq!(got, want, "word {w}, element ({i}, {j})");
                }
            }
        }
        // An involution: transposing back restores the original.
        transpose64(&mut m);
        assert_eq!(m, original);
    }

    #[test]
    fn lowering_folds_constants_and_negations() {
        // r1 = ¬x; r2 = ¬¬x = x, then ¬x ∨ x = 1; r3 = ¬x ∨ ¬x = ¬x,
        // cleared, then ¬¬x ∨ 0 = x; r4 is never written (constant 0).
        let program = Program {
            steps: vec![
                Step::Imply(0, 1),
                Step::Imply(1, 2),
                Step::Imply(0, 2),
                Step::Imply(0, 3),
                Step::Imply(0, 3),
                Step::False(3),
                Step::Imply(1, 3),
            ],
            registers: 5,
            inputs: vec![0],
            outputs: vec![1, 2, 3, 4],
        };
        let compiled = CompiledProgram::compile(&program).unwrap();
        assert_eq!(compiled.gates(), 0, "every step folds");
        assert_eq!(compiled.steps(), 7);
        let x = 0xDEAD_BEEF_0123_4567u64;
        let mut outs = [[0u64]; 4];
        BitSliceEngine::new().run(&compiled, &[[x]], &mut outs);
        assert_eq!(outs, [[!x], [u64::MAX], [x], [0]]);
    }
}
