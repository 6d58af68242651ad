//! Memristive adders: the arithmetic blocks behind the paper's
//! "Mathematics: 10⁶ parallel additions" experiment.

use cim_units::{Component, Energy, Time};
use serde::{Deserialize, Serialize};

use cim_device::DeviceParams;

use crate::bitslice::{transpose64, BitSliceEngine, CompiledProgram, LANES};
use crate::cost::LogicCost;
use crate::crs_logic::CrsImp;
use crate::engine::ImplyEngine;
use crate::program::{Program, ProgramBuilder, Reg};

/// 64-lane words per gate visit of [`ImplyAdder::add_sliced`]: one pass
/// adds up to `LANES * WORDS` = 512 pairs, as one broadcast IMPLY step
/// reaches every crossbar row at once.
pub const WORDS: usize = 8;

/// An `n`-bit ripple-carry adder compiled to IMPLY microcode.
///
/// Each full adder is built from the gate library (`sum = a⊕b⊕c`,
/// `cout = ab ∨ c(a⊕b)`) and the whole word executes on one
/// [`ImplyEngine`] — bit-exact against integer addition (see the
/// property tests).
#[derive(Debug, Clone)]
pub struct ImplyAdder {
    program: Program,
    compiled: CompiledProgram,
    bits: u32,
}

impl ImplyAdder {
    /// Compiles an `n`-bit adder.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 64.
    pub fn new(bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "supported widths: 1..=64 bits");
        let mut b = ProgramBuilder::new();
        let a_regs: Vec<Reg> = (0..bits).map(|_| b.input()).collect();
        let b_regs: Vec<Reg> = (0..bits).map(|_| b.input()).collect();
        let mut carry: Option<Reg> = None;
        let mut sums = Vec::with_capacity(bits as usize + 1);
        for i in 0..bits as usize {
            let x = b.xor(a_regs[i], b_regs[i]);
            let (sum, cout) = match carry {
                None => {
                    // First bit: sum = a⊕b, cout = a∧b.
                    let cout = b.and(a_regs[i], b_regs[i]);
                    (x, cout)
                }
                Some(c) => {
                    let sum = b.xor(x, c);
                    let t1 = b.and(a_regs[i], b_regs[i]);
                    let t2 = b.and(x, c);
                    let cout = b.or(t1, t2);
                    b.recycle(t1);
                    b.recycle(t2);
                    b.recycle(c);
                    b.recycle(x);
                    (sum, cout)
                }
            };
            sums.push(sum);
            carry = Some(cout);
        }
        sums.push(carry.expect("at least one bit"));
        let program = b.finish(sums);
        let compiled = CompiledProgram::compile(&program).expect("builder output is always valid");
        Self {
            program,
            compiled,
            bits,
        }
    }

    /// The compiled microprogram.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The microprogram lowered for [`BitSliceEngine`] execution.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Word width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Adds two words electrically on `engine`, returning `a + b`
    /// (including the carry-out bit).
    ///
    /// # Panics
    ///
    /// Panics if the operands do not fit in the adder width or the engine
    /// is too small.
    pub fn add(&self, engine: &mut ImplyEngine, a: u64, b: u64) -> u64 {
        self.check_operand(a);
        self.check_operand(b);
        let mut inputs = Vec::with_capacity(2 * self.bits as usize);
        for i in 0..self.bits {
            inputs.push((a >> i) & 1 == 1);
        }
        for i in 0..self.bits {
            inputs.push((b >> i) & 1 == 1);
        }
        let out = engine.run(&self.program, &inputs);
        out.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | (u64::from(bit) << i))
    }

    /// Pure-Boolean evaluation (fast path for large sweeps).
    pub fn add_reference(&self, a: u64, b: u64) -> u64 {
        self.check_operand(a);
        self.check_operand(b);
        let mut inputs = Vec::with_capacity(2 * self.bits as usize);
        for i in 0..self.bits {
            inputs.push((a >> i) & 1 == 1);
        }
        for i in 0..self.bits {
            inputs.push((b >> i) & 1 == 1);
        }
        self.program
            .evaluate(&inputs)
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | (u64::from(bit) << i))
    }

    /// Adds up to `LANES * WORDS` = 512 operand pairs in one
    /// bit-sliced pass of the ripple microprogram: operands transpose
    /// into slice-major form (bit `i` of every lane's word packs into
    /// one `u64` slice), the compiled program runs once computing all
    /// lanes together, and the sum slices transpose back to one word per
    /// lane. A pass of at most [`LANES`] pairs runs one word per gate
    /// visit, a longer one [`WORDS`]: eight words with one filled cost
    /// about four times one word.
    ///
    /// Lane `k`'s result includes the carry-out at bit `self.bits()` —
    /// identical to [`ImplyAdder::add_reference`] — except for a 64-bit
    /// adder, whose 65th sum bit cannot fit the `u64` result word and is
    /// dropped (the sum wraps, like `u64::wrapping_add`).
    ///
    /// # Panics
    ///
    /// Panics if more than `LANES * WORDS` pairs are given, `sums.len()`
    /// mismatches `pairs.len()`, or an operand exceeds the adder width.
    pub fn add_sliced(&self, engine: &mut BitSliceEngine, pairs: &[(u64, u64)], sums: &mut [u64]) {
        assert!(
            pairs.len() <= LANES * WORDS,
            "at most {} lanes per sliced pass",
            LANES * WORDS
        );
        assert_eq!(pairs.len(), sums.len(), "one sum slot per operand pair");
        // An operand is too wide exactly when the OR of them all is.
        self.check_operand(pairs.iter().fold(0, |any, &(x, y)| any | x | y));
        if pairs.len() <= LANES {
            self.add_words::<1>(engine, pairs, sums);
        } else {
            self.add_words::<WORDS>(engine, pairs, sums);
        }
    }

    /// [`Self::add_sliced`] at `W` words per gate visit: pair `k` is
    /// lane `k % LANES` of word `k / LANES`.
    fn add_words<const W: usize>(
        &self,
        engine: &mut BitSliceEngine,
        pairs: &[(u64, u64)],
        sums: &mut [u64],
    ) {
        let bits = self.bits as usize;
        let mut outputs = [[0u64; W]; LANES + 1];
        // The program takes a's bits LSB-first, then b's.
        if bits <= 32 {
            // One transpose: row `i` becomes a's bit `i` and row
            // `bits + i` b's.
            let mut rows = [[0u64; W]; LANES];
            for (k, &(x, y)) in pairs.iter().enumerate() {
                rows[k % LANES][k / LANES] = x | y << bits;
            }
            transpose64(&mut rows);
            engine.run(&self.compiled, &rows[..2 * bits], &mut outputs[..=bits]);
        } else {
            let mut a = [[0u64; W]; LANES];
            let mut b = [[0u64; W]; LANES];
            for (k, &(x, y)) in pairs.iter().enumerate() {
                (a[k % LANES][k / LANES], b[k % LANES][k / LANES]) = (x, y);
            }
            transpose64(&mut a);
            transpose64(&mut b);
            let mut inputs = [[0u64; W]; 2 * LANES];
            inputs[..bits].copy_from_slice(&a[..bits]);
            inputs[bits..2 * bits].copy_from_slice(&b[..bits]);
            engine.run(&self.compiled, &inputs[..2 * bits], &mut outputs[..=bits]);
        }
        // A 64-bit adder's carry-out slice, row 64, is dropped.
        let words = outputs.first_chunk_mut().expect("65 sum slices");
        transpose64(words);
        for (k, sum) in sums.iter_mut().enumerate() {
            *sum = words[k % LANES][k / LANES];
        }
    }

    /// The adder's measured step/device cost.
    pub fn cost(&self, device: &DeviceParams) -> LogicCost {
        LogicCost {
            steps: self.program.len() as u64,
            devices: self.program.registers,
            latency: device.write_time * self.program.len() as f64,
            energy: Energy::ZERO, // measured by the engine at run time
            component: Component::ImplyStep,
        }
    }

    fn check_operand(&self, v: u64) {
        if self.bits < 64 {
            assert!(v < (1u64 << self.bits), "operand does not fit in width");
        }
    }
}

/// A ripple adder built from single-CRS implication gates (Fig. 5b
/// style), with CMOS periphery reading intermediate bits and re-encoding
/// them as terminal levels.
#[derive(Debug, Clone)]
pub struct CrsAdder {
    params: DeviceParams,
    bits: u32,
    imp_ops: u64,
}

impl CrsAdder {
    /// Creates an adder for the given width and device technology.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 64.
    pub fn new(bits: u32, params: DeviceParams) -> Self {
        assert!((1..=64).contains(&bits), "supported widths: 1..=64 bits");
        Self {
            params,
            bits,
            imp_ops: 0,
        }
    }

    fn imp(&mut self, p: bool, q: bool) -> bool {
        let mut gate = CrsImp::new(&self.params);
        self.imp_ops += 1;
        gate.imp(p, q)
    }

    fn not(&mut self, p: bool) -> bool {
        self.imp(p, false)
    }

    fn xor(&mut self, a: bool, b: bool) -> bool {
        let u = self.imp(a, b);
        let v = self.imp(b, a);
        let nv = self.not(v);
        self.imp(u, nv)
    }

    fn and(&mut self, a: bool, b: bool) -> bool {
        let nb = self.not(b);
        let nand = self.imp(a, nb);
        self.not(nand)
    }

    fn or(&mut self, a: bool, b: bool) -> bool {
        let na = self.not(a);
        self.imp(na, b)
    }

    /// Adds two words, executing every gate on a CRS cell.
    ///
    /// # Panics
    ///
    /// Panics if the operands do not fit in the adder width.
    pub fn add(&mut self, a: u64, b: u64) -> u64 {
        if self.bits < 64 {
            assert!(
                a < (1u64 << self.bits) && b < (1u64 << self.bits),
                "operand does not fit in width"
            );
        }
        let mut carry = false;
        let mut result = 0u64;
        for i in 0..self.bits {
            let ai = (a >> i) & 1 == 1;
            let bi = (b >> i) & 1 == 1;
            let x = self.xor(ai, bi);
            let sum = self.xor(x, carry);
            let t1 = self.and(ai, bi);
            let t2 = self.and(x, carry);
            carry = self.or(t1, t2);
            result |= u64::from(sum) << i;
        }
        result | (u64::from(carry) << self.bits)
    }

    /// Measured cost so far: 2 pulses per IMP, one CRS cell reused.
    pub fn cost(&self) -> LogicCost {
        LogicCost {
            steps: self.imp_ops * 2,
            devices: 1,
            latency: self.params.write_time * 10.0 * (self.imp_ops * 2) as f64,
            energy: self.params.write_energy * (self.imp_ops * 2) as f64,
            component: Component::CrossbarWrite,
        }
    }
}

/// The paper's CRS "TC adder" (Siemon et al., arXiv:1410.2031) as a cost
/// model: N+2 devices, 4N+5 steps, 8 write-energies per bit.
///
/// The TC adder's internal schedule is far more efficient than naive
/// gate-by-gate composition (compare [`CrsAdder::cost`]); the architecture
/// model uses these numbers to reproduce Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcAdderModel {
    /// Word width in bits.
    pub bits: u32,
}

impl TcAdderModel {
    /// Creates the model for `bits`-wide words.
    pub fn new(bits: u32) -> Self {
        Self { bits }
    }

    /// The functional semantics the compiler's tensor graph gives an
    /// addition node when it evaluates: host wrapping addition, not an
    /// executed IMPLY adder (that is [`ImplyAdder`]).
    pub fn add(self, a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }

    /// Paper cost: `4N+5` steps of one write time, `N+2` devices, `8N`
    /// write energies.
    pub fn cost(self, write_time: Time, write_energy: Energy) -> LogicCost {
        LogicCost::tc_adder_paper(self.bits, write_time, write_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_imply_adder_is_exact_electrically() {
        let adder = ImplyAdder::new(4);
        let mut engine = ImplyEngine::for_program(adder.program());
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(adder.add(&mut engine, a, b), a + b, "{a} + {b}");
            }
        }
    }

    #[test]
    fn thirty_two_bit_reference_addition_is_exact() {
        let adder = ImplyAdder::new(32);
        let cases = [
            (0u64, 0u64),
            (1, 1),
            (0xFFFF_FFFF, 1),
            (0xDEAD_BEEF, 0x1234_5678),
            (0x8000_0000, 0x8000_0000),
        ];
        for (a, b) in cases {
            assert_eq!(adder.add_reference(a, b), a + b, "{a:#x} + {b:#x}");
        }
    }

    #[test]
    fn sliced_addition_matches_reference_for_four_bits_exhaustively() {
        let adder = ImplyAdder::new(4);
        let mut engine = BitSliceEngine::new();
        // All 256 operand pairs in one four-word pass, then again in
        // one-word passes.
        let pairs: Vec<(u64, u64)> = (0..16u64)
            .flat_map(|a| (0..16u64).map(move |b| (a, b)))
            .collect();
        for chunk in [&pairs[..]].into_iter().chain(pairs.chunks(LANES)) {
            let mut sums = vec![0u64; chunk.len()];
            adder.add_sliced(&mut engine, chunk, &mut sums);
            for (&(a, b), &sum) in chunk.iter().zip(&sums) {
                // The carry-out rides at bit 4, exactly as in
                // `add_reference`.
                assert_eq!(sum, a + b, "{a} + {b}");
            }
        }
    }

    #[test]
    fn sliced_addition_matches_reference_at_32_bits() {
        let adder = ImplyAdder::new(32);
        let mut engine = BitSliceEngine::new();
        let pairs: Vec<(u64, u64)> = (0..(LANES * WORDS) as u64)
            .map(|k| {
                let a = k.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF;
                let b = k.wrapping_mul(0x85EB_CA6B).rotate_left(7) & 0xFFFF_FFFF;
                (a, b)
            })
            .collect();
        let mut sums = vec![0u64; pairs.len()];
        adder.add_sliced(&mut engine, &pairs, &mut sums);
        for (&(a, b), &sum) in pairs.iter().zip(&sums) {
            assert_eq!(sum, adder.add_reference(a, b), "{a:#x} + {b:#x}");
            assert_eq!(sum, a + b, "{a:#x} + {b:#x}");
        }
    }

    #[test]
    fn sliced_addition_wraps_at_64_bits() {
        let adder = ImplyAdder::new(64);
        let mut engine = BitSliceEngine::new();
        let pairs = [(u64::MAX, 1u64), (u64::MAX, u64::MAX), (5, 7)];
        let mut sums = [0u64; 3];
        adder.add_sliced(&mut engine, &pairs, &mut sums);
        for (&(a, b), &sum) in pairs.iter().zip(&sums) {
            assert_eq!(sum, a.wrapping_add(b), "{a:#x} + {b:#x}");
        }
    }

    #[test]
    fn adder_cost_scales_linearly() {
        let device = DeviceParams::table1_cim();
        let c8 = ImplyAdder::new(8).cost(&device);
        let c32 = ImplyAdder::new(32).cost(&device);
        let ratio = c32.steps as f64 / c8.steps as f64;
        assert!((3.0..=5.0).contains(&ratio), "steps ratio {ratio}");
        assert!(c32.devices > c8.devices);
    }

    #[test]
    fn crs_adder_is_exact() {
        let mut adder = CrsAdder::new(8, DeviceParams::table1_cim());
        for (a, b) in [(0u64, 0u64), (1, 1), (200, 55), (255, 255), (127, 128)] {
            assert_eq!(adder.add(a, b), a + b, "{a} + {b}");
        }
    }

    #[test]
    fn tc_adder_model_matches_paper_formulas() {
        let m = TcAdderModel::new(32);
        assert_eq!(m.add(7, 8), 15);
        let cost = m.cost(
            Time::from_pico_seconds(200.0),
            Energy::from_femto_joules(1.0),
        );
        assert_eq!(cost.steps, 133);
        assert_eq!(cost.devices, 34);
    }

    #[test]
    fn tc_adder_beats_naive_crs_composition() {
        let mut naive = CrsAdder::new(32, DeviceParams::table1_cim());
        let _ = naive.add(123_456, 654_321);
        let naive_cost = naive.cost();
        let tc = TcAdderModel::new(32).cost(
            Time::from_pico_seconds(200.0),
            Energy::from_femto_joules(1.0),
        );
        assert!(
            tc.steps * 3 < naive_cost.steps,
            "TC {} vs naive {}",
            tc.steps,
            naive_cost.steps
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_operands() {
        let adder = ImplyAdder::new(4);
        let _ = adder.add_reference(16, 0);
    }

    #[test]
    #[should_panic(expected = "supported widths")]
    fn rejects_zero_width() {
        let _ = ImplyAdder::new(0);
    }
}
