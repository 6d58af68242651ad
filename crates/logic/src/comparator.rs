//! The DNA-character comparator of Table 1: "2 XOR and a NAND
//! implemented by implication logic … 13 memristors … 16 steps".

use serde::{Deserialize, Serialize};

use cim_device::DeviceParams;
use cim_units::Component;

use crate::bitslice::{BitSliceEngine, CompiledProgram};
use crate::cost::LogicCost;
use crate::engine::ImplyEngine;
use crate::program::{Program, ProgramBuilder};

/// A 2-bit symbol comparator in IMPLY logic.
///
/// DNA characters are 2-bit symbols (A/C/G/T). The comparator XORs the
/// two bit lanes and combines them. Two output conventions are provided:
///
/// * [`Comparator::eq_program`] — `eq = ¬(x₀ ∨ x₁)` (NOR): true exactly
///   when the symbols match. This is what the DNA workload needs.
/// * [`Comparator::nand_program`] — `out = ¬(x₀ ∧ x₁)` (NAND): the
///   literal gate named in Table 1; false only when *both* bit lanes
///   differ.
///
/// The measured step counts are reported next to the paper's quoted
/// 16 steps / 13 memristors in EXPERIMENTS.md.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparator {
    eq: Program,
    nand: Program,
    eq_compiled: CompiledProgram,
}

impl Comparator {
    /// Compiles both comparator variants (plus the bit-sliced artifact
    /// of the equality program, which is the DNA hot kernel).
    pub fn new() -> Self {
        let eq = Self::build(true);
        let eq_compiled = CompiledProgram::compile(&eq).expect("builder output is always valid");
        Self {
            eq,
            nand: Self::build(false),
            eq_compiled,
        }
    }

    fn build(use_nor: bool) -> Program {
        let mut b = ProgramBuilder::new();
        let a0 = b.input();
        let a1 = b.input();
        let b0 = b.input();
        let b1 = b.input();
        let x0 = b.xor(a0, b0);
        let x1 = b.xor(a1, b1);
        let out = if use_nor {
            let any_diff = b.or(x0, x1);
            b.not(any_diff)
        } else {
            b.nand(x0, x1)
        };
        b.finish(vec![out])
    }

    /// The equality (NOR-combining) program.
    pub fn eq_program(&self) -> &Program {
        &self.eq
    }

    /// The paper-literal NAND-combining program.
    pub fn nand_program(&self) -> &Program {
        &self.nand
    }

    /// The equality program lowered for [`BitSliceEngine`] execution.
    pub fn eq_compiled(&self) -> &CompiledProgram {
        &self.eq_compiled
    }

    /// Compares two 2-bit symbols electrically.
    pub fn matches(&self, engine: &mut ImplyEngine, a: u8, b: u8) -> bool {
        let inputs = [a & 1 == 1, a & 2 == 2, b & 1 == 1, b & 2 == 2];
        engine.run(&self.eq, &inputs)[0]
    }

    /// Compares up to 64 symbol pairs at once: bit `k` of each input
    /// slice is lane `k`'s bit, and bit `k` of the result is lane `k`'s
    /// equality. `a0`/`a1` carry the low/high bits of the first symbols,
    /// `b0`/`b1` those of the second.
    pub fn matches_sliced(
        &self,
        engine: &mut BitSliceEngine,
        a0: u64,
        a1: u64,
        b0: u64,
        b1: u64,
    ) -> u64 {
        let mut out = [[0u64]];
        engine.run(&self.eq_compiled, &[[a0], [a1], [b0], [b1]], &mut out);
        out[0][0]
    }

    /// Measured cost of the equality comparator.
    pub fn measured_cost(&self, device: &DeviceParams) -> LogicCost {
        LogicCost {
            steps: self.eq.len() as u64,
            devices: self.eq.registers,
            latency: device.write_time * self.eq.len() as f64,
            energy: device.write_energy * self.eq.len() as f64,
            component: Component::ImplyStep,
        }
    }

    /// The paper's quoted cost (16 steps, 13 memristors, 3.2 ns, 45 fJ).
    pub fn paper_cost(&self) -> LogicCost {
        LogicCost::comparator_paper()
    }
}

impl Default for Comparator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_variant_detects_equality_of_all_symbol_pairs() {
        let cmp = Comparator::new();
        let mut engine = ImplyEngine::for_program(cmp.eq_program());
        for a in 0..4u8 {
            for b in 0..4u8 {
                assert_eq!(cmp.matches(&mut engine, a, b), a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn sliced_comparison_matches_scalar_for_all_pairs() {
        let cmp = Comparator::new();
        assert!(cmp.eq_compiled().gates() <= cmp.eq_program().len());
        // All 16 symbol pairs in the low 16 lanes: lane = a * 4 + b.
        let (mut a0, mut a1, mut b0, mut b1) = (0u64, 0u64, 0u64, 0u64);
        for a in 0..4u64 {
            for b in 0..4u64 {
                let lane = a * 4 + b;
                a0 |= (a & 1) << lane;
                a1 |= ((a >> 1) & 1) << lane;
                b0 |= (b & 1) << lane;
                b1 |= ((b >> 1) & 1) << lane;
            }
        }
        let mut engine = BitSliceEngine::new();
        let eq = cmp.matches_sliced(&mut engine, a0, a1, b0, b1);
        for a in 0..4u64 {
            for b in 0..4u64 {
                let lane = a * 4 + b;
                assert_eq!((eq >> lane) & 1 == 1, a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn nand_variant_matches_its_truth_table() {
        let cmp = Comparator::new();
        // NAND of the two lane-XORs: false iff both lanes differ.
        for a in 0..4u8 {
            for b in 0..4u8 {
                let inputs = [a & 1 == 1, a & 2 == 2, b & 1 == 1, b & 2 == 2];
                let expect = !((a & 1 != b & 1) && (a & 2 != b & 2));
                assert_eq!(cmp.nand_program().evaluate(&inputs), vec![expect]);
            }
        }
    }

    #[test]
    fn footprint_is_near_the_papers_thirteen_memristors() {
        let cmp = Comparator::new();
        let device = DeviceParams::table1_cim();
        let cost = cmp.measured_cost(&device);
        assert!(
            (8..=20).contains(&cost.devices),
            "comparator footprint {} diverges from the paper's 13",
            cost.devices
        );
        // Step count within 2x of the paper's 16.
        assert!(
            (8..=32).contains(&(cost.steps as usize)),
            "comparator steps {} diverge from the paper's 16",
            cost.steps
        );
    }

    #[test]
    fn paper_cost_is_exposed() {
        let cmp = Comparator::new();
        assert_eq!(cmp.paper_cost().steps, 16);
        assert_eq!(cmp.paper_cost().devices, 13);
    }
}
