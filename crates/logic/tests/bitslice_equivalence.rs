//! Three-way equivalence of the execution paths: the bit-sliced kernel
//! ([`BitSliceEngine`]) against the scalar Boolean reference
//! ([`Program::evaluate`]) against electrical execution
//! ([`ImplyEngine`]), lane by lane, on random programs × random 64-lane
//! inputs.
//!
//! Every program runs through one kernel: the folded OR-netlist that
//! [`CompiledProgram::compile`] derives by symbolic execution. Three
//! program families feed it — raw step streams (recycled-register
//! `FALSE`s, outputs that fold to a constant or a negated input, `IMP`
//! onto a cleared target), synthesized expressions over up to 9
//! variables, and the adder — and the netlist must agree with the
//! scalar semantics on every one of the 64 lanes, while still reporting
//! the source program's steps and write targets to the cost model. The
//! scalar semantics must in turn agree with the device-physics engine,
//! so a defect anywhere in the lowering, the folding, or the lane
//! packing cannot hide. [`ImplyAdder::add_sliced`] closes the loop on
//! the transpose: any pass of 0–512 operand pairs (one word or eight,
//! full or ragged), at every width from 1 bit to the 64-bit carry wrap
//! (one input transpose up to 32 bits, two above), must equal the
//! scalar adder pair by pair.

use cim_logic::{
    synthesize, transpose64, BitSliceEngine, Comparator, CompiledProgram, Expr, ImplyAdder,
    ImplyEngine, Program, Step, LANES, WORDS,
};
use proptest::prelude::*;

/// Random Boolean expressions over `vars` variables, depth-bounded.
fn arb_expr(vars: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..vars).prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(cim_logic::Expr::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.xor(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.imp(b)),
        ]
    })
}

/// Raw step streams that pass [`Program::validate`] by construction:
/// 1–12 inputs at rotated register positions, 1–8 scratch registers,
/// up to 64 steps (one in four a `FALSE`) whose `IMP` antecedents are
/// already defined, and 1–4 outputs on scratch registers, which may
/// never be written at all.
fn arb_raw_program() -> impl Strategy<Value = Program> {
    let step = (0u32..4, any::<u32>(), any::<u32>());
    (
        1usize..=12,
        1usize..=8,
        any::<usize>(),
        prop::collection::vec(step, 0..=64),
        prop::collection::vec(any::<u32>(), 1..=4),
    )
        .prop_map(|(n, scratch, rot, draws, outs)| {
            let registers = n + scratch;
            let reg = |k: usize| (k + rot % registers) % registers;
            let scratch_reg = |draw: u32| reg(n + draw as usize % scratch);
            let mut defined: Vec<usize> = (0..n).map(reg).collect();
            let mut steps = Vec::new();
            for (kind, p, q) in draws {
                let (p, q) = (defined[p as usize % defined.len()], scratch_reg(q));
                steps.push(if kind == 0 || p == q {
                    Step::False(q)
                } else {
                    Step::Imply(p, q)
                });
                if !defined.contains(&q) {
                    defined.push(q);
                }
            }
            Program {
                steps,
                registers,
                inputs: (0..n).map(reg).collect(),
                outputs: outs.into_iter().map(scratch_reg).collect(),
            }
        })
}

/// Runs the scalar reference on lane `lane` of `slices`.
fn scalar_lane(program: &Program, slices: &[u64], lane: usize) -> Vec<bool> {
    let bits: Vec<bool> = slices.iter().map(|&s| (s >> lane) & 1 == 1).collect();
    program.evaluate(&bits)
}

/// Asserts that `compiled` still reports `program`'s modelled cost:
/// its step count and write targets, with no more gates than steps.
fn check_source_cost(
    program: &Program,
    compiled: &CompiledProgram,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(compiled.steps(), program.len());
    let targets: Vec<u32> = program.steps.iter().map(|s| s.target() as u32).collect();
    prop_assert_eq!(compiled.step_targets(), &targets[..]);
    prop_assert!(compiled.gates() <= compiled.steps());
    Ok(())
}

/// Asserts sliced == scalar on every lane, returning the sliced output.
fn check_sliced_vs_scalar(
    program: &Program,
    compiled: &CompiledProgram,
    slices: &[u64],
) -> Result<Vec<u64>, proptest::test_runner::TestCaseError> {
    let inputs: Vec<[u64; 1]> = slices.iter().map(|&s| [s]).collect();
    let mut words = vec![[0u64]; compiled.num_outputs()];
    BitSliceEngine::new().run(compiled, &inputs, &mut words);
    let outs: Vec<u64> = words.iter().map(|&[o]| o).collect();
    for lane in 0..LANES {
        let expect = scalar_lane(program, slices, lane);
        let got: Vec<bool> = outs.iter().map(|&o| (o >> lane) & 1 == 1).collect();
        prop_assert_eq!(&got, &expect, "lane {}", lane);
    }
    Ok(outs)
}

#[test]
fn lowering_reports_the_source_programs_cost() {
    let cmp = Comparator::new();
    let (adder8, adder32) = (ImplyAdder::new(8), ImplyAdder::new(32));
    let shipped = [
        cmp.eq_program(),
        cmp.nand_program(),
        adder8.program(),
        adder32.program(),
    ];
    for program in shipped {
        let compiled = CompiledProgram::compile(program).expect("valid program");
        check_source_cost(program, &compiled).unwrap();
    }
    // The 1,564-step 32-bit ripple adder folds to 283 ORs.
    assert_eq!(adder32.program().len(), 1564);
    assert_eq!(adder32.compiled().gates(), 283);
}

proptest! {
    #[test]
    fn kernel_matches_scalar_on_raw_step_streams(
        program in arb_raw_program(),
        raw in prop::collection::vec(any::<u64>(), 12),
    ) {
        prop_assert_eq!(program.validate(), Ok(()));
        let compiled = CompiledProgram::compile(&program).expect("valid program");
        check_source_cost(&program, &compiled)?;
        check_sliced_vs_scalar(&program, &compiled, &raw[..program.inputs.len()])?;
    }

    #[test]
    fn kernel_matches_scalar_on_synthesized_programs(
        expr in arb_expr(9),
        raw in prop::collection::vec(any::<u64>(), 9),
    ) {
        let program = synthesize(&expr);
        let compiled = CompiledProgram::compile(&program).expect("valid program");
        check_source_cost(&program, &compiled)?;
        let slices = &raw[..program.inputs.len()];
        check_sliced_vs_scalar(&program, &compiled, slices)?;
    }

    #[test]
    fn ops_kernel_matches_scalar_on_the_adder_program(
        a in any::<u64>(),
        b in any::<u64>(),
        salt in any::<u64>(),
    ) {
        // The 8-bit adder has 16 inputs, and its program stresses
        // register reuse (recycled scratch).
        let adder = ImplyAdder::new(8);
        let compiled = CompiledProgram::compile(adder.program()).expect("valid program");
        check_source_cost(adder.program(), &compiled)?;
        // 16 input slices derived from the three random words.
        let slices: Vec<u64> = (0..16u64)
            .map(|i| a.rotate_left(i as u32) ^ b.wrapping_mul(i | 1) ^ salt)
            .collect();
        check_sliced_vs_scalar(adder.program(), &compiled, &slices)?;
    }

    #[test]
    fn transpose_is_an_involution(raw in prop::collection::vec(any::<u64>(), 64 * WORDS)) {
        let original: [[u64; WORDS]; 64] = std::array::from_fn(|i| {
            std::array::from_fn(|w| raw[i * WORDS + w])
        });
        let mut m = original;
        transpose64(&mut m);
        transpose64(&mut m);
        prop_assert_eq!(m, original);
    }

    #[test]
    fn sliced_adder_matches_scalar_on_ragged_passes(
        bits in 1u32..=64,
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 0..=LANES * WORDS),
    ) {
        let adder = ImplyAdder::new(bits);
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let pairs: Vec<(u64, u64)> = raw.iter().map(|&(a, b)| (a & mask, b & mask)).collect();
        let mut sums = vec![0u64; pairs.len()];
        adder.add_sliced(&mut BitSliceEngine::new(), &pairs, &mut sums);
        for (&(a, b), &sum) in pairs.iter().zip(&sums) {
            // A 64-bit adder's carry-out has no bit left: the sum wraps.
            let expect = if bits == 64 { a.wrapping_add(b) } else { adder.add_reference(a, b) };
            prop_assert_eq!(sum, expect, "{:#x} + {:#x}", a, b);
        }
    }

    #[test]
    fn electrical_execution_matches_the_sliced_lanes(
        expr in arb_expr(3),
        raw in prop::collection::vec(any::<u64>(), 3),
    ) {
        let program = synthesize(&expr);
        let compiled = CompiledProgram::compile(&program).expect("valid program");
        let slices = &raw[..program.inputs.len()];
        let outs = check_sliced_vs_scalar(&program, &compiled, slices)?;
        // Electrical cross-check on a spread of lanes (every lane would
        // repeat identical input words many times over at 3 inputs).
        let mut engine = ImplyEngine::for_program(&program);
        for lane in [0usize, 7, 31, 63] {
            let bits: Vec<bool> = slices.iter().map(|&s| (s >> lane) & 1 == 1).collect();
            let electrical = engine.run(&program, &bits);
            let sliced: Vec<bool> = outs.iter().map(|&o| (o >> lane) & 1 == 1).collect();
            prop_assert_eq!(&sliced, &electrical, "lane {}", lane);
        }
    }
}
