//! Three-way equivalence of the execution paths: the bit-sliced kernel
//! ([`BitSliceEngine`]) against the scalar Boolean reference
//! ([`Program::evaluate`]) against electrical execution
//! ([`ImplyEngine`]), lane by lane, on random programs × random 64-lane
//! inputs.
//!
//! Random expressions with ≤ 6 variables synthesize to programs that
//! compile down the truth-table fast path; the adder programs (≥ 8
//! inputs) exercise the op-stream kernel. Both kernels must agree with
//! the scalar semantics on every one of the 64 lanes, and the scalar
//! semantics must in turn agree with the device-physics engine — so a
//! defect anywhere in the lowering, the Shannon combine, or the lane
//! packing cannot hide. [`ImplyAdder::add_sliced`] closes the loop on
//! the transpose: any pass of 1–64 operand pairs, at any word width up
//! to the 64-bit carry wrap, must equal the scalar adder pair by pair.

use cim_logic::{
    synthesize, BitSliceEngine, CompiledProgram, Expr, ImplyAdder, ImplyEngine, Program, LANES,
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

/// Runs the scalar reference on lane `lane` of `slices`.
fn scalar_lane(program: &Program, slices: &[u64], lane: usize) -> Vec<bool> {
    let bits: Vec<bool> = slices.iter().map(|&s| (s >> lane) & 1 == 1).collect();
    program.evaluate(&bits)
}

/// Asserts sliced == scalar on every lane, returning the sliced output.
fn check_sliced_vs_scalar(
    program: &Program,
    compiled: &CompiledProgram,
    slices: &[u64],
) -> Result<Vec<u64>, proptest::test_runner::TestCaseError> {
    let mut engine = BitSliceEngine::new();
    let mut outs = vec![0u64; compiled.num_outputs()];
    engine.run(compiled, slices, &mut outs);
    for lane in 0..LANES {
        let expect = scalar_lane(program, slices, lane);
        let got: Vec<bool> = outs.iter().map(|&o| (o >> lane) & 1 == 1).collect();
        prop_assert_eq!(&got, &expect, "lane {}", lane);
    }
    Ok(outs)
}

proptest! {
    #[test]
    fn lut_kernel_matches_scalar_on_random_programs(
        expr in arb_expr(5),
        raw in prop::collection::vec(any::<u64>(), 5),
    ) {
        let program = synthesize(&expr);
        let compiled = CompiledProgram::compile(&program).expect("valid program");
        prop_assert!(compiled.is_lut(), "≤ 6 inputs must take the LUT path");
        let slices = &raw[..program.inputs.len()];
        check_sliced_vs_scalar(&program, &compiled, slices)?;
    }

    #[test]
    fn ops_kernel_matches_scalar_on_the_adder_program(
        a in any::<u64>(),
        b in any::<u64>(),
        salt in any::<u64>(),
    ) {
        // The 8-bit adder has 16 inputs — well past the LUT threshold —
        // and its program stresses register reuse (recycled scratch).
        let adder = ImplyAdder::new(8);
        let compiled = CompiledProgram::compile(adder.program()).expect("valid program");
        prop_assert!(!compiled.is_lut(), "16 inputs must take the op stream");
        // 16 input slices derived from the three random words.
        let slices: Vec<u64> = (0..16u64)
            .map(|i| a.rotate_left(i as u32) ^ b.wrapping_mul(i | 1) ^ salt)
            .collect();
        check_sliced_vs_scalar(adder.program(), &compiled, &slices)?;
    }

    #[test]
    fn sliced_adder_matches_scalar_on_ragged_passes(
        bits in (0usize..3).prop_map(|i| [8u32, 32, 64][i]),
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 1..=LANES),
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
