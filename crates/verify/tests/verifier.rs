//! End-to-end acceptance tests for the static verifier:
//!
//! * dead-step elimination is semantics-preserving on random valid
//!   programs (exhaustive over inputs) and reaches a lint-clean fixpoint;
//! * every shipped program and graph lints clean under `--deny-warnings`;
//! * every seeded-defect fixture is rejected with its code;
//! * the closed-form cost certificate equals the dynamic
//!   `RowParallelEngine` ledger **bit for bit** for every shipped program;
//! * the closed-form wear certificate equals the dynamic `WearLedger`
//!   **bit for bit** for every shipped program, on both the bit-sliced
//!   and the electrical backend, under row-partitioned execution, and
//!   on random valid programs; one-sided split-wear claims equal the
//!   solo certificate.

use cim_device::DeviceParams;
use cim_logic::{Program, RowParallelEngine, Step, WearLedger};
use cim_units::{CostLedger, Phase};
use cim_verify::{
    certify_plan, certify_split_wear, check_graph_mapping, check_program_mapping,
    eliminate_dead_steps, removable_steps, seeded_defects, shipped_graphs, shipped_programs,
    verify_program, CostCertificate, FabricSpec, SplitWearClaim, WearCertificate,
};
use proptest::prelude::*;

/// Raw entropy for one deterministic program-construction step.
type RawStep = (u8, usize, usize);

/// Builds a *valid* program from raw entropy: the construction tracks
/// which registers are defined so every IMP antecedent is an input or a
/// previously-written scratch register, writes only to scratch (inputs
/// are read-only under the broadcast model), and never self-implies.
fn build_valid_program(inputs: usize, scratch: usize, raw: &[RawStep]) -> Program {
    let registers = inputs + scratch;
    let mut defined: Vec<usize> = (0..inputs).collect();
    let mut steps = Vec::with_capacity(raw.len());
    for &(op, a, b) in raw {
        let q = inputs + b % scratch;
        if op % 2 == 0 {
            steps.push(Step::False(q));
        } else {
            let p = defined[a % defined.len()];
            if p == q {
                steps.push(Step::False(q));
            } else {
                steps.push(Step::Imply(p, q));
            }
        }
        if !defined.contains(&q) {
            defined.push(q);
        }
    }
    Program {
        steps,
        registers,
        inputs: (0..inputs).collect(),
        outputs: (inputs..registers).collect(),
    }
}

proptest! {
    #[test]
    fn dead_step_elimination_preserves_semantics(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>()),
            1..40,
        ),
        inputs in 1usize..4,
        scratch in 2usize..6,
    ) {
        let program = build_valid_program(inputs, scratch, &raw);
        prop_assert_eq!(program.validate(), Ok(()));
        let optimized = eliminate_dead_steps(&program);
        // The optimized program is still valid, no longer than the
        // original, and a fixpoint of the pass.
        prop_assert_eq!(optimized.validate(), Ok(()));
        prop_assert!(optimized.len() <= program.len());
        prop_assert_eq!(removable_steps(&optimized), 0);
        // Exhaustive equivalence over every input assignment.
        let (mut scratch_buf, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new());
        for bits in 0..(1u32 << inputs) {
            let vars: Vec<bool> = (0..inputs).map(|i| (bits >> i) & 1 == 1).collect();
            program.evaluate_into(&vars, &mut scratch_buf, &mut a);
            let original = a.clone();
            optimized.evaluate_into(&vars, &mut scratch_buf, &mut b);
            prop_assert_eq!(&original, &b, "inputs {:?}", vars);
        }
    }
}

#[test]
fn every_shipped_program_lints_clean() {
    let spec = FabricSpec::paper();
    for entry in shipped_programs() {
        let mut report = verify_program(entry.name, &entry.program);
        report.merge(check_program_mapping(
            entry.name,
            &entry.program,
            entry.rows,
            &spec,
        ));
        assert!(report.is_clean(), "{}:\n{report}", entry.name);
        assert_eq!(removable_steps(&entry.program), 0, "{}", entry.name);
    }
}

#[test]
fn every_shipped_graph_maps_and_conserves_cost() {
    let spec = FabricSpec::paper();
    for entry in shipped_graphs() {
        let report = check_graph_mapping(entry.name, &entry.graph, &spec);
        assert!(report.is_clean(), "{}:\n{report}", entry.name);
        let plan = spec
            .mapper
            .compile_checked(&entry.graph)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let cert = certify_plan(entry.name, &plan);
        assert!(cert.is_clean(), "{}:\n{cert}", entry.name);
    }
}

#[test]
fn all_seeded_defect_fixtures_are_rejected() {
    let fixtures = seeded_defects();
    assert!(fixtures.len() >= 9, "only {} fixtures", fixtures.len());
    for fixture in &fixtures {
        assert!(
            fixture.rejected_as_expected(),
            "{} not rejected with `{}`:\n{}",
            fixture.name(),
            fixture.expected_code(),
            fixture.verify()
        );
    }
}

#[test]
fn certificates_match_dynamic_ledgers_for_every_shipped_program() {
    let device = DeviceParams::table1_cim();
    for entry in shipped_programs() {
        let program = &entry.program;
        let cert = CostCertificate::broadcast(program, &device, entry.rows);
        let mut engine = RowParallelEngine::for_program_bitsliced(program, entry.rows);
        // Exercise a non-trivial input pattern per row.
        let inputs: Vec<Vec<bool>> = (0..entry.rows)
            .map(|row| {
                (0..program.inputs.len())
                    .map(|i| (row + i) % 3 == 0)
                    .collect()
            })
            .collect();
        let _ = engine.run(program, &inputs);
        assert_eq!(cert.to_cost(), engine.cost(), "{} single run", entry.name);
        let _ = engine.run(program, &inputs);
        let _ = engine.run(program, &inputs);
        assert_eq!(cert.after_runs(3), engine.cost(), "{} x3", entry.name);
        // Ledger-level identity: charging the certified cost reproduces
        // the dynamic ledger cell exactly.
        let mut dynamic = CostLedger::new();
        cert.to_cost().charge(&mut dynamic, Phase::Map, 1);
        assert_eq!(cert.ledger(Phase::Map, 1), dynamic, "{}", entry.name);
    }
}

/// A `RowParallelEngine` constructor for one backend.
type EngineBuilder = fn(&Program, usize) -> RowParallelEngine;

/// One non-trivial input pattern per row for `program`.
fn row_inputs(program: &Program, rows: usize) -> Vec<Vec<bool>> {
    (0..rows)
        .map(|row| {
            (0..program.inputs.len())
                .map(|i| (row + i) % 3 == 0)
                .collect()
        })
        .collect()
}

#[test]
fn wear_certificates_match_dynamic_ledgers_on_every_backend() {
    // The wear counts are position-classified, so the certificate must
    // hold on both backends — the bit-sliced one charges its compiled
    // artifact's step targets, the electrical one the source program's
    // — and at both thread shapes (one engine owning all rows, or the
    // rows partitioned across four engines — per-device wear is
    // invariant under the partitioning, because broadcast stresses each
    // row's devices identically regardless of who drives the row).
    for entry in shipped_programs() {
        let program = &entry.program;
        let cert = WearCertificate::broadcast(program);
        let engines: [(&str, EngineBuilder); 2] = [
            ("bit-sliced", RowParallelEngine::for_program_bitsliced),
            ("electrical", RowParallelEngine::for_program),
        ];
        for (backend, build) in engines {
            for threads in [1usize, 4] {
                let rows_per = entry.rows / threads;
                let mut partitions: Vec<RowParallelEngine> =
                    (0..threads).map(|_| build(program, rows_per)).collect();
                for engine in &mut partitions {
                    let inputs = row_inputs(program, rows_per);
                    let _ = engine.run(program, &inputs);
                    let _ = engine.run(program, &inputs);
                }
                for engine in &partitions {
                    assert!(
                        cert.check_ledger(entry.name, 2, engine.wear()).is_clean(),
                        "{} {backend} x{threads}",
                        entry.name
                    );
                    assert_eq!(
                        &cert.after_runs(2),
                        engine.wear(),
                        "{} {backend} x{threads}",
                        entry.name
                    );
                }
            }
        }
    }
}

#[test]
fn wear_ledgers_merge_like_sequential_reuse() {
    // Merging is the reduction for *time-sequential* reuse of the same
    // columns (successive batches on one array): R merged single-run
    // ledgers equal the certificate at R runs, bit for bit.
    for entry in shipped_programs() {
        let program = &entry.program;
        let cert = WearCertificate::broadcast(program);
        let mut merged = WearLedger::new(program.registers);
        for _ in 0..3 {
            let mut engine = RowParallelEngine::for_program_bitsliced(program, entry.rows);
            let _ = engine.run(program, &row_inputs(program, entry.rows));
            merged.merge(engine.wear());
        }
        assert_eq!(cert.after_runs(3), merged, "{}", entry.name);
    }
}

#[test]
fn one_sided_split_wear_claims_equal_the_solo_certificate() {
    // A split plan that routes every run to the CIM shard must carry
    // exactly the solo program's wear — splitting can shed array wear
    // onto the host, never mint it.
    for entry in shipped_programs() {
        let cert = WearCertificate::broadcast(&entry.program);
        let solo = SplitWearClaim {
            runs: 512,
            cim_runs: 512,
            host_runs: 0,
            cim_wear: cert.after_runs(512),
        };
        let report = certify_split_wear(entry.name, &cert, &solo);
        assert!(report.is_clean(), "{}:\n{report}", entry.name);
        // Shifting one run to the host without shedding its wear is a
        // forged claim.
        let forged = SplitWearClaim {
            cim_runs: 511,
            host_runs: 1,
            ..solo
        };
        let report = certify_split_wear(entry.name, &cert, &forged);
        assert!(
            report.has_code("wear-cert-mismatch"),
            "{}:\n{report}",
            entry.name
        );
    }
}

proptest! {
    #[test]
    fn wear_certificates_match_dynamic_ledgers_on_random_programs(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>()),
            1..40,
        ),
        inputs in 1usize..4,
        scratch in 2usize..6,
        rows in 1usize..80,
    ) {
        let program = build_valid_program(inputs, scratch, &raw);
        let cert = WearCertificate::broadcast(&program);
        let mut engine = RowParallelEngine::for_program_bitsliced(&program, rows);
        let input_rows = row_inputs(&program, rows);
        let _ = engine.run(&program, &input_rows);
        prop_assert!(cert.check_ledger("random", 1, engine.wear()).is_clean());
        let _ = engine.run(&program, &input_rows);
        prop_assert_eq!(&cert.after_runs(2), engine.wear());
        // Conservation: every step stresses every column exactly once.
        let steps = program.len() as u64;
        prop_assert!(cert.columns.iter().all(|c| c.total() == steps));
    }
}
