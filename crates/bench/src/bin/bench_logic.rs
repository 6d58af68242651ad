//! Functional-kernel snapshot: measures the bit-sliced IMPLY kernels as
//! the executors run them — the eq-comparator at one 64-lane word per
//! gate visit and the ripple adder at `LANES * WORDS` = 512 lanes per
//! pass, each against its one-lane reference (`Program::evaluate_into`,
//! `ImplyAdder::add_reference`) — and the paper's full-scale 10⁶
//! parallel additions through the executor, and writes the numbers to
//! `BENCH_logic.json` at the workspace root, so the perf trajectory is
//! tracked in-repo from PR to PR.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin bench_logic            # measure + write
//! cargo run --release -p cim-bench --bin bench_logic -- --check # measure + compare
//! ```
//!
//! The speedups are host wall-clock ratios, recorded with `host_cores`.
//! Every run measures afresh and gates the two kernel ratios, each
//! measured against its one-lane reference in the same process: it exits
//! 1 when `comparator_speedup` or `adder_speedup` falls below its floor
//! in [`SPEEDUP_FLOORS`] (a debug build skips the gate and says so).
//! `--check` then writes nothing and requires the checked-in file to
//! carry the same fields in the same order, the modelled ones (schema,
//! sample and op counts) byte-identical and every host measurement
//! numeric ([`cim_bench::Snapshot::check`]).

use std::time::Instant;

use cim_bench::{repo_root_file, Args, Snapshot};
use cim_logic::{BitSliceEngine, Comparator, ImplyAdder, LANES, WORDS};
use cim_sim::{BatchPolicy, CimExecutor, ExecutionBackend};
use cim_workloads::AdditionWorkload;

const SCHEMA: &str = "cim-bench-logic/5";

/// Floors of the within-run kernel ratios (sliced over scalar, same
/// process), each at most half the smallest value measured over ten
/// fresh runs on a 2-core host (EXPERIMENTS.md).
const SPEEDUP_FLOORS: [(&str, f64); 2] = [("comparator_speedup", 60.0), ("adder_speedup", 55.0)];

/// Median wall-clock nanoseconds of `routine` over `samples` runs (one
/// un-timed warm-up first).
fn median_ns(samples: usize, mut routine: impl FnMut()) -> f64 {
    routine();
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] as f64
}

/// Comparator pass over pre-packed 64-lane groups: returns median ns.
fn comparator_pass(samples: usize, cmp: &Comparator, pairs: &[(u8, u8)]) -> f64 {
    let packed: Vec<[u64; 5]> = pairs
        .chunks(LANES)
        .map(|group| {
            let mut slices = [0u64; 5];
            for (lane, &(a, b)) in group.iter().enumerate() {
                slices[0] |= u64::from(a & 1) << lane;
                slices[1] |= u64::from(a >> 1 & 1) << lane;
                slices[2] |= u64::from(b & 1) << lane;
                slices[3] |= u64::from(b >> 1 & 1) << lane;
            }
            slices[4] = u64::MAX >> (LANES - group.len());
            slices
        })
        .collect();
    median_ns(samples, || {
        let mut engine = BitSliceEngine::new();
        let mut matches = 0u64;
        for &[a0, a1, b0, b1, mask] in &packed {
            let eq = cmp.matches_sliced(&mut engine, a0, a1, b0, b1) & mask;
            matches += u64::from(eq.count_ones());
        }
        std::hint::black_box(matches);
    })
}

/// Adder pass over `LANES * WORDS`-pair operand groups, the executor's
/// pass size: returns median ns.
fn adder_pass(samples: usize, adder: &ImplyAdder, operands: &[(u64, u64)]) -> f64 {
    median_ns(samples, || {
        let mut engine = BitSliceEngine::new();
        let mut sums = [0u64; LANES * WORDS];
        let mut checksum = 0u64;
        for group in operands.chunks(LANES * WORDS) {
            adder.add_sliced(&mut engine, group, &mut sums[..group.len()]);
            for &s in &sums[..group.len()] {
                checksum = checksum.wrapping_add(s);
            }
        }
        std::hint::black_box(checksum);
    })
}

fn main() {
    let args = Args::capture_strict(&["--check"], &[]);
    let samples = 50;
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    // ── Eq-comparator kernel: one pass over `cmp_ops` symbol pairs ──
    // Inputs are marshalled outside the timed region on both sides so
    // the comparison isolates kernel execution (the 10⁶-addition run
    // below charges transposition at its real place in the pipeline).
    let cmp = Comparator::new();
    let cmp_ops: usize = 1 << 17;
    let pairs: Vec<(u8, u8)> = (0..cmp_ops)
        .map(|k| ((k % 4) as u8, ((k / 4) % 4) as u8))
        .collect();
    let scalar_inputs: Vec<[bool; 4]> = pairs
        .iter()
        .map(|&(a, b)| [a & 1 == 1, a & 2 == 2, b & 1 == 1, b & 2 == 2])
        .collect();

    let cmp_scalar = {
        let program = cmp.eq_program();
        median_ns(samples, || {
            let (mut scratch, mut out) = (Vec::new(), Vec::new());
            let mut matches = 0u64;
            for inputs in &scalar_inputs {
                program.evaluate_into(inputs, &mut scratch, &mut out);
                matches += u64::from(out[0]);
            }
            std::hint::black_box(matches);
        })
    };
    let cmp_sliced = comparator_pass(samples, &cmp, &pairs);
    let cmp_speedup = cmp_scalar / cmp_sliced;

    // ── 32-bit ripple adder: one pass over `add_ops` operand pairs ──
    let adder = ImplyAdder::new(32);
    let add_ops: usize = 1 << 13;
    let operands: Vec<(u64, u64)> = (0..add_ops as u64)
        .map(|k| {
            (
                k.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF,
                k.wrapping_mul(0x85EB_CA6B).rotate_left(9) & 0xFFFF_FFFF,
            )
        })
        .collect();

    let add_scalar = median_ns(samples, || {
        let mut checksum = 0u64;
        for &(a, b) in &operands {
            checksum = checksum.wrapping_add(adder.add_reference(a, b));
        }
        std::hint::black_box(checksum);
    });
    let add_sliced = adder_pass(samples, &adder, &operands);
    let add_speedup = add_scalar / add_sliced;

    // ── Full-scale 10⁶ parallel additions (the paper's headline
    // workload), measured — not projected — through the serial
    // bit-sliced executor ──
    let million_ops: u64 = 1_000_000;
    let million = AdditionWorkload::scaled(million_ops, 7);
    let million_samples = 5;
    let million_sliced = {
        let exec = CimExecutor::with_batch(BatchPolicy::SERIAL);
        median_ns(million_samples, || {
            let out =
                ExecutionBackend::<AdditionWorkload>::run(&exec, &million).expect("million adds");
            std::hint::black_box(out.digest.checksum);
        })
    };

    let per = |total_ns: f64, ops: usize| total_ns / ops as f64;
    println!(
        "== logic kernel snapshot ({samples} samples, median ns per pass, {host_cores} cores) =="
    );
    println!(
        "comparator scalar       {cmp_scalar:>12.0}   ({:.2} ns/op, {cmp_ops} ops)",
        per(cmp_scalar, cmp_ops)
    );
    println!(
        "comparator sliced       {cmp_sliced:>12.0}   ({:.2} ns/op, {cmp_speedup:.1}x)",
        per(cmp_sliced, cmp_ops)
    );
    println!(
        "adder scalar            {add_scalar:>12.0}   ({:.1} ns/op, {add_ops} ops)",
        per(add_scalar, add_ops)
    );
    println!(
        "adder sliced            {add_sliced:>12.0}   ({:.1} ns/op, {add_speedup:.1}x)",
        per(add_sliced, add_ops)
    );
    println!("10^6 adds sliced        {million_sliced:>12.0}   ({million_ops} ops)");

    if cfg!(debug_assertions) {
        println!("[skip] speedup floors: set for optimised builds, and this is a debug build");
    } else {
        let mut below = false;
        for ((name, floor), speedup) in SPEEDUP_FLOORS.into_iter().zip([cmp_speedup, add_speedup]) {
            if speedup < floor {
                eprintln!("[fail] {name} {speedup:.1}x is below its {floor}x floor");
                below = true;
            } else {
                println!("[ok] {name} {speedup:.1}x >= {floor}x floor");
            }
        }
        if below {
            std::process::exit(1);
        }
    }

    let mut snap = Snapshot::default();
    snap.modelled("schema", SCHEMA)
        .modelled("samples", samples)
        .host("host_cores", host_cores)
        .modelled("comparator_ops", cmp_ops)
        .host("comparator_scalar_ns", cmp_scalar)
        .host("comparator_sliced_ns", cmp_sliced)
        .host("comparator_speedup", cmp_speedup)
        .modelled("adder_ops", add_ops)
        .host("adder_scalar_ns", add_scalar)
        .host("adder_sliced_ns", add_sliced)
        .host("adder_speedup", add_speedup)
        .modelled("million_adds_ops", million_ops)
        .host("million_adds_sliced_ns", million_sliced);
    snap.finish(&repo_root_file("BENCH_logic.json"), &args);
}
