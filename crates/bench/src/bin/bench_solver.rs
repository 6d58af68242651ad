//! Solver hot-path snapshot: measures the warm-start / workspace-reuse /
//! batch-of-solves numbers against a cold solve and writes them to
//! `BENCH_solver.json` at the workspace root, so the perf trajectory is
//! tracked in-repo from PR to PR.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin bench_solver            # measure + write
//! cargo run --release -p cim-bench --bin bench_solver -- --check # measure + compare
//! ```
//!
//! Every run measures afresh and **gates the parallelism headline** on
//! the fresh value: it exits 1 unless
//! `batch_solves_exposed_concurrency > 2.0`. It also exits 1 unless a
//! warm repeat of the 64×64 access takes fewer solver sweeps
//! (`SolvedRead::iterations`) than its cold solve, a check that no host
//! noise can move.
//! `--check` then writes nothing and requires the checked-in file to
//! carry the same fields in the same order, the modelled ones (schema,
//! array size, sample and batch counts) byte-identical and every host
//! measurement numeric ([`cim_bench::Snapshot::check`]).
//!
//! ## What the numbers mean
//!
//! * `distributed_ns` — raw wall clock of one warm flip-solve of the
//!   nanowire (distributed-wire) array. A solve always runs on one
//!   thread; no gate applies.
//! * `batch_serial_ns` / `batch_pooled_ns` — wall clock of the batch of
//!   independent solves at 1 and `pool_workers = min(4, host_cores)`
//!   workers, so the pooled number never measures oversubscription.
//! * `batch_solves_exposed_concurrency` — concurrency exposed by
//!   `cim_crossbar::solve_batch` over that batch: measured total busy
//!   time divided by the measured critical path (the largest per-worker
//!   share under the batch driver's round-robin banding at 4 workers,
//!   whatever the host). It is the speedup the batch would realise if
//!   every worker held a core, not a measured speedup, so it is
//!   comparable across hosts.

use std::time::Instant;

use cim_bench::{repo_root_file, Args, Snapshot};
use cim_crossbar::{solve_batch, BiasScheme, Crossbar, Geometry, ResistiveCell};
use cim_device::DeviceParams;

const SCHEMA: &str = "cim-bench-solver/6";
const N: usize = 64;

/// Workers whose banding defines the exposed-concurrency critical path,
/// and the cap on the wall-clock pool size.
const BANDED_WORKERS: usize = 4;

/// Arrays in the batch-of-solves measurement (two rounds per worker at
/// four workers).
const BATCH_ARRAYS: usize = 8;

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

fn array() -> Crossbar<ResistiveCell> {
    let p = DeviceParams::table1_cim();
    let mut a = Crossbar::homogeneous(N, N, || ResistiveCell::new(p.clone()));
    a.fill(|r, c| (r + c) % 2 == 0);
    a
}

fn main() {
    let args = Args::capture_strict(&["--check"], &[]);
    let samples = 200;
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let pool_workers = BANDED_WORKERS.min(host_cores);
    let p = DeviceParams::table1_cim();
    let v = p.v_set * 0.5;

    // Cold: the warm start dropped before every solve, as a solve of a
    // different access has it.
    let mut cold_arr = array();
    let cold = median_ns(samples, || {
        cold_arr.invalidate_warm_start();
        std::hint::black_box(cold_arr.solve_access(0, N - 1, v, BiasScheme::HalfV));
    });

    // Warm-started solves of the same access, and the realistic
    // logic-program cadence where one cell flips between accesses.
    let mut warm_arr = array();
    let _ = warm_arr.solve_access(0, N - 1, v, BiasScheme::HalfV);
    let warm_same = median_ns(samples, || {
        std::hint::black_box(warm_arr.solve_access(0, N - 1, v, BiasScheme::HalfV));
    });

    let mut flip_arr = array();
    let _ = flip_arr.solve_access(0, N - 1, v, BiasScheme::HalfV);
    let mut bit = false;
    let warm_flip = median_ns(samples, || {
        flip_arr.program(N / 2, N / 2, bit);
        bit = !bit;
        std::hint::black_box(flip_arr.solve_access(0, N - 1, v, BiasScheme::HalfV));
    });

    // Distributed line relaxation after a cell flip.
    let dist_samples = samples.div_ceil(10).max(5);
    let mut dist_arr = array().with_geometry(Geometry::nanowire(p.cell_area));
    let _ = dist_arr.solve_access(0, N - 1, v, BiasScheme::HalfV);
    let mut bit = false;
    let dist = median_ns(dist_samples, || {
        dist_arr.program(N / 2, N / 2, bit);
        bit = !bit;
        std::hint::black_box(dist_arr.solve_access(0, N - 1, v, BiasScheme::HalfV));
    });

    // Batch-of-solves: BATCH_ARRAYS independent warm flip-solves driven
    // through `solve_batch`. Busy time is measured per solve inside the
    // batch; the critical path is the largest per-worker share under the
    // driver's round-robin banding at `BANDED_WORKERS`.
    let batch_arrays = || -> Vec<Crossbar<ResistiveCell>> {
        (0..BATCH_ARRAYS)
            .map(|k| {
                let mut a = array();
                a.program(k % N, k % N, true);
                let _ = a.solve_access(0, N - 1, v, BiasScheme::HalfV);
                a
            })
            .collect()
    };
    let batch_wall = |threads: usize| {
        let mut arrays = batch_arrays();
        let mut bit = false;
        median_ns(dist_samples, || {
            bit = !bit;
            let results = solve_batch(threads, &mut arrays, |idx, a| {
                a.program((idx + N / 2) % N, N / 2, bit);
                a.solve_access(0, N - 1, v, BiasScheme::HalfV)
            });
            std::hint::black_box(results);
        })
    };
    let batch_serial = batch_wall(1);
    let batch_pooled = batch_wall(pool_workers);
    // Per-solve busy times, measured one solve at a time (no contention).
    let busy_ns: Vec<f64> = {
        let mut arrays = batch_arrays();
        let mut bit = false;
        (0..BATCH_ARRAYS)
            .map(|idx| {
                let a = &mut arrays[idx];
                bit = !bit;
                let mut flip = bit;
                median_ns(dist_samples, || {
                    a.program((idx + N / 2) % N, N / 2, flip);
                    flip = !flip;
                    std::hint::black_box(a.solve_access(0, N - 1, v, BiasScheme::HalfV));
                })
            })
            .collect()
    };
    let batch_busy: f64 = busy_ns.iter().sum();
    let batch_critical = (0..BANDED_WORKERS)
        .map(|w| busy_ns.iter().skip(w).step_by(BANDED_WORKERS).sum::<f64>())
        .fold(0.0f64, f64::max);
    let batch_exposed = batch_busy / batch_critical.max(1.0);

    // Full read, now a single solve for non-destructive junctions.
    let mut read_arr = array();
    let read_ns = median_ns(samples, || {
        std::hint::black_box(read_arr.read(0, N - 1, BiasScheme::HalfV));
    });

    let warm_same_speedup = cold / warm_same;
    let warm_flip_speedup = cold / warm_flip;

    println!(
        "== solver snapshot ({N}x{N}, {samples} samples, median ns, {host_cores} cores, \
         batch pooled at {pool_workers}) =="
    );
    println!("cold                    {cold:>12.0}");
    println!("warm, same access       {warm_same:>12.0}   ({warm_same_speedup:.1}x)");
    println!("warm, after cell flip   {warm_flip:>12.0}   ({warm_flip_speedup:.1}x)");
    println!("distributed, nanowire   {dist:>12.0}");
    println!("batch x{BATCH_ARRAYS} serial        {batch_serial:>12.0}");
    println!("batch x{BATCH_ARRAYS} pooled        {batch_pooled:>12.0}");
    println!("batch busy / critical   {batch_busy:>12.0} / {batch_critical:.0}   ({batch_exposed:.1}x exposed)");
    println!("full read               {read_ns:>12.0}");

    // The warm path is checked in sweeps, not wall clock: a warm repeat
    // starts from the converged answer of the same access, so it must stop
    // in fewer sweeps than the cold solve.
    cold_arr.invalidate_warm_start();
    let cold_sweeps = cold_arr
        .solve_access(0, N - 1, v, BiasScheme::HalfV)
        .iterations;
    let warm_sweeps = cold_arr
        .solve_access(0, N - 1, v, BiasScheme::HalfV)
        .iterations;
    println!("sweeps, cold / warm     {cold_sweeps:>12} / {warm_sweeps}");
    if warm_sweeps >= cold_sweeps {
        eprintln!(
            "[fail] the warm repeat took {warm_sweeps} sweeps, not fewer than the cold \
             solve's {cold_sweeps}: the warm start is not reused"
        );
        std::process::exit(1);
    }
    if batch_exposed <= 2.0 {
        eprintln!(
            "[fail] batch_solves_exposed_concurrency {batch_exposed:.2} is at or below the \
             2.0 gate: the batch driver must expose more than 2x concurrency over \
             {BATCH_ARRAYS} solves at {BANDED_WORKERS} workers"
        );
        std::process::exit(1);
    }

    let mut snap = Snapshot::default();
    snap.modelled("schema", SCHEMA)
        .modelled("array", N)
        .modelled("samples", samples)
        .host("host_cores", host_cores)
        .host("pool_workers", pool_workers)
        .host("cold_solve_ns", cold)
        .host("warm_same_ns", warm_same)
        .host("warm_after_flip_ns", warm_flip)
        .host("warm_same_speedup", warm_same_speedup)
        .host("warm_after_flip_speedup", warm_flip_speedup)
        .host("distributed_ns", dist)
        .modelled("batch_arrays", BATCH_ARRAYS)
        .host("batch_serial_ns", batch_serial)
        .host("batch_pooled_ns", batch_pooled)
        .host("batch_total_busy_ns", batch_busy)
        .host("batch_critical_path_ns", batch_critical)
        .host("batch_solves_exposed_concurrency", batch_exposed)
        .host("read_ns", read_ns);
    snap.finish(&repo_root_file("BENCH_solver.json"), &args);
}
