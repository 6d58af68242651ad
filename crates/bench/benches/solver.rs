//! Crossbar solver benchmarks: lumped vs distributed, size scaling,
//! junction types (ablation A2 companion), and the warm-vs-cold /
//! parallel line-relaxation measurements behind `BENCH_solver.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cim_crossbar::{
    solve_batch, BiasScheme, Cell, Crossbar, CrsCell, Geometry, ResistiveCell, SelectorCell,
};
use cim_device::DeviceParams;

fn array(n: usize) -> Crossbar<ResistiveCell> {
    let p = DeviceParams::table1_cim();
    let mut a = Crossbar::homogeneous(n, n, || ResistiveCell::new(p.clone()));
    a.fill(|r, c| (r + c) % 2 == 0);
    a
}

fn bench_lumped_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/lumped_read");
    for n in [8usize, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut a = array(n);
            let v = a.cell(0, 0).params().v_set * 0.5;
            b.iter(|| black_box(a.solve_access(0, n - 1, v, BiasScheme::HalfV)));
        });
    }
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/distributed_read");
    for n in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let p = DeviceParams::table1_cim();
            let mut a = array(n).with_geometry(Geometry::nanowire(p.cell_area));
            let v = p.v_set * 0.5;
            b.iter(|| black_box(a.solve_access(0, n - 1, v, BiasScheme::HalfV)));
        });
    }
    group.finish();
}

/// Cold (warm start dropped before every solve) vs warm-started solves
/// of the same 64×64 access. `warm_after_flip` reprograms one cell
/// between solves — the realistic logic-program cadence.
fn bench_warm_vs_cold_64(c: &mut Criterion) {
    let n = 64;
    let mut group = c.benchmark_group("solver/warm_vs_cold_64");
    group.bench_function("cold", |b| {
        let mut a = array(n);
        let v = a.cell(0, 0).params().v_set * 0.5;
        b.iter(|| {
            a.invalidate_warm_start();
            black_box(a.solve_access(0, n - 1, v, BiasScheme::HalfV))
        });
    });
    group.bench_function("warm_same", |b| {
        let mut a = array(n);
        let v = a.cell(0, 0).params().v_set * 0.5;
        let _ = a.solve_access(0, n - 1, v, BiasScheme::HalfV);
        b.iter(|| black_box(a.solve_access(0, n - 1, v, BiasScheme::HalfV)));
    });
    group.bench_function("warm_after_flip", |b| {
        let mut a = array(n);
        let v = a.cell(0, 0).params().v_set * 0.5;
        let _ = a.solve_access(0, n - 1, v, BiasScheme::HalfV);
        let mut bit = false;
        b.iter(|| {
            a.program(n / 2, n / 2, bit);
            bit = !bit;
            black_box(a.solve_access(0, n - 1, v, BiasScheme::HalfV))
        });
    });
    group.finish();
}

/// Deterministic parallel line relaxation on a wire-resistive 64×64
/// array: serial vs 4 workers (bit-identical results by contract).
fn bench_parallel_distributed_64(c: &mut Criterion) {
    let n = 64;
    let p = DeviceParams::table1_cim();
    let mut group = c.benchmark_group("solver/distributed_threads_64");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let mut a = array(n)
                    .with_geometry(Geometry::nanowire(p.cell_area))
                    .with_solver_threads(threads);
                let v = p.v_set * 0.5;
                let _ = a.solve_access(0, n - 1, v, BiasScheme::HalfV);
                let mut bit = false;
                b.iter(|| {
                    a.program(n / 2, n / 2, bit);
                    bit = !bit;
                    black_box(a.solve_access(0, n - 1, v, BiasScheme::HalfV))
                });
            },
        );
    }
    group.finish();
}

fn bench_batch_of_solves(c: &mut Criterion) {
    // Batch-of-solves concurrency: 8 independent warm 64x64 arrays
    // flip-solved through `solve_batch`, serial vs pooled dispatch.
    let n = 64;
    let p = DeviceParams::table1_cim();
    let v = p.v_set * 0.5;
    let mut group = c.benchmark_group("solver/batch_of_solves_8x64");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let mut arrays: Vec<_> = (0..8)
                    .map(|k| {
                        let mut a = array(n);
                        a.program(k % n, k % n, true);
                        let _ = a.solve_access(0, n - 1, v, BiasScheme::HalfV);
                        a
                    })
                    .collect();
                let mut bit = false;
                b.iter(|| {
                    bit = !bit;
                    black_box(solve_batch(threads, &mut arrays, |idx, a| {
                        a.program((idx + n / 2) % n, n / 2, bit);
                        a.solve_access(0, n - 1, v, BiasScheme::HalfV)
                    }))
                });
            },
        );
    }
    group.finish();
}

fn bench_junctions(c: &mut Criterion) {
    let p = DeviceParams::table1_cim();
    let n = 16;
    let mut group = c.benchmark_group("solver/junction_read_16x16");
    group.bench_function("1R", |b| {
        let mut a = Crossbar::homogeneous(n, n, || ResistiveCell::new(p.clone()));
        a.fill(|_, _| true);
        b.iter(|| black_box(a.solve_access(0, n - 1, p.v_set * 0.5, BiasScheme::HalfV)));
    });
    group.bench_function("1S1R", |b| {
        let mut a =
            Crossbar::homogeneous(n, n, || SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5));
        a.fill(|_, _| true);
        b.iter(|| black_box(a.solve_access(0, n - 1, p.v_set * 0.5, BiasScheme::HalfV)));
    });
    group.bench_function("CRS", |b| {
        let mut a = Crossbar::homogeneous(n, n, || CrsCell::new(p.clone()));
        a.fill(|_, _| true);
        b.iter(|| black_box(a.solve_access(0, n - 1, p.write_voltage * 0.95, BiasScheme::ThirdV)));
    });
    group.finish();
}

fn bench_cam_search(c: &mut Criterion) {
    use cim_crossbar::Cam;
    let mut group = c.benchmark_group("cam/search");
    group.sample_size(20);
    for words in [256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(words), &words, |b, &words| {
            let p = DeviceParams::table1_cim();
            let mut cam = Cam::new(words, 32, p);
            for w in 0..words {
                cam.store(w, (w as u64).wrapping_mul(2_654_435_761) & 0xFFFF_FFFF);
            }
            b.iter(|| black_box(cam.search(12345)));
        });
    }
    group.finish();
}

fn bench_multistage_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_style_16x16");
    group.bench_function("plain", |b| {
        let mut a = array(16);
        b.iter(|| black_box(a.read(0, 15, BiasScheme::HalfV)));
    });
    group.bench_function("multistage", |b| {
        let mut a = array(16);
        b.iter(|| black_box(a.read_multistage(0, 15, BiasScheme::HalfV)));
    });
    group.finish();
}

/// Read styles at the Fig. 3 margin-collapse size, where the two-phase
/// multistage read earns its keep.
fn bench_multistage_read_64(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_style_64x64");
    group.sample_size(10);
    group.bench_function("plain", |b| {
        let mut a = array(64);
        b.iter(|| black_box(a.read(0, 63, BiasScheme::HalfV)));
    });
    group.bench_function("multistage", |b| {
        let mut a = array(64);
        b.iter(|| black_box(a.read_multistage(0, 63, BiasScheme::HalfV)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lumped_sizes,
    bench_distributed,
    bench_warm_vs_cold_64,
    bench_parallel_distributed_64,
    bench_batch_of_solves,
    bench_junctions,
    bench_cam_search,
    bench_multistage_read,
    bench_multistage_read_64
);
criterion_main!(benches);
