//! Stateful-logic benchmarks: IMPLY steps, gates, adders, comparator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cim_device::DeviceParams;
use cim_logic::{
    BitSliceEngine, Comparator, CrsImp, ImplyAdder, ImplyEngine, ProgramBuilder, Step, LANES, WORDS,
};

fn bench_imply_step(c: &mut Criterion) {
    let device = DeviceParams::table1_cim();
    let params = cim_logic::ImplyParams::for_device(&device);
    c.bench_function("imply/single_step", |b| {
        let mut engine = ImplyEngine::new(2, device.clone(), params.clone());
        b.iter(|| {
            engine.write(0, true);
            engine.write(1, false);
            engine.exec_step(black_box(Step::Imply(0, 1)));
            black_box(engine.read(1))
        });
    });
    c.bench_function("imply/crs_single_gate", |b| {
        b.iter(|| {
            let mut gate = CrsImp::new(&device);
            black_box(gate.imp(black_box(true), black_box(false)))
        });
    });
}

fn bench_comparator(c: &mut Criterion) {
    let cmp = Comparator::new();
    c.bench_function("comparator/electrical_match", |b| {
        let mut engine = ImplyEngine::for_program(cmp.eq_program());
        b.iter(|| black_box(cmp.matches(&mut engine, black_box(2), black_box(3))));
    });
    c.bench_function("comparator/boolean_reference", |b| {
        let program = cmp.eq_program();
        b.iter(|| black_box(program.evaluate(&[true, false, true, true])));
    });
    c.bench_function("comparator/bitsliced_64lanes", |b| {
        let mut engine = BitSliceEngine::new();
        b.iter(|| {
            black_box(cmp.matches_sliced(
                &mut engine,
                black_box(0xAAAA_5555_AAAA_5555),
                black_box(0x0F0F_0F0F_0F0F_0F0F),
                black_box(0x3333_CCCC_3333_CCCC),
                black_box(0x00FF_00FF_00FF_00FF),
            ))
        });
    });
}

fn bench_adders(c: &mut Criterion) {
    let mut group = c.benchmark_group("adder/electrical");
    for bits in [4u32, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let adder = ImplyAdder::new(bits);
            let mut engine = ImplyEngine::for_program(adder.program());
            let mask = (1u64 << bits) - 1;
            b.iter(|| black_box(adder.add(&mut engine, 0xA5A5 & mask, 0x5A5A & mask)));
        });
    }
    group.finish();

    c.bench_function("adder/boolean_reference_32bit", |b| {
        let adder = ImplyAdder::new(32);
        b.iter(|| black_box(adder.add_reference(black_box(0xDEAD_BEEF), black_box(0x1234_5678))));
    });

    // One word per gate visit, then the executors' full 512-lane pass.
    for (name, pairs) in [
        ("adder/bitsliced_32bit_64pairs", LANES),
        ("adder/bitsliced_32bit_512pairs", LANES * WORDS),
    ] {
        c.bench_function(name, |b| {
            let adder = ImplyAdder::new(32);
            let mut engine = BitSliceEngine::new();
            let pairs: Vec<(u64, u64)> = (0..pairs as u64)
                .map(|k| {
                    (
                        k.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF,
                        k.wrapping_mul(0x85EB_CA6B) & 0xFFFF_FFFF,
                    )
                })
                .collect();
            let mut sums = vec![0u64; pairs.len()];
            b.iter(|| {
                adder.add_sliced(&mut engine, black_box(&pairs), &mut sums);
                black_box(sums[0])
            });
        });
    }
}

fn bench_synthesis(c: &mut Criterion) {
    c.bench_function("synthesis/full_adder_sum", |b| {
        use cim_logic::{synthesize, Expr};
        b.iter(|| {
            let expr = Expr::var(0).xor(Expr::var(1)).xor(Expr::var(2));
            black_box(synthesize(&expr))
        });
    });
    c.bench_function("synthesis/compile_nand_chain", |b| {
        b.iter(|| {
            let mut builder = ProgramBuilder::new();
            let mut reg = builder.input();
            for _ in 0..32 {
                let other = builder.input();
                reg = builder.nand(reg, other);
            }
            black_box(builder.finish(vec![reg]))
        });
    });
}

fn bench_logic_styles(c: &mut Criterion) {
    // Ablation: LUT (1 read, 2^n devices) vs IMPLY (many steps, few
    // devices) for the same 3-input function.
    use cim_logic::{synthesize, Expr, Lut};
    let expr = Expr::var(0).xor(Expr::var(1)).xor(Expr::var(2));
    let mut group = c.benchmark_group("logic_style");
    group.bench_function("lut_eval", |b| {
        let mut lut = Lut::from_expr(&expr, DeviceParams::table1_cim());
        b.iter(|| black_box(lut.eval(&[true, false, true])));
    });
    group.bench_function("imply_electrical", |b| {
        let program = synthesize(&expr);
        let mut engine = ImplyEngine::for_program(&program);
        b.iter(|| black_box(engine.run(&program, &[true, false, true])));
    });
    group.finish();
}

fn bench_simd(c: &mut Criterion) {
    use cim_logic::RowParallelEngine;
    let cmp = Comparator::new();
    let program = cmp.eq_program().clone();
    let mut group = c.benchmark_group("simd_rows");
    group.sample_size(20);
    for rows in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            let inputs: Vec<Vec<bool>> = (0..rows)
                .map(|k| vec![k % 2 == 0, k % 3 == 0, true, false])
                .collect();
            b.iter(|| {
                let mut simd = RowParallelEngine::for_program(&program, rows);
                black_box(simd.run(&program, &inputs))
            });
        });
    }
    for rows in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("bitsliced", rows), &rows, |b, &rows| {
            let inputs: Vec<Vec<bool>> = (0..rows)
                .map(|k| vec![k % 2 == 0, k % 3 == 0, true, false])
                .collect();
            b.iter(|| {
                let mut simd = RowParallelEngine::for_program_bitsliced(&program, rows);
                black_box(simd.run(&program, &inputs))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_imply_step,
    bench_comparator,
    bench_adders,
    bench_synthesis,
    bench_logic_styles,
    bench_simd
);
criterion_main!(benches);
