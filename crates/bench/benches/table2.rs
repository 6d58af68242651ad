//! End-to-end experiment benchmarks: the Table-2 pipelines themselves,
//! plus the serial-vs-parallel batch driver comparison (same results,
//! different wall-clock).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cim_core::{AdditionsExperiment, Experiment};
use cim_sim::{BatchPolicy, CimExecutor, ConventionalExecutor, ExecutionBackend};
use cim_workloads::{DnaSpec, DnaWorkload};

fn dna_experiment(ref_len: u64) -> Experiment<DnaWorkload> {
    Experiment::new(DnaWorkload {
        spec: DnaSpec {
            ref_len,
            coverage: 2,
            read_len: 100,
        },
        seed: 1,
    })
}

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.bench_function("additions_experiment_10k", |b| {
        b.iter(|| black_box(AdditionsExperiment::scaled(10_000, 1).run()));
    });
    group.bench_function("dna_experiment_20k", |b| {
        b.iter(|| black_box(dna_experiment(20_000).run()));
    });
    group.bench_function("dna_experiment_200k_serial", |b| {
        let exp = dna_experiment(200_000).with_batch(BatchPolicy::SERIAL);
        b.iter(|| black_box(exp.run()));
    });
    group.bench_function("dna_experiment_200k_parallel", |b| {
        let exp = dna_experiment(200_000).with_batch(BatchPolicy::auto());
        b.iter(|| black_box(exp.run()));
    });
    group.bench_function("projections_only", |b| {
        let conv = ConventionalExecutor::new();
        let cim = CimExecutor::new();
        let dna = DnaWorkload::paper(1);
        b.iter(|| {
            black_box(conv.project(&dna, 0.5));
            black_box(cim.project(&dna, 0.5));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
