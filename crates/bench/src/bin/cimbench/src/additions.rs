//! `additions`: the paper's 10⁶ 32-bit additions on both machines, then
//! split across them.
//!
//! Stresses the bit-sliced adder kernel, per-op ledger charging and
//! split concurrency; runs no index, no cache and no serve layer.

use cim_dispatch::{HybridExecutor, SplitOutcome};
use cim_logic::{BitSliceEngine, ImplyAdder};
use cim_sim::{BatchPolicy, CimExecutor, ConventionalExecutor, ExecutionBackend, RunOutcome};
use cim_units::DispatchObjective;
use cim_workloads::{AdditionWorkload, Shardable};

use crate::metrics::{median, Metric};
use crate::runner::Workload;
use crate::trace::{Tracer, View};

/// Capacity both split machines are sized at.
const CAPACITY: u64 = 1 << 16;

/// The addition workload on each executor and split across both.
pub struct Additions {
    workload: AdditionWorkload,
    batch: BatchPolicy,
    /// Frozen makespan dispatcher over serial executors: the CIM shard
    /// runs on the caller, the host shard on one more thread.
    split: HybridExecutor<CimExecutor, ConventionalExecutor>,
    checksum: u64,
}

/// Every outcome of one pass.
#[derive(Debug, PartialEq)]
pub struct Output {
    cim: RunOutcome,
    conv: RunOutcome,
    split: SplitOutcome,
}

impl Workload for Additions {
    const NAME: &'static str = "additions";
    const CANARY: (f64, f64) = (6.028_454_864_223_78e-5, 1.248_800_000_000_000_2e-7);
    type Input = ();
    type Output = Output;

    fn build(seed: u64, threads: usize) -> Self {
        let workload = AdditionWorkload::paper(seed);
        Self {
            workload,
            batch: BatchPolicy::with_threads(threads),
            split: HybridExecutor::frozen(
                CimExecutor::with_batch(BatchPolicy::SERIAL),
                ConventionalExecutor::with_batch(BatchPolicy::SERIAL),
                DispatchObjective::Makespan,
            ),
            checksum: workload.checksum(),
        }
    }

    fn input(&self) {}

    fn pass(&self, (): (), tracer: &mut Tracer) -> Result<Output, String> {
        let cim = tracer.time("sim.cim_run", || {
            CimExecutor::with_batch(self.batch).run(&self.workload)
        });
        let conv = tracer.time("sim.conv_run", || {
            ConventionalExecutor::with_batch(self.batch).run(&self.workload)
        });
        let split = tracer.time("dispatch.split", || {
            self.split.dispatch_split(&self.workload, CAPACITY)
        });
        let err = |e: cim_sim::SimError| e.to_string();
        Ok(Output {
            cim: cim.map_err(err)?,
            conv: conv.map_err(err)?,
            split: split.map_err(err)?,
        })
    }

    fn check(&self, output: &Output) -> Result<(), String> {
        let expected = Some(self.checksum);
        for (machine, checksum, ops) in [
            (
                "cim",
                output.cim.digest.checksum,
                output.cim.digest.operations,
            ),
            (
                "conventional",
                output.conv.digest.checksum,
                output.conv.digest.operations,
            ),
            ("split", output.split.checksum(), output.split.operations()),
        ] {
            if checksum != expected || ops != self.workload.n_ops {
                return Err(format!(
                    "{machine}: checksum {checksum:?} over {ops} additions, expected {expected:?} over {}",
                    self.workload.n_ops
                ));
            }
        }
        if output.split.cim.is_none() || output.split.host.is_none() {
            return Err("the split left one machine idle".into());
        }
        Ok(())
    }

    fn ops(output: &Output) -> u64 {
        output.cim.digest.operations + output.conv.digest.operations + output.split.operations()
    }

    fn modelled(output: &Output) -> (f64, f64) {
        let (cim, conv) = (&output.cim.ledger, &output.conv.ledger);
        (
            cim.total_energy().get() + conv.total_energy().get() + output.split.energy().get(),
            cim.total_time().get() + conv.total_time().get() + output.split.makespan().get(),
        )
    }

    fn input_checksum(&self) -> u64 {
        self.checksum
    }

    fn replay(&self, output: &Output, tracer: &mut Tracer) -> Result<(), String> {
        const CIM: &str = "sim.cim_run";
        const SPLIT: &str = "dispatch.split";
        let operands: Vec<(u64, u64)> = tracer.replay("workloads.operands", CIM, || {
            self.workload.operands().collect()
        });
        // The sums buffer is written before the span so that it times
        // the kernel calls only, with no page faults.
        let mut sums = vec![u64::MAX; operands.len()];
        tracer.replay("logic.adder", CIM, || {
            let adder = ImplyAdder::new(self.workload.bits);
            let mut engine = BitSliceEngine::new();
            for (group, out) in operands.chunks(64).zip(sums.chunks_mut(64)) {
                adder.add_sliced(&mut engine, group, out);
            }
        });
        // The checksum keeps each (width + 1)-bit sum.
        let mask = (1u64 << (self.workload.bits + 1)) - 1;
        let sum = sums
            .iter()
            .fold(0, |acc: u64, &s| acc.wrapping_add(s & mask));
        let checksum = tracer.replay("workloads.checksum", "sim.conv_run", || {
            self.workload.checksum()
        });
        if sum != self.checksum || checksum != self.checksum {
            return Err(format!(
                "replayed adder {sum:#x} / checksum {checksum:#x}, expected {:#x}",
                self.checksum
            ));
        }

        let plan = tracer.replay("dispatch.split_plan", SPLIT, || {
            self.split.split_plan(&self.workload, CAPACITY)
        });
        if plan != output.split.plan {
            return Err("replayed split plan differs from the pass's".into());
        }
        let cim_shard = self.workload.shard(0, plan.cim_units(), CAPACITY);
        let host_shard = self
            .workload
            .shard(plan.cim_units(), plan.host_units(), CAPACITY);
        // In the pass the two shards ran at once, the host shard on a
        // second thread: replayed solo, they sit on separate lanes.
        let cim = tracer.replay_on(0, "dispatch.cim_shard", SPLIT, || {
            self.split.cim.run(&cim_shard)
        });
        let host = tracer.replay_on(1, "dispatch.host_shard", SPLIT, || {
            self.split.host.run(&host_shard)
        });
        if cim.ok().as_ref() != output.split.cim.as_ref()
            || host.ok().as_ref() != output.split.host.as_ref()
        {
            return Err("a shard run solo differs from the split's".into());
        }
        Ok(())
    }

    fn layer_metrics(view: &View, reference: &Output) -> Vec<Metric> {
        let adds = reference.cim.digest.operations as f64;
        let split = view.median_ms("dispatch.split");
        let cim_shard = view.median_ms("dispatch.cim_shard");
        let host_shard = view.median_ms("dispatch.host_shard");
        vec![
            Metric::new(
                "workloads.operands_ms",
                view.median_ms("workloads.operands"),
                "ms",
            ),
            Metric::new(
                "workloads.checksum_ms",
                view.median_ms("workloads.checksum"),
                "ms",
            ),
            Metric::new(
                "logic.adder_ns_per_op",
                median(&view.durations_ns("logic.adder")) / adds,
                "ns",
            ),
            Metric::new(
                "dispatch.split_plan_us",
                view.median_ms("dispatch.split_plan") * 1e3,
                "us",
            ),
            Metric::new("dispatch.split_ms", split, "ms"),
            Metric::new("dispatch.cim_shard_ms", cim_shard, "ms"),
            Metric::new("dispatch.host_shard_ms", host_shard, "ms"),
            Metric::new(
                "dispatch.split_exposed_concurrency",
                (cim_shard + host_shard) / split,
                "ratio",
            ),
        ]
    }

    fn logic_ops(reference: &Output) -> u64 {
        reference.cim.digest.operations
    }
}
