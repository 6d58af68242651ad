//! Work-partitioned dispatch: one workload split across both machines,
//! executed concurrently.
//!
//! Whole-workload dispatch ([`HybridExecutor::dispatch`]) picks a
//! machine and lets the other idle; when the calibrated scores are
//! close, nearly half the fleet's capacity is wasted. Split dispatch
//! instead partitions the workload's unit stream with a
//! [`SplitPlan`] — greedy makespan balancing over exact per-unit
//! scores — and runs the two shards *concurrently*: the CIM shard on
//! the calling thread, the host shard on a scoped worker. Makespan is
//! the slower shard, energy is the sum.
//!
//! Determinism carries through unchanged: a plan is a pure function of
//! the two certified shard estimates and the calibrator's scales (all
//! dyadic count-space currency), each shard run is bit-identical at
//! any thread count (the `cim-sim` batch contract), and the combined
//! ledger, [`SplitOutcome::ledger`], is not stored but merged from the
//! two shard ledgers on demand, CIM first. The conservation contract
//! for a split is therefore: shard unit counts partition the workload's
//! units and shard checksums wrapping-sum to the whole workload's
//! checksum (`cim_verify::certify_split` audits the claim side of
//! this).

use cim_sim::{ExecutionBackend, RunOutcome, SimError};
use cim_units::{CostLedger, Energy, SplitPlan, Time, UnitScore};
use cim_workloads::Shardable;
use serde::{Deserialize, Serialize};

use crate::hybrid::HybridExecutor;

/// Everything one split run produced: the plan and the per-machine
/// shard outcomes (absent for a side the plan left empty). The shard
/// ledgers are the split's only cost record; [`ledger`](Self::ledger)
/// merges them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitOutcome {
    /// The partition the run executed.
    pub plan: SplitPlan,
    /// The CIM shard's outcome; `None` when the plan sent nothing
    /// there.
    pub cim: Option<RunOutcome>,
    /// The host shard's outcome; `None` when the plan sent nothing
    /// there.
    pub host: Option<RunOutcome>,
}

impl SplitOutcome {
    /// The split workload's ledger: `merge(cim.ledger, host.ledger)` in
    /// that fixed order — energy sums, and per-cell counts partition the
    /// workload's op counts across the two machines' (disjoint)
    /// component cells.
    pub fn ledger(&self) -> CostLedger {
        let mut ledger = CostLedger::new();
        for outcome in [&self.cim, &self.host].into_iter().flatten() {
            ledger.merge(&outcome.ledger);
        }
        ledger
    }

    /// The split's makespan: the slower shard's modelled time (the two
    /// machines run concurrently and the dispatcher waits for both).
    pub fn makespan(&self) -> Time {
        let side = |outcome: &Option<RunOutcome>| {
            outcome
                .as_ref()
                .map_or(Time::ZERO, |o| o.ledger.total_time())
        };
        let cim = side(&self.cim);
        let host = side(&self.host);
        if cim >= host {
            cim
        } else {
            host
        }
    }

    /// The split's energy: both shards' ledgers summed.
    pub fn energy(&self) -> Energy {
        self.ledger().total_energy()
    }

    /// Operations executed across both shards.
    pub fn operations(&self) -> u64 {
        let side =
            |outcome: &Option<RunOutcome>| outcome.as_ref().map_or(0, |o| o.digest.operations);
        side(&self.cim) + side(&self.host)
    }

    /// The wrapping sum of the shard checksums — equals the whole
    /// workload's checksum when the plan partitions its units (`None`
    /// if any executed shard produced no checksum).
    pub fn checksum(&self) -> Option<u64> {
        let mut sum = 0u64;
        for outcome in [&self.cim, &self.host].into_iter().flatten() {
            sum = sum.wrapping_add(outcome.digest.checksum?);
        }
        Some(sum)
    }

    /// Scores the split under `objective` with concurrent-execution
    /// semantics: total energy against the max-side makespan.
    pub fn score(&self, objective: cim_units::DispatchObjective) -> f64 {
        objective.score(self.energy(), self.makespan())
    }
}

impl<C, H> HybridExecutor<C, H> {
    /// Plans a split of `workload` across the two machines, both sized
    /// at `capacity` units: certifies the full-range shard on each
    /// machine, reduces the calibrated scores to exact per-unit
    /// [`UnitScore`]s, and greedily balances the makespan
    /// ([`SplitPlan::balance`], ties → CIM).
    ///
    /// The probe shard carries `capacity` as its machine size, so the
    /// scores price the *fixed-capacity* machines the split will
    /// actually run on — not machines elastically grown to the
    /// workload.
    pub fn split_plan<W>(&self, workload: &W, capacity: u64) -> SplitPlan
    where
        W: Shardable,
        C: ExecutionBackend<W::Shard>,
        H: ExecutionBackend<W::Shard>,
    {
        let units = workload.units();
        let probe = workload.shard(0, units, capacity);
        let cim_total = self
            .cim
            .estimate(&probe)
            .calibrated_score(self.objective(), self.calibrator().cim_scales());
        let host_total = self
            .host
            .estimate(&probe)
            .calibrated_score(self.objective(), self.calibrator().host_scales());
        SplitPlan::balance(
            units,
            UnitScore::per_unit(cim_total, units),
            UnitScore::per_unit(host_total, units),
        )
    }

    /// Executes `plan` over `workload`: the CIM shard (the unit prefix
    /// `0..cim_units`) runs on the calling thread while the host shard
    /// (the suffix) runs on a scoped worker — genuinely concurrent, and
    /// each shard's outcome lands in its own fixed slot, so the outcome
    /// is independent of which side finishes first. A side
    /// the plan left empty is skipped entirely.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure (CIM side reported first).
    ///
    /// # Panics
    ///
    /// Panics if the host shard's worker thread panics.
    pub fn run_split<W>(
        &self,
        workload: &W,
        capacity: u64,
        plan: &SplitPlan,
    ) -> Result<SplitOutcome, SimError>
    where
        W: Shardable,
        W::Shard: Sync,
        C: ExecutionBackend<W::Shard>,
        H: ExecutionBackend<W::Shard> + Sync,
    {
        let cim_shard =
            (plan.cim_units() > 0).then(|| workload.shard(0, plan.cim_units(), capacity));
        let host_shard = (plan.host_units() > 0)
            .then(|| workload.shard(plan.cim_units(), plan.host_units(), capacity));
        let host_backend = &self.host;
        let (cim_result, host_result) = std::thread::scope(|scope| {
            let host_handle = host_shard
                .as_ref()
                .map(|shard| scope.spawn(move || host_backend.run(shard)));
            let cim_result = cim_shard.as_ref().map(|shard| self.cim.run(shard));
            let host_result =
                host_handle.map(|handle| handle.join().expect("host shard worker panicked"));
            (cim_result, host_result)
        });
        Ok(SplitOutcome {
            plan: *plan,
            cim: cim_result.transpose()?,
            host: host_result.transpose()?,
        })
    }

    /// Plans and executes a split in one step:
    /// [`split_plan`](Self::split_plan) then
    /// [`run_split`](Self::run_split).
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure (CIM side reported first).
    pub fn dispatch_split<W>(&self, workload: &W, capacity: u64) -> Result<SplitOutcome, SimError>
    where
        W: Shardable,
        W::Shard: Sync,
        C: ExecutionBackend<W::Shard>,
        H: ExecutionBackend<W::Shard> + Sync,
    {
        let plan = self.split_plan(workload, capacity);
        self.run_split(workload, capacity, &plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::{BatchPolicy, CimExecutor, ConventionalExecutor};
    use cim_units::DispatchObjective;
    use cim_workloads::AdditionWorkload;

    fn hybrid(
        threads: usize,
        objective: DispatchObjective,
    ) -> HybridExecutor<CimExecutor, ConventionalExecutor> {
        let policy = BatchPolicy::with_threads(threads);
        HybridExecutor::frozen(
            CimExecutor::with_batch(policy),
            ConventionalExecutor::with_batch(policy),
            objective,
        )
    }

    #[test]
    fn split_uses_both_machines_under_makespan() {
        let w = AdditionWorkload::scaled(1 << 14, 7);
        let capacity = 1 << 9;
        let executor = hybrid(2, DispatchObjective::Makespan);
        let plan = executor.split_plan(&w, capacity);
        assert!(!plan.is_all_cim() && !plan.is_all_host(), "{plan:?}");
        let outcome = executor.run_split(&w, capacity, &plan).expect("split runs");
        assert_eq!(outcome.operations(), w.n_ops);
        assert_eq!(outcome.checksum(), Some(w.checksum()));
        assert!(outcome.makespan() > Time::ZERO);
        assert!(outcome.energy() > Energy::ZERO);
        // Both shards really executed on their own machine.
        assert_eq!(outcome.cim.as_ref().unwrap().machine, "cim");
        assert_eq!(outcome.host.as_ref().unwrap().machine, "conventional");
    }

    #[test]
    fn split_beats_both_whole_runs_at_fixed_capacity() {
        // On fixed-capacity machines the split's makespan must beat
        // running the whole workload on either machine alone — the
        // reason split dispatch exists.
        let w = AdditionWorkload::scaled(1 << 14, 7);
        let capacity = 1 << 9;
        let executor = hybrid(2, DispatchObjective::Makespan);
        let outcome = executor.dispatch_split(&w, capacity).expect("split runs");
        use cim_workloads::Shardable;
        let whole = w.shard(0, w.units(), capacity);
        let cim_whole = ExecutionBackend::run(&executor.cim, &whole).expect("cim whole");
        let host_whole = ExecutionBackend::run(&executor.host, &whole).expect("host whole");
        let best_whole = cim_whole
            .ledger
            .total_time()
            .get()
            .min(host_whole.ledger.total_time().get());
        assert!(
            outcome.makespan().get() < best_whole,
            "split {} !< best whole {}",
            outcome.makespan().get(),
            best_whole
        );
    }

    #[test]
    fn one_sided_plans_match_the_solo_shard_run() {
        let w = AdditionWorkload::scaled(1 << 12, 9);
        let capacity = w.n_ops;
        let executor = hybrid(1, DispatchObjective::Energy);
        use cim_workloads::Shardable;
        let full = w.shard(0, w.units(), capacity);
        let score = UnitScore::new(1.0);

        let all_cim = SplitPlan::all_cim(w.n_ops, score, score);
        let outcome = executor.run_split(&w, capacity, &all_cim).expect("runs");
        assert!(outcome.host.is_none());
        let solo = ExecutionBackend::run(&executor.cim, &full).expect("solo cim");
        assert_eq!(outcome.cim.as_ref(), Some(&solo));
        assert_eq!(outcome.ledger(), solo.ledger);

        let all_host = SplitPlan::all_host(w.n_ops, score, score);
        let outcome = executor.run_split(&w, capacity, &all_host).expect("runs");
        assert!(outcome.cim.is_none());
        let solo = ExecutionBackend::run(&executor.host, &full).expect("solo host");
        assert_eq!(outcome.host.as_ref(), Some(&solo));
        assert_eq!(outcome.ledger(), solo.ledger);
    }

    #[test]
    fn split_outcomes_are_bit_identical_across_thread_counts() {
        let w = AdditionWorkload::scaled(1 << 13, 11);
        let capacity = 1 << 9;
        let reference = hybrid(1, DispatchObjective::Makespan);
        let reference_plan = reference.split_plan(&w, capacity);
        let reference_outcome = reference
            .run_split(&w, capacity, &reference_plan)
            .expect("reference split");
        for threads in [2usize, 4] {
            let executor = hybrid(threads, DispatchObjective::Makespan);
            let plan = executor.split_plan(&w, capacity);
            assert_eq!(plan, reference_plan, "plan drifted at {threads} threads");
            let outcome = executor.run_split(&w, capacity, &plan).expect("split");
            assert_eq!(
                outcome, reference_outcome,
                "split outcome drifted at {threads} threads"
            );
        }
    }

    #[test]
    fn combined_ledger_is_the_merge_of_the_shards() {
        let w = AdditionWorkload::scaled(1 << 12, 13);
        let capacity = 1 << 8;
        let executor = hybrid(2, DispatchObjective::Makespan);
        let outcome = executor.dispatch_split(&w, capacity).expect("split");
        let mut merged = outcome.cim.as_ref().expect("cim side").ledger.clone();
        merged.merge(&outcome.host.as_ref().expect("host side").ledger);
        assert_eq!(outcome.ledger(), merged);
        // Per-cell op counts partition the workload: the two machines
        // charge disjoint component cells, so the combined count is
        // the sum of two shard counts summing to n per charged cell.
        assert_eq!(outcome.operations(), w.n_ops);
    }
}
