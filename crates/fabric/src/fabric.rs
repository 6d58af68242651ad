//! The fabric executor: query batches sharded across a tile grid.
//!
//! [`FabricExecutor`] owns a [`TileGrid`] plus a legal [`Placement`] and
//! executes query batches by sharding them over the executed tiles
//! (deterministic modular sharding on the query id) through the
//! persistent deterministic driver (`cim_sim::par_units` — tiles are the
//! parallelism grain, one worker per claimed tile). Every query runs its
//! real in-array semantics — IMPLY comparator microprograms for
//! lookups/compares, the ripple adder for adds — and is checked against
//! plain host arithmetic; a disagreement is a loud
//! [`SimError::Diverged`].
//!
//! **Determinism and conservation.** Per-tile outcomes are pure
//! functions of the tile's query slice; the fabric merges them in tile
//! order. Counts merge exactly (integer), checksums fold commutatively,
//! and ledgers are dyadic evaluations of counts — so the fabric outcome
//! is bit-identical for any executed tile count and any thread count,
//! and the fabric ledger equals the tile-order sum of per-tile ledgers
//! bit-for-bit (`cim_units::counts` has the proof obligations).

use std::sync::OnceLock;

use cim_arch::{Placement, RunReport, TileCoord, TileGrid};
use cim_logic::{BitSliceEngine, Comparator, ImplyAdder};
use cim_sim::{par_units, BatchPolicy, CostEstimate, ExecutionBackend, RunOutcome, SimError};
use cim_units::{Area, CostLedger, CountLedger, UnitCosts, MAX_EXACT_COUNT};
use cim_workloads::{ExecutionDigest, ProjectionKind, Workload, WorkloadError};
use serde::{Deserialize, Serialize};

use crate::model::unit_costs;
use crate::query::{Query, QueryOperands, TrafficSpec, ADD_BITS, WINDOW};

/// What one tile produced for its shard of a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileOutcome {
    /// The tile.
    pub tile: TileCoord,
    /// Queries this tile executed.
    pub queries: u64,
    /// Primitive invocations this tile executed.
    pub operations: u64,
    /// Order-insensitive checksum over this tile's results.
    pub checksum: u64,
    /// Exact op counts (merge to the fabric counts).
    pub counts: CountLedger,
    /// Priced ledger (`evaluate(counts)`; sums bit-for-bit to the
    /// fabric ledger).
    pub ledger: CostLedger,
}

/// The merged result of one batch across the fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricOutcome {
    /// Per-tile outcomes, in tile order.
    pub tiles: Vec<TileOutcome>,
    /// Functional summary of the batch.
    pub digest: ExecutionDigest,
    /// Exact fabric-wide op counts.
    pub counts: CountLedger,
    /// The fabric ledger: `evaluate(counts)` — bit-equal to the
    /// tile-order merge of the per-tile ledgers.
    pub ledger: CostLedger,
}

impl FabricOutcome {
    /// Modelled makespan of the batch (sum of ledger time shares).
    pub fn makespan(&self) -> cim_units::Time {
        self.ledger.total_time()
    }
}

/// The fabric's equality comparator, compiled on first use and then
/// borrowed by every batch for the rest of the process. It is a pure
/// constant, independent of grid, placement and threading, and
/// [`TileKernel`] only reads it, so sharing it cannot leak state
/// between batches (DESIGN.md §5, "Compile once").
fn comparator() -> &'static Comparator {
    static KERNEL: OnceLock<Comparator> = OnceLock::new();
    KERNEL.get_or_init(Comparator::new)
}

/// The fabric's `ADD_BITS` ripple adder, shared like [`comparator`].
/// It has a kernel of its own because it is about 30 times the
/// comparator's size, and a process whose adds all go to the host (the
/// energy-hybrid serve) never compiles it.
fn adder() -> &'static ImplyAdder {
    static KERNEL: OnceLock<ImplyAdder> = OnceLock::new();
    KERNEL.get_or_init(|| ImplyAdder::new(ADD_BITS))
}

/// One worker's in-array kernel: the shared compiled kernels
/// ([`comparator`], [`adder`]) plus the worker's own bit-slice engine,
/// made once per tile shard or serve chunk and reused for every query
/// in it. A window's symbols pack into lanes in window order, so lane
/// `k` of the match mask is the comparison of symbol `k`.
pub(crate) struct TileKernel {
    engine: BitSliceEngine,
}

impl TileKernel {
    /// A fresh kernel with its own engine.
    pub(crate) fn new() -> Self {
        Self {
            engine: BitSliceEngine::new(),
        }
    }

    /// The in-array result on `operands`: the IMPLY comparator's match
    /// mask for windows, the ripple adder's sum for words.
    pub(crate) fn value(&mut self, operands: &QueryOperands) -> u64 {
        match operands {
            QueryOperands::Windows {
                query: q,
                reference,
            } => {
                let (mut s0, mut s1, mut r0, mut r1) = (0u64, 0u64, 0u64, 0u64);
                for (lane, (&s, &r)) in q.iter().zip(reference).enumerate() {
                    s0 |= u64::from(s & 1) << lane;
                    s1 |= u64::from(s >> 1 & 1) << lane;
                    r0 |= u64::from(r & 1) << lane;
                    r1 |= u64::from(r >> 1 & 1) << lane;
                }
                let mask = (1u64 << WINDOW) - 1;
                comparator().matches_sliced(&mut self.engine, s0, s1, r0, r1) & mask
            }
            &QueryOperands::Words { a, b } => {
                let mut sums = [0u64];
                adder().add_sliced(&mut self.engine, &[(a, b)], &mut sums);
                sums[0]
            }
        }
    }
}

/// Executes query batches across a [`TileGrid`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricExecutor {
    /// The physical grid.
    pub grid: TileGrid,
    /// Which working set lives where (checked legal at construction).
    pub placement: Placement,
    /// Host threading for the tile dispatch. Results are identical at
    /// every thread count; only wall-clock changes.
    pub batch: BatchPolicy,
    prices: UnitCosts,
}

impl FabricExecutor {
    /// Machine label used in errors and reports.
    pub const MACHINE: &'static str = "cim-fabric";

    /// Builds an executor over a grid, rejecting illegal placements
    /// (the static half of the contract `cim-verify` re-checks).
    pub fn new(
        grid: TileGrid,
        placement: Placement,
        batch: BatchPolicy,
    ) -> Result<Self, cim_arch::PlaceError> {
        placement.check(&grid)?;
        let prices = unit_costs(&grid);
        Ok(Self {
            grid,
            placement,
            batch,
            prices,
        })
    }

    /// The paper DNA fabric on a `rows × cols` executed grid with the
    /// uniform placement (reference window + query buffer per tile).
    pub fn paper(rows: u32, cols: u32, batch: BatchPolicy) -> Self {
        let grid = TileGrid::paper_dna(rows, cols);
        let placement = Placement::uniform(&grid, grid.tile_devices / 2, WINDOW as u32);
        Self::new(grid, placement, batch).expect("uniform placement is legal by construction")
    }

    /// The grid's price table (dyadic; see `cim_units::counts`).
    pub fn prices(&self) -> &UnitCosts {
        &self.prices
    }

    /// Builds the per-tile electrical plane for this executor's grid:
    /// one `side × side` sneak-path sentinel per executed tile (see
    /// [`crate::plane::ElectricalPlane`]).
    pub fn electrical_plane(&self, side: usize) -> crate::plane::ElectricalPlane {
        crate::plane::ElectricalPlane::paper(&self.grid, side)
    }

    /// Batch-validates every tile's read margin over the executor's own
    /// thread knob ([`FabricExecutor::batch`]): the independent per-tile
    /// solves dispatch one-per-worker (batch-of-solves) instead of
    /// serializing on a single electrical backend.
    pub fn validate_electrically(
        &self,
        side: usize,
    ) -> Result<Vec<crate::plane::TileMargin>, String> {
        self.electrical_plane(side).validate(self.batch.threads)
    }

    /// Total fabric area: crossbar cells plus per-tile sequencers.
    pub fn area(&self) -> Area {
        self.grid.tech.cell_area * self.grid.devices() as f64
            + self.grid.controller.area() * self.grid.tiles() as f64
    }

    /// Executes one batch, sharding queries across the executed tiles.
    pub fn execute(&self, queries: &[Query]) -> Result<FabricOutcome, SimError> {
        let tiles = self.grid.tiles() as usize;
        // Shard in arrival order: per-tile slices preserve the batch's
        // relative order, so each tile's serial walk is a pure function
        // of the batch content — never of the partition.
        let mut shards: Vec<Vec<&Query>> = vec![Vec::new(); tiles];
        for query in queries {
            shards[self.grid.home_tile(query.home_key()) as usize].push(query);
        }

        let results = par_units(self.batch, tiles, |index| {
            self.run_tile(index, &shards[index])
        });

        let mut tile_outcomes = Vec::with_capacity(tiles);
        let mut counts = CountLedger::new();
        let mut checksum = 0u64;
        let mut operations = 0u64;
        for result in results {
            let (outcome, diverged) = result;
            if let Some(detail) = diverged {
                return Err(SimError::Diverged {
                    machine: Self::MACHINE,
                    detail,
                });
            }
            counts.merge(&outcome.counts);
            checksum = checksum.wrapping_add(outcome.checksum);
            operations += outcome.operations;
            tile_outcomes.push(outcome);
        }
        let ledger = self.prices.evaluate(&counts);
        debug_assert!(
            cim_units::Component::ALL.iter().all(|&c| {
                cim_units::Phase::ALL
                    .iter()
                    .all(|&p| counts.count(c, p) <= MAX_EXACT_COUNT)
            }),
            "a count cell exceeded the exact-evaluation bound"
        );
        Ok(FabricOutcome {
            tiles: tile_outcomes,
            digest: ExecutionDigest {
                items_total: queries.len() as u64,
                items_verified: queries.len() as u64,
                operations,
                checksum: Some(checksum),
            },
            counts,
            ledger,
        })
    }

    /// Prices a batch without executing it: the closed-form projection
    /// (identical counts, no functional pass).
    pub fn project_batch(&self, queries: &[Query]) -> (CountLedger, CostLedger) {
        let mut counts = CountLedger::new();
        for query in queries {
            query.charge(&mut counts, &self.grid);
        }
        let ledger = self.prices.evaluate(&counts);
        (counts, ledger)
    }

    /// The [`SimError::Diverged`] detail for `query` on tile `index`,
    /// whose in-array `value` disagreed with host arithmetic `expected`.
    pub(crate) fn divergence(
        &self,
        index: u64,
        query: &Query,
        value: u64,
        expected: u64,
    ) -> String {
        format!(
            "tile {} query {} ({}): in-array result {value:#x} \
             disagrees with host arithmetic {expected:#x}",
            self.grid.coord_of(index),
            query.id,
            query.kind,
        )
    }

    /// Runs one tile's shard serially: real in-array semantics per
    /// query through [`Query::evaluate`], checked against host
    /// arithmetic on the same operands, counts charged through the
    /// single shared `Query::charge` definition.
    fn run_tile(&self, index: usize, shard: &[&Query]) -> (TileOutcome, Option<String>) {
        let mut kernel = TileKernel::new();
        let mut counts = CountLedger::new();
        let mut checksum = 0u64;
        let mut operations = 0u64;
        let mut diverged: Option<String> = None;
        for query in shard {
            let (value, expected) = query.evaluate(Some(&mut kernel));
            if value != expected && diverged.is_none() {
                diverged = Some(self.divergence(index as u64, query, value, expected));
            }
            checksum = checksum.wrapping_add(query.checksum_term(value));
            operations += query.kind.operations();
            query.charge(&mut counts, &self.grid);
        }
        let ledger = self.prices.evaluate(&counts);
        (
            TileOutcome {
                tile: self.grid.coord_of(index as u64),
                queries: shard.len() as u64,
                operations,
                checksum,
                counts,
                ledger,
            },
            diverged,
        )
    }
}

/// The serving workload: a deterministic query stream, verified against
/// host arithmetic recomputed independently of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeWorkload {
    /// The traffic pattern.
    pub traffic: TrafficSpec,
}

impl Workload for ServeWorkload {
    fn name(&self) -> String {
        format!(
            "{} serving queries over {} tenants",
            self.traffic.queries, self.traffic.tenants
        )
    }

    fn seed(&self) -> u64 {
        self.traffic.seed
    }

    fn paper_ops(&self) -> u64 {
        self.traffic.operations()
    }

    fn scale_vs_paper(&self) -> f64 {
        1.0
    }

    fn projection(&self) -> ProjectionKind {
        ProjectionKind::ExecutedScale
    }

    fn verify(&self, digest: &ExecutionDigest) -> Result<(), WorkloadError> {
        if digest.items_total == 0 {
            return Err(WorkloadError::EmptyExecution);
        }
        if digest.items_total != self.traffic.queries {
            return Err(WorkloadError::ItemCountMismatch {
                expected: self.traffic.queries,
                got: digest.items_total,
            });
        }
        let expected = self.traffic.reference_checksum();
        if digest.checksum != Some(expected) {
            return Err(WorkloadError::ChecksumMismatch {
                expected,
                got: digest.checksum,
            });
        }
        Ok(())
    }
}

impl ExecutionBackend<ServeWorkload> for FabricExecutor {
    fn machine(&self) -> &'static str {
        Self::MACHINE
    }

    fn run(&self, workload: &ServeWorkload) -> Result<RunOutcome, SimError> {
        let queries = workload.traffic.generate();
        let outcome = self.execute(&queries)?;
        Ok(RunOutcome {
            machine: Self::MACHINE,
            area: self.area(),
            ledger: outcome.ledger,
            digest: outcome.digest,
            measured_hit_ratio: None,
            index_hit_ratio: None,
            notes: vec![format!(
                "{} queries sharded over {} tiles, checksum verified against host arithmetic",
                queries.len(),
                self.grid.tiles()
            )],
        })
    }

    fn project(&self, workload: &ServeWorkload, _hit_ratio: f64) -> RunReport {
        let queries = workload.traffic.generate();
        let (_, ledger) = self.project_batch(&queries);
        RunReport {
            operations: queries.iter().map(|q| q.kind.operations()).sum(),
            area: self.area(),
            ledger,
        }
    }

    /// The fabric's estimate is *exact*: the batch's counts are charged
    /// through the same single `Query::charge` definition execution
    /// uses, so the predicted ledger is bit-equal to the run's.
    fn estimate(&self, workload: &ServeWorkload) -> CostEstimate {
        let queries = workload.traffic.generate();
        let (counts, _) = self.project_batch(&queries);
        CostEstimate {
            machine: Self::MACHINE,
            counts,
            prices: self.prices.clone(),
            certified: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(n: u64) -> Vec<Query> {
        TrafficSpec::sustained(n, 42).generate()
    }

    #[test]
    fn fabric_executes_and_verifies_a_batch() {
        let fabric = FabricExecutor::paper(2, 2, BatchPolicy::SERIAL);
        let queries = traffic(300);
        let outcome = fabric.execute(&queries).expect("no divergence");
        assert_eq!(outcome.digest.items_total, 300);
        assert_eq!(
            outcome.digest.checksum,
            Some(TrafficSpec::sustained(300, 42).reference_checksum())
        );
        assert_eq!(outcome.tiles.len(), 4);
        assert_eq!(outcome.tiles.iter().map(|t| t.queries).sum::<u64>(), 300);
    }

    #[test]
    fn outcome_is_bit_identical_across_tile_and_thread_counts() {
        let queries = traffic(500);
        let reference = FabricExecutor::paper(1, 1, BatchPolicy::SERIAL)
            .execute(&queries)
            .expect("reference run");
        for (rows, cols) in [(1, 2), (2, 2), (4, 1)] {
            for threads in [1, 4] {
                let fabric = FabricExecutor::paper(rows, cols, BatchPolicy::with_threads(threads));
                let outcome = fabric.execute(&queries).expect("sharded run");
                assert_eq!(outcome.digest, reference.digest, "{rows}x{cols}@{threads}");
                assert_eq!(outcome.counts, reference.counts);
                assert_eq!(outcome.ledger, reference.ledger);
            }
        }
    }

    #[test]
    fn fabric_ledger_is_the_bitwise_sum_of_tile_ledgers() {
        let fabric = FabricExecutor::paper(2, 2, BatchPolicy::SERIAL);
        let outcome = fabric.execute(&traffic(400)).expect("run");
        let mut folded = CostLedger::new();
        for tile in &outcome.tiles {
            folded.merge(&tile.ledger);
        }
        assert_eq!(folded, outcome.ledger);
        assert_eq!(
            folded.total_energy().get().to_bits(),
            outcome.ledger.total_energy().get().to_bits()
        );
    }

    #[test]
    fn shared_tile_kernels_leak_no_state_between_batches() {
        let a = traffic(150);
        let b = TrafficSpec::sustained(97, 7).generate();
        for threads in [1, 2] {
            let build = || {
                let grid = TileGrid::paper_dna(2, 2);
                let placement = Placement::uniform(&grid, 1, WINDOW as u32);
                FabricExecutor::new(grid, placement, BatchPolicy::with_threads(threads))
                    .expect("legal")
            };
            let fresh = build().execute(&a).expect("fresh A");
            let fabric = build();
            for executor in [fabric.clone(), fabric] {
                let first = executor.execute(&a).expect("A");
                executor.execute(&b).expect("B");
                let again = executor.execute(&a).expect("A again");
                assert_eq!(first, fresh, "@{threads}: first A");
                assert_eq!(again, fresh, "@{threads}: A after B");
            }
        }
    }

    #[test]
    fn illegal_placements_are_rejected_at_construction() {
        let grid = TileGrid::paper_dna(1, 1);
        let placement = Placement::uniform(&grid, grid.tile_devices + 1, 8);
        assert!(matches!(
            FabricExecutor::new(grid, placement, BatchPolicy::SERIAL),
            Err(cim_arch::PlaceError::TileCapacity { .. })
        ));
    }

    #[test]
    fn backend_run_verifies_and_projection_matches_execution_ledger() {
        let fabric = FabricExecutor::paper(2, 2, BatchPolicy::SERIAL);
        let workload = ServeWorkload {
            traffic: TrafficSpec::sustained(250, 9),
        };
        let run = fabric.run(&workload).expect("run");
        assert!(workload.verify(&run.digest).is_ok());
        // Projection (cost-only) equals execution's report bitwise: the
        // counts are charged through the same single definition.
        assert_eq!(fabric.project(&workload, 0.5), run.report());
    }
}
