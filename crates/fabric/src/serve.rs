//! The async-style serving front-end: queue, admission, batching,
//! backpressure, per-tenant accounting, latency histogram.
//!
//! [`ServeFrontEnd::serve`] replays a deterministic arrival process
//! against the fabric in **modelled time** (an integer picosecond
//! clock): queries arrive with seeded interarrival gaps, pass admission
//! control (a bounded queue plus a per-tenant quota — the backpressure
//! surface), and drain as cross-tenant batches whenever the machines
//! are free. Each batch's modelled service time is a pure function of
//! the batch *content* (slowest primitive in the batch, plus H-tree
//! movement at modelled depth if any operand is remote), never of the
//! executed tile partition — so the whole serve trace (who was
//! admitted, how batches formed, every latency) is bit-identical for
//! any tile count and any thread count, extending the fabric's
//! determinism contract to the serving layer.
//!
//! Nothing modelled reads an execution result, so a pass first
//! **plans** the whole trace serially, then **executes** every admitted
//! query in one pool call, and **folds** the checksums (DESIGN.md §9.4).
//!
//! Counts are the one cost record. Tenant, tile, fabric and host
//! accounts each keep exact op counts; the tile counts merge to the
//! fabric counts, and the tenant counts to the fabric plus host counts
//! ([`ServeReport::conserves`]). A reader prices any of them with
//! [`ServeFrontEnd::prices`]: the two machines charge disjoint cells,
//! so one table prices every view, and with dyadic unit prices the
//! priced views sum bit-for-bit (see `cim_units::counts`). The report
//! keeps only the two machine ledgers priced.

use std::collections::VecDeque;
use std::iter::Take;

use cim_sim::{par_units, SimError};
use cim_units::{
    Component, CostLedger, CountLedger, DispatchObjective, Phase, ScaleTable, Time, UnitCosts,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use cim_arch::{TileCoord, TileGrid};

use crate::fabric::{FabricExecutor, TileKernel};
use crate::host::{host_unit_costs, HostQueryExecutor};
use crate::query::{Query, QueryKind, QueryStream, TenantId, TrafficSpec};

/// Admission and batching parameters of the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Queue capacity; arrivals beyond it are rejected (backpressure).
    pub queue_depth: usize,
    /// Maximum queued queries per tenant; the fairness half of
    /// admission control.
    pub tenant_quota: usize,
    /// Largest batch dispatched into the fabric at once.
    pub max_batch: usize,
    /// Mean modelled interarrival gap, in picoseconds.
    pub mean_gap_ps: u64,
}

impl ServeConfig {
    /// A sustained-overload default: arrivals (~0.5 query/ns) outpace
    /// single-query service (3.2–26.6 ns), so batches form, the queue
    /// fills, and admission control engages.
    pub fn sustained() -> Self {
        Self {
            queue_depth: 256,
            tenant_quota: 96,
            max_batch: 64,
            mean_gap_ps: 2_000,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::sustained()
    }
}

/// How the front-end routes admitted queries across the two machines.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Route every query to the crossbar fabric (the historical
    /// single-machine behaviour, and the default).
    #[default]
    AlwaysCim,
    /// Route every query to the conventional host.
    AlwaysHost,
    /// Route each query to whichever machine certified cost prefers
    /// under the objective, after applying per-machine calibration
    /// scales (identity scales score the raw certified prices).
    Hybrid {
        /// The axis being minimised.
        objective: DispatchObjective,
        /// Calibration scales applied to the fabric's prices.
        cim_scales: ScaleTable,
        /// Calibration scales applied to the host's prices.
        host_scales: ScaleTable,
    },
    /// Split each (kind × locality) cell's query stream *between* the
    /// machines instead of sending the whole cell to one side: the CIM
    /// lane share is the makespan-balancing proportion of the two
    /// calibrated certified per-query scores (a cell whose host score is
    /// `h` and CIM score is `c` routes `h/(c+h)` of its queries to the
    /// crossbar, so both machines finish a cell's stream together).
    /// Which lane a query occupies is a pure bit-mix of the query's own
    /// identity, so routing — like everything else in the serve trace —
    /// is bit-identical for any tile count and any thread count.
    SplitHybrid {
        /// The axis being minimised.
        objective: DispatchObjective,
        /// Calibration scales applied to the fabric's prices.
        cim_scales: ScaleTable,
        /// Calibration scales applied to the host's prices.
        host_scales: ScaleTable,
    },
}

impl DispatchPolicy {
    /// A hybrid policy with identity calibration under `objective`.
    pub fn hybrid(objective: DispatchObjective) -> Self {
        Self::Hybrid {
            objective,
            cim_scales: ScaleTable::identity(),
            host_scales: ScaleTable::identity(),
        }
    }

    /// A split-hybrid policy with identity calibration under
    /// `objective`.
    pub fn split_hybrid(objective: DispatchObjective) -> Self {
        Self::SplitHybrid {
            objective,
            cim_scales: ScaleTable::identity(),
            host_scales: ScaleTable::identity(),
        }
    }
}

/// Routing decisions precomputed per (kind × locality) cell, as the
/// number of the cell's [`SPLIT_LANES`] lanes that go to the crossbar.
///
/// A query's charge laws ([`Query::charge_kind`],
/// [`Query::charge_host_kind`]) are pure functions of its kind and
/// operand locality, so the whole dispatch policy collapses to six
/// certified cost comparisons done once per serve run — dispatch inside
/// the serving loop is a table lookup, bit-identical for any thread
/// count by construction. Whole-machine policies use only the two
/// extremes: `SPLIT_LANES` (every query to the crossbar) and 0 (every
/// query to the host), which route without hashing the query.
///
/// `truth` holds the lane counts the uncalibrated certified prices
/// would have chosen; a query whose route differs between `calibrated`
/// and `truth` was flipped by the calibration scales, which the report
/// surfaces as a misprediction count per completed query.
struct RouteTable {
    calibrated: [[u64; 2]; 3],
    truth: [[u64; 2]; 3],
}

/// Lane granularity of the routing table: a cell's stream is cut into
/// this many identity-hashed lanes and the CIM side takes a whole number
/// of them.
const SPLIT_LANES: u64 = 64;

/// The lane a query occupies, a pure bit-mix (splitmix64 finalizer) of
/// the query's own identity — never of batch composition, tile count,
/// or thread count, preserving the serve-trace determinism contract.
fn split_lane(query: &Query) -> u64 {
    let mut z = query.id ^ query.seed.rotate_left(17) ^ (u64::from(query.tenant.0) << 48);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % SPLIT_LANES
}

/// CIM lane count balancing one cell's stream: with per-query scores
/// `c` (CIM) and `h` (host) and the halves running concurrently, giving
/// the crossbar `h/(c+h)` of the lanes makes both sides finish
/// together. Degenerate scores collapse to one machine (both-zero ties
/// go to the crossbar, the machine the fabric exists to exercise).
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn balanced_lanes(cim_score: f64, host_score: f64) -> u64 {
    if !cim_score.is_finite() || cim_score <= 0.0 {
        return SPLIT_LANES;
    }
    if !host_score.is_finite() || host_score <= 0.0 {
        return 0;
    }
    let share = host_score / (cim_score + host_score);
    ((share * SPLIT_LANES as f64).round() as u64).min(SPLIT_LANES)
}

impl RouteTable {
    fn build(policy: &DispatchPolicy, fabric: &FabricExecutor) -> Self {
        let (objective, cim_scales, host_scales) = match policy {
            DispatchPolicy::AlwaysCim | DispatchPolicy::AlwaysHost => {
                let lanes = if matches!(policy, DispatchPolicy::AlwaysCim) {
                    SPLIT_LANES
                } else {
                    0
                };
                return Self {
                    calibrated: [[lanes; 2]; 3],
                    truth: [[lanes; 2]; 3],
                };
            }
            DispatchPolicy::Hybrid {
                objective,
                cim_scales,
                host_scales,
            }
            | DispatchPolicy::SplitHybrid {
                objective,
                cim_scales,
                host_scales,
            } => (objective, cim_scales, host_scales),
        };
        let cim_true = fabric.prices();
        let host_true = host_unit_costs();
        let cim_scaled = cim_scales.rescale(cim_true);
        let host_scaled = host_scales.rescale(&host_true);
        let score = |prices: &UnitCosts, counts: &CountLedger| {
            let ledger = prices.evaluate(counts);
            objective.score(ledger.total_energy(), ledger.total_time())
        };
        // Per cell, the `(cim, host)` score of one query under the
        // calibrated prices (view 0) and under the true ones (view 1).
        let mut scores = [[[(0.0, 0.0); 2]; 2]; 3];
        for kind in QueryKind::ALL {
            for (slot, local) in [false, true].into_iter().enumerate() {
                let mut cim_counts = CountLedger::new();
                Query::charge_kind(&mut cim_counts, &fabric.grid, kind, local);
                let mut host_counts = CountLedger::new();
                Query::charge_host_kind(&mut host_counts, kind);
                scores[kind.index()][slot] = [
                    (
                        score(&cim_scaled, &cim_counts),
                        score(&host_scaled, &host_counts),
                    ),
                    (
                        score(cim_true, &cim_counts),
                        score(&host_true, &host_counts),
                    ),
                ];
            }
        }
        let split = matches!(policy, DispatchPolicy::SplitHybrid { .. });
        let lanes = |v: usize| {
            scores.map(|row| {
                row.map(|cell| {
                    let (cim, host) = cell[v];
                    if split {
                        balanced_lanes(cim, host)
                    } else if cim <= host {
                        // Ties go to the crossbar: it is the machine the
                        // fabric exists to exercise.
                        SPLIT_LANES
                    } else {
                        0
                    }
                })
            })
        };
        Self {
            calibrated: lanes(0),
            truth: lanes(1),
        }
    }

    fn cell(&self, query: &Query, grid: &TileGrid) -> (u64, u64) {
        let (kind, slot) = (query.kind.index(), usize::from(query.is_local(grid)));
        (self.calibrated[kind][slot], self.truth[kind][slot])
    }

    fn to_cim(&self, query: &Query, grid: &TileGrid) -> bool {
        match self.cell(query, grid).0 {
            0 => false,
            SPLIT_LANES => true,
            lanes => split_lane(query) < lanes,
        }
    }

    fn mispredicted(&self, query: &Query, grid: &TileGrid) -> bool {
        match self.cell(query, grid) {
            (calibrated, truth) if calibrated == truth => false,
            (0 | SPLIT_LANES, 0 | SPLIT_LANES) => true,
            (calibrated, truth) => {
                let lane = split_lane(query);
                (lane < calibrated) != (lane < truth)
            }
        }
    }
}

/// Log-bucketed latency histogram over modelled picoseconds: four
/// sub-buckets per power of two (HdrHistogram-style, ~19% worst-case
/// resolution), which is enough for p50 and p99 to separate within one
/// service-time binade.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Bucket counts; see [`LatencyHistogram::bucket_bounds`] for the
    /// `[lower, upper)` picosecond range of each index.
    pub buckets: Vec<u64>,
}

impl LatencyHistogram {
    /// Number of buckets: 3 exact sub-4 ps buckets plus 4 sub-buckets
    /// per binade up to `u64::MAX` (whose bucket index is 250).
    pub const NUM_BUCKETS: usize = 251;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; Self::NUM_BUCKETS],
        }
    }

    /// Bucket index of a latency: exact below 4 ps, then
    /// `(exponent, 2-bit mantissa)` pairs.
    fn bucket(latency_ps: u64) -> usize {
        let ps = latency_ps.max(1);
        let exponent = ps.ilog2() as usize;
        if exponent < 2 {
            ps as usize - 1
        } else {
            let mantissa = ((ps >> (exponent - 2)) & 3) as usize;
            3 + (exponent - 2) * 4 + mantissa
        }
    }

    /// `[lower, upper)` picosecond bounds of bucket `index`. The final
    /// bucket's upper bound saturates to `u64::MAX` (its true bound,
    /// 2^64, does not fit in a `u64`).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        if index < 3 {
            (index as u64 + 1, index as u64 + 2)
        } else {
            let exponent = (index - 3) / 4;
            let mantissa = ((index - 3) % 4) as u128;
            let clamp = |v: u128| u64::try_from(v).unwrap_or(u64::MAX);
            (
                clamp((4 + mantissa) << exponent),
                clamp((5 + mantissa) << exponent),
            )
        }
    }

    /// Records one latency.
    pub fn record(&mut self, latency_ps: u64) {
        self.buckets[Self::bucket(latency_ps)] += 1;
    }

    /// Total recorded samples.
    pub fn samples(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the first
    /// bucket whose cumulative count reaches it, or [`Time::ZERO`] when
    /// empty. Bucket resolution (~19%) is the histogram's contract;
    /// p50/p99 are read through this.
    pub fn quantile(&self, q: f64) -> Time {
        let total = self.samples();
        if total == 0 {
            return Time::ZERO;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Time::from_pico_seconds(Self::bucket_bounds(i).1 as f64);
            }
        }
        Time::from_pico_seconds(2f64.powi(64))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-tenant serving account.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantAccount {
    /// The tenant.
    pub tenant: TenantId,
    /// Queries this tenant submitted.
    pub submitted: u64,
    /// Queries admitted past both gates.
    pub admitted: u64,
    /// Rejections because the shared queue was full.
    pub rejected_queue_full: u64,
    /// Rejections because the tenant exceeded its quota.
    pub rejected_quota: u64,
    /// Queries completed by the fabric.
    pub completed: u64,
    /// Completed queries routed to the crossbar fabric.
    pub cim_queries: u64,
    /// Completed queries routed to the conventional host.
    pub host_queries: u64,
    /// Exact op counts attributed to this tenant (both machines; the
    /// two charge into disjoint component cells).
    pub counts: CountLedger,
}

/// Per-tile serving account (aggregated over all batches).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileAccount {
    /// The tile.
    pub tile: TileCoord,
    /// Queries this tile executed.
    pub queries: u64,
    /// Exact op counts this tile accumulated.
    pub counts: CountLedger,
}

/// Everything one serve run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Queries submitted (the traffic size).
    pub submitted: u64,
    /// Queries admitted.
    pub admitted: u64,
    /// Rejections: shared queue full.
    pub rejected_queue_full: u64,
    /// Rejections: tenant over quota.
    pub rejected_quota: u64,
    /// Queries completed (equals `admitted`; the queue drains fully).
    pub completed: u64,
    /// Completed queries routed to the crossbar fabric.
    pub cim_queries: u64,
    /// Completed queries routed to the conventional host.
    pub host_queries: u64,
    /// Completed queries whose route the calibration scales flipped
    /// relative to the uncalibrated certified choice — the serving
    /// layer's misprediction counter.
    pub mispredictions: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Deepest queue occupancy observed (backpressure evidence).
    pub peak_queue: usize,
    /// Modelled end-to-end makespan (last batch completion).
    pub makespan: Time,
    /// Modelled throughput: completed queries per makespan second.
    pub throughput_qps: f64,
    /// End-to-end latency histogram over completed queries.
    pub histogram: LatencyHistogram,
    /// Per-tenant accounts, in tenant order.
    pub tenants: Vec<TenantAccount>,
    /// Per-tile accounts, in tile order.
    pub tiles: Vec<TileAccount>,
    /// Exact fabric-wide counts (merge of the tile counts, and of the
    /// fabric share of the tenant counts).
    pub fabric_counts: CountLedger,
    /// The fabric ledger: `evaluate(fabric_counts)` under
    /// [`ServeFrontEnd::prices`].
    pub fabric_ledger: CostLedger,
    /// Exact op counts charged by host-routed queries (merge of the
    /// host share of the tenant counts).
    pub host_counts: CountLedger,
    /// The host ledger: `evaluate(host_counts)` under
    /// [`ServeFrontEnd::prices`].
    pub host_ledger: CostLedger,
    /// Order-insensitive checksum over completed queries' results
    /// (machine-independent: both machines compute the same values).
    pub checksum: u64,
}

impl ServeReport {
    /// p50 modelled latency.
    pub fn p50(&self) -> Time {
        self.histogram.quantile(0.50)
    }

    /// p99 modelled latency.
    pub fn p99(&self) -> Time {
        self.histogram.quantile(0.99)
    }

    /// True when the counts conserve exactly: the tile counts merge to
    /// the fabric counts, and the tenant counts merge to the fabric
    /// *plus* host counts.
    pub fn conserves(&self) -> bool {
        let mut tile_counts = CountLedger::new();
        for tile in &self.tiles {
            tile_counts.merge(&tile.counts);
        }
        let mut tenant_counts = CountLedger::new();
        for tenant in &self.tenants {
            tenant_counts.merge(&tenant.counts);
        }
        let mut machine_counts = self.fabric_counts.clone();
        machine_counts.merge(&self.host_counts);
        tile_counts == self.fabric_counts && tenant_counts == machine_counts
    }
}

/// The serving front-end: a fabric plus admission/batching policy and
/// a dispatch policy choosing between the two machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeFrontEnd {
    /// The crossbar execution substrate.
    pub fabric: FabricExecutor,
    /// Queue/admission/batching parameters.
    pub config: ServeConfig,
    /// Per-query routing across the two machines.
    pub policy: DispatchPolicy,
}

/// Per-kind modelled service latencies, in picoseconds, priced once per
/// pass. A batch's modelled service time is a pure function of its
/// content — deliberately independent of the executed tile partition,
/// preserving cross-tile-count determinism. Its crossbar half takes the
/// slowest primitive latency present, plus one H-tree traversal at
/// modelled depth if any operand is remote; its host half the slowest
/// [`HostQueryExecutor::query_service_ps`]. The halves run concurrently
/// and the front-end waits for both, so the batch takes the slower one.
struct ServiceTimes {
    cim: [u64; 3],
    host: [u64; 3],
    /// Added to the crossbar half when any of its operands is remote.
    remote: u64,
}

impl ServiceTimes {
    fn new(grid: &TileGrid) -> Self {
        let ps = |time: Time| (time.get() * 1e12).round() as u64;
        Self {
            cim: QueryKind::ALL.map(|kind| {
                let op = match kind {
                    QueryKind::Lookup | QueryKind::Compare => cim_arch::CimOp::Comparator,
                    QueryKind::Add => cim_arch::CimOp::TcAdder {
                        bits: crate::query::ADD_BITS,
                    },
                };
                ps(op.cost(&grid.tech).latency)
            }),
            host: QueryKind::ALL.map(|kind| HostQueryExecutor.query_service_ps(kind)),
            remote: grid.route_hops() * ps(grid.interconnect.hop_latency),
        }
    }
}

/// The plan pass's state: the queue and the modelled accounts. Beyond
/// the queue and the batch being dispatched it keeps no per-batch or
/// per-query record — only what the execute pass needs: a bitmap of the
/// admitted queries and, per worker, the query stream forked at the
/// start of that worker's chunk.
struct Plan {
    /// Queued `(query, arrival ps)`, oldest first.
    queue: VecDeque<(Query, u64)>,
    tenant_queued: Vec<usize>,
    /// Bit `id % 64` of word `id / 64` is set once query `id` is
    /// admitted.
    admitted: Vec<u64>,
    /// One arrival-order chunk of the stream per execute worker.
    chunks: Vec<Take<QueryStream>>,
    /// The batch being dispatched, `(query, arrival ps, to the
    /// crossbar)`; its buffer is reused from batch to batch.
    batch: Vec<(Query, u64, bool)>,
    accounts: Vec<TenantAccount>,
    tiles: Vec<TileAccount>,
    histogram: LatencyHistogram,
    host_counts: CountLedger,
    batches: u64,
    completed: u64,
    peak_queue: usize,
    cim_queries: u64,
    host_queries: u64,
    mispredictions: u64,
    /// When the machines are next free: after the pass, the makespan.
    free_at: u64,
}

impl ServeFrontEnd {
    /// Rejects degenerate configurations before any query is served:
    /// a zero queue depth or tenant quota admits nothing, a zero batch
    /// size dispatches nothing, an empty tile set has nowhere to
    /// execute, and a mean gap whose worst-case arrival clock
    /// (`max(queries, 1) × (2·mean_gap_ps − 1)` ps) does not fit in a
    /// `u64` would overflow — all would hang, divide by zero or wrap
    /// downstream, so they surface as typed [`SimError::InvalidConfig`]
    /// errors instead. The clock is bounded for at least one query even
    /// when there are none, because the plan derives its gap span
    /// before it draws an arrival.
    fn validate(&self, traffic: &TrafficSpec) -> Result<(), SimError> {
        let invalid = |detail: &str| SimError::InvalidConfig {
            machine: FabricExecutor::MACHINE,
            detail: detail.to_string(),
        };
        if self.config.queue_depth == 0 {
            return Err(invalid("queue_depth is zero; no query can be admitted"));
        }
        if self.config.tenant_quota == 0 {
            return Err(invalid("tenant_quota is zero; no tenant can be admitted"));
        }
        if self.config.max_batch == 0 {
            return Err(invalid("max_batch is zero; no batch can be dispatched"));
        }
        if self.fabric.grid.tiles() == 0 {
            return Err(invalid(
                "tile set is empty; the fabric has nowhere to execute",
            ));
        }
        let max_gap = 2 * u128::from(self.config.mean_gap_ps.max(1)) - 1;
        if u128::from(traffic.queries.max(1)) * max_gap > u128::from(u64::MAX) {
            return Err(invalid(
                "mean_gap_ps is too large; the arrival clock would overflow u64 picoseconds",
            ));
        }
        Ok(())
    }

    /// The combined price table for every count a serve reports: the
    /// fabric's cells verbatim plus the host's `GateDynamic` /
    /// `CacheAccess` cells. The two machines charge disjoint component
    /// cells, so one table prices a tile's, a tenant's mixed-machine,
    /// the fabric's or the host's counts, and the priced views sum
    /// bit-for-bit.
    pub fn prices(&self) -> UnitCosts {
        let mut prices = self.fabric.prices().clone();
        let host = host_unit_costs();
        for phase in [Phase::Index, Phase::Map, Phase::Add] {
            for component in [Component::GateDynamic, Component::CacheAccess] {
                prices.set(
                    component,
                    phase,
                    host.unit_energy(component, phase),
                    host.unit_time(component, phase),
                );
            }
        }
        prices
    }

    /// Plans one batch starting at `start`: pops up to `max_batch`
    /// queries in FIFO order (cross-tenant), routes each per the route
    /// table, and accounts every one at the batch's completion —
    /// latency, tenant, tile or host counts, misprediction. Returns the
    /// completion time.
    fn plan_batch(
        &self,
        plan: &mut Plan,
        routes: &RouteTable,
        times: &ServiceTimes,
        start: u64,
    ) -> Result<u64, SimError> {
        let grid = &self.fabric.grid;
        let take = plan.queue.len().min(self.config.max_batch);
        let (mut cim_ps, mut host_ps) = (0u64, 0u64);
        let mut any_remote = false;
        plan.batch.clear();
        for (query, arrived) in plan.queue.drain(..take) {
            plan.tenant_queued[query.tenant.0 as usize] -= 1;
            let to_cim = routes.to_cim(&query, grid);
            if to_cim {
                cim_ps = cim_ps.max(times.cim[query.kind.index()]);
                any_remote |= !query.is_local(grid);
            } else {
                host_ps = host_ps.max(times.host[query.kind.index()]);
            }
            plan.batch.push((query, arrived, to_cim));
        }
        if any_remote {
            cim_ps += times.remote;
        }
        let service = cim_ps.max(host_ps).max(1);
        let completion = start.checked_add(service).ok_or(SimError::InvalidConfig {
            machine: FabricExecutor::MACHINE,
            detail: "mean_gap_ps is too large; the completion clock overflowed u64 picoseconds"
                .to_string(),
        })?;
        for (query, arrived, to_cim) in &plan.batch {
            plan.histogram.record(completion - arrived);
            let account = &mut plan.accounts[query.tenant.0 as usize];
            account.completed += 1;
            if *to_cim {
                account.cim_queries += 1;
                plan.cim_queries += 1;
                query.charge(&mut account.counts, grid);
                let tile = &mut plan.tiles[grid.home_tile(query.home_key()) as usize];
                tile.queries += 1;
                query.charge(&mut tile.counts, grid);
            } else {
                account.host_queries += 1;
                plan.host_queries += 1;
                query.charge_host(&mut account.counts);
                query.charge_host(&mut plan.host_counts);
            }
            if routes.mispredicted(query, grid) {
                plan.mispredictions += 1;
            }
        }
        plan.batches += 1;
        plan.completed += take as u64;
        Ok(completion)
    }

    /// The plan pass: replays the arrivals through admission control
    /// and batching on the modelled clock, doing only the modelled
    /// work. Nothing in it reads an execution result.
    fn plan(&self, traffic: &TrafficSpec, routes: &RouteTable) -> Result<Plan, SimError> {
        let grid = &self.fabric.grid;
        let n = usize::try_from(traffic.queries).expect("query ids index the admitted bitmap");
        let workers = self.fabric.batch.effective_threads(n);
        let times = ServiceTimes::new(grid);
        let tenants = traffic.tenants.max(1) as usize;
        let mut gap_rng = StdRng::seed_from_u64(traffic.seed ^ 0x5E7E_5E7E_5E7E_5E7E);
        let mut plan = Plan {
            queue: VecDeque::new(),
            tenant_queued: vec![0usize; tenants],
            admitted: vec![0u64; n.div_ceil(64)],
            chunks: Vec::with_capacity(workers),
            batch: Vec::new(),
            accounts: (0..tenants)
                .map(|t| TenantAccount {
                    tenant: TenantId(t as u32),
                    submitted: 0,
                    admitted: 0,
                    rejected_queue_full: 0,
                    rejected_quota: 0,
                    completed: 0,
                    cim_queries: 0,
                    host_queries: 0,
                    counts: CountLedger::new(),
                })
                .collect(),
            tiles: (0..grid.tiles())
                .map(|i| TileAccount {
                    tile: grid.coord_of(i),
                    queries: 0,
                    counts: CountLedger::new(),
                })
                .collect(),
            histogram: LatencyHistogram::new(),
            host_counts: CountLedger::new(),
            batches: 0,
            completed: 0,
            peak_queue: 0,
            cim_queries: 0,
            host_queries: 0,
            mispredictions: 0,
            free_at: 0,
        };
        let mut clock = 0u64;
        // `2·gap − 1`, ordered so a validated gap of 2^63 cannot
        // overflow the intermediate product.
        let gap_span = (self.config.mean_gap_ps.max(1) - 1) * 2 + 1;

        let mut stream = traffic.stream();
        for index in 0..n {
            // Worker `w` executes arrivals `[w·n/workers, (w+1)·n/workers)`.
            while plan.chunks.len() < workers && plan.chunks.len() * n / workers == index {
                let end = (plan.chunks.len() + 1) * n / workers;
                plan.chunks.push(stream.clone().take(end - index));
            }
            let query = stream.next().expect("the stream yields `queries` queries");
            clock += 1 + gap_rng.gen::<u64>() % gap_span;
            // Drain whatever the machines can finish before this arrival.
            while let Some(&(_, arrived)) = plan.queue.front() {
                if plan.free_at > clock {
                    break;
                }
                let start = plan.free_at.max(arrived);
                plan.free_at = self.plan_batch(&mut plan, routes, &times, start)?;
            }
            // Admission control: shared queue bound, then tenant quota.
            let tenant = query.tenant.0 as usize;
            plan.accounts[tenant].submitted += 1;
            if plan.queue.len() >= self.config.queue_depth {
                plan.accounts[tenant].rejected_queue_full += 1;
                continue;
            }
            if plan.tenant_queued[tenant] >= self.config.tenant_quota {
                plan.accounts[tenant].rejected_quota += 1;
                continue;
            }
            plan.accounts[tenant].admitted += 1;
            plan.tenant_queued[tenant] += 1;
            plan.admitted[index / 64] |= 1 << (index % 64);
            plan.queue.push_back((query, clock));
            plan.peak_queue = plan.peak_queue.max(plan.queue.len());
            // An idle back-end serves the arrival immediately; a busy
            // one lets the queue build (that is where batches come from).
            if plan.free_at <= clock {
                plan.free_at = self.plan_batch(&mut plan, routes, &times, clock)?;
            }
        }
        // Drain the tail.
        while let Some(&(_, arrived)) = plan.queue.front() {
            let start = plan.free_at.max(arrived);
            plan.free_at = self.plan_batch(&mut plan, routes, &times, start)?;
        }
        Ok(plan)
    }

    /// The execute pass: one pool call over the admitted queries, one
    /// contiguous arrival-order chunk per worker. Dispatch is FIFO, so
    /// arrival order is dispatch order, and a query's route
    /// ([`RouteTable::to_cim`]) depends on the query alone — so the
    /// admitted bitmap is all that is needed to re-find what ran where.
    /// Each worker keeps one [`TileKernel`]; each query builds its
    /// operands once ([`Query::evaluate`]), and a crossbar-routed one
    /// is checked against host arithmetic on those same operands.
    ///
    /// The fold adds the chunk checksums in chunk order and reports the
    /// first divergence in arrival order.
    fn execute(&self, plan: &Plan, routes: &RouteTable) -> Result<u64, SimError> {
        let grid = &self.fabric.grid;
        let chunks = par_units(self.fabric.batch, plan.chunks.len(), |chunk| {
            let mut kernel = TileKernel::new();
            let mut checksum = 0u64;
            for query in plan.chunks[chunk].clone() {
                let id = query.id as usize;
                if plan.admitted[id / 64] >> (id % 64) & 1 == 0 {
                    continue;
                }
                let in_array = routes.to_cim(&query, grid);
                let (value, expected) = query.evaluate(in_array.then_some(&mut kernel));
                if value != expected {
                    let tile = grid.home_tile(query.home_key());
                    let detail = self.fabric.divergence(tile, &query, value, expected);
                    return (checksum, Some(detail));
                }
                checksum = checksum.wrapping_add(query.checksum_term(value));
            }
            (checksum, None)
        });
        let mut checksum = 0u64;
        for (chunk_checksum, diverged) in chunks {
            if let Some(detail) = diverged {
                return Err(SimError::Diverged {
                    machine: FabricExecutor::MACHINE,
                    detail,
                });
            }
            checksum = checksum.wrapping_add(chunk_checksum);
        }
        Ok(checksum)
    }

    /// Replays `traffic` through admission control and both machines,
    /// producing the full serving report. Deterministic: bit-identical
    /// for any executed tile count and host thread count.
    ///
    /// Three passes: a serial plan of the modelled clock and accounts,
    /// one execute sweep over the admitted queries, and a fold of the
    /// execution into the report (DESIGN.md §9.4). A configuration the
    /// plan rejects (a completion clock that would overflow) fails
    /// before anything executes.
    pub fn serve(&self, traffic: &TrafficSpec) -> Result<ServeReport, SimError> {
        self.validate(traffic)?;
        let routes = RouteTable::build(&self.policy, &self.fabric);
        let plan = self.plan(traffic, &routes)?;
        let checksum = self.execute(&plan, &routes)?;

        let mut fabric_counts = CountLedger::new();
        for tile in &plan.tiles {
            fabric_counts.merge(&tile.counts);
        }
        let prices = self.prices();
        let fabric_ledger = prices.evaluate(&fabric_counts);
        let host_ledger = prices.evaluate(&plan.host_counts);
        let makespan = Time::from_pico_seconds(plan.free_at as f64);
        let (rejected_queue_full, rejected_quota) =
            plan.accounts.iter().fold((0, 0), |(f, q), a| {
                (f + a.rejected_queue_full, q + a.rejected_quota)
            });
        Ok(ServeReport {
            submitted: traffic.queries,
            admitted: plan.completed,
            rejected_queue_full,
            rejected_quota,
            completed: plan.completed,
            cim_queries: plan.cim_queries,
            host_queries: plan.host_queries,
            mispredictions: plan.mispredictions,
            batches: plan.batches,
            peak_queue: plan.peak_queue,
            makespan,
            throughput_qps: if plan.free_at == 0 {
                0.0
            } else {
                plan.completed as f64 / makespan.get()
            },
            histogram: plan.histogram,
            tenants: plan.accounts,
            tiles: plan.tiles,
            fabric_counts,
            fabric_ledger,
            host_counts: plan.host_counts,
            host_ledger,
            checksum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::BatchPolicy;
    use proptest::prelude::*;

    fn front_end(rows: u32, cols: u32, threads: usize) -> ServeFrontEnd {
        ServeFrontEnd {
            fabric: FabricExecutor::paper(rows, cols, BatchPolicy::with_threads(threads)),
            config: ServeConfig::sustained(),
            policy: DispatchPolicy::AlwaysCim,
        }
    }

    #[test]
    fn sustained_traffic_saturates_and_batches() {
        let report = front_end(2, 2, 1)
            .serve(&TrafficSpec::sustained(3_000, 17))
            .expect("serves");
        assert_eq!(report.submitted, 3_000);
        assert_eq!(report.completed, report.admitted);
        assert!(report.conserves(), "conservation failed");
        // Overload dynamics: batching kicks in (fewer batches than
        // queries) and the queue visibly builds.
        assert!(report.batches < report.completed, "no batching happened");
        assert!(report.peak_queue > 8, "queue never built");
        assert!(report.histogram.samples() == report.completed);
        assert!(report.p99() >= report.p50());
        assert!(report.throughput_qps > 0.0);
    }

    #[test]
    fn serve_trace_is_bit_identical_across_tiles_and_threads() {
        let traffic = TrafficSpec::sustained(1_500, 23);
        let reference = front_end(1, 1, 1).serve(&traffic).expect("reference");
        for (rows, cols) in [(1, 2), (2, 2)] {
            for threads in [1, 4] {
                let report = front_end(rows, cols, threads).serve(&traffic).expect("run");
                assert_eq!(report.checksum, reference.checksum);
                assert_eq!(report.fabric_counts, reference.fabric_counts);
                assert_eq!(report.fabric_ledger, reference.fabric_ledger);
                assert_eq!(report.histogram, reference.histogram);
                assert_eq!(report.tenants, reference.tenants);
                assert_eq!(
                    (
                        report.admitted,
                        report.rejected_queue_full,
                        report.rejected_quota
                    ),
                    (
                        reference.admitted,
                        reference.rejected_queue_full,
                        reference.rejected_quota
                    )
                );
                assert_eq!(report.makespan, reference.makespan);
            }
        }
    }

    #[test]
    fn tight_queues_reject_and_account_per_tenant() {
        let mut fe = front_end(2, 1, 1);
        fe.config = ServeConfig {
            queue_depth: 8,
            tenant_quota: 2,
            max_batch: 4,
            mean_gap_ps: 200,
        };
        let report = fe.serve(&TrafficSpec::sustained(2_000, 5)).expect("serves");
        assert!(
            report.rejected_queue_full + report.rejected_quota > 0,
            "tight config never rejected"
        );
        for account in &report.tenants {
            assert_eq!(
                account.submitted,
                account.admitted + account.rejected_queue_full + account.rejected_quota
            );
            assert_eq!(account.completed, account.admitted);
        }
        assert!(report.conserves());
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        let traffic = TrafficSpec::sustained(10, 1);
        for (config, needle) in [
            (
                ServeConfig {
                    queue_depth: 0,
                    ..ServeConfig::sustained()
                },
                "queue_depth",
            ),
            (
                ServeConfig {
                    tenant_quota: 0,
                    ..ServeConfig::sustained()
                },
                "tenant_quota",
            ),
            (
                ServeConfig {
                    max_batch: 0,
                    ..ServeConfig::sustained()
                },
                "max_batch",
            ),
        ] {
            let mut fe = front_end(1, 1, 1);
            fe.config = config;
            let err = fe.serve(&traffic).expect_err("must reject");
            let rendered = err.to_string();
            assert!(
                matches!(err, SimError::InvalidConfig { .. }),
                "wrong variant: {rendered}"
            );
            assert!(rendered.contains(needle), "{rendered}");
            assert!(rendered.contains("cim-fabric"), "{rendered}");
        }
    }

    fn serve_with_gap(mean_gap_ps: u64, queries: u64) -> Result<ServeReport, SimError> {
        let mut fe = front_end(1, 1, 1);
        fe.config.mean_gap_ps = mean_gap_ps;
        fe.serve(&TrafficSpec::sustained(queries, 1))
    }

    #[test]
    fn maximal_mean_gap_is_rejected_instead_of_overflowing_the_gap_span() {
        // With no traffic too: the plan derives its gap span before it
        // draws an arrival, so an empty stream must not reach it.
        for queries in [0, 10] {
            let err = serve_with_gap(u64::MAX, queries).expect_err("must reject");
            assert!(
                matches!(err, SimError::InvalidConfig { .. }),
                "wrong variant: {err}"
            );
            assert!(err.to_string().contains("mean_gap_ps"), "{err}");
        }
    }

    #[test]
    fn large_mean_gap_is_rejected_instead_of_overflowing_the_arrival_clock() {
        let err = serve_with_gap(1 << 61, 100).expect_err("must reject");
        assert!(
            matches!(err, SimError::InvalidConfig { .. }),
            "wrong variant: {err}"
        );
        assert!(err.to_string().contains("mean_gap_ps"), "{err}");
        // The largest gap whose worst-case clock fits still serves: one
        // query may draw any arrival in `[1, 2^64 − 1]` ps.
        let report = serve_with_gap(1 << 63, 1).expect("fits in u64");
        assert_eq!(report.completed, 1);
        assert!(report.conserves());
    }

    #[test]
    fn conservation_fails_when_any_count_is_tampered() {
        let mut fe = front_end(2, 2, 1);
        fe.policy = DispatchPolicy::hybrid(DispatchObjective::Energy);
        let report = fe.serve(&TrafficSpec::sustained(500, 3)).expect("serves");
        assert!(report.conserves());
        assert!(report.cim_queries > 0 && report.host_queries > 0);
        let bump = |counts: &mut CountLedger| counts.charge(Component::Controller, Phase::Map, 1);
        let mut tile = report.clone();
        bump(&mut tile.tiles[1].counts);
        let mut tenant = report.clone();
        bump(&mut tenant.tenants[2].counts);
        let mut host = report;
        bump(&mut host.host_counts);
        for (what, tampered) in [("tile", tile), ("tenant", tenant), ("host", host)] {
            assert!(!tampered.conserves(), "a tampered {what} count conserved");
        }
    }

    /// A `ServeConfig` size knob: both degenerate ends, small values
    /// where admission and batching bind, and anything in between.
    fn config_size() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), Just(usize::MAX), 0usize..64, any::<usize>()]
    }

    proptest! {
        #[test]
        fn any_serve_config_serves_conservatively_or_is_rejected(
            queue_depth in config_size(),
            tenant_quota in config_size(),
            max_batch in config_size(),
            mean_gap_ps in prop_oneof![any::<u64>(), 0u64..10_000, (u64::MAX >> 8)..=u64::MAX],
            queries in 0u64..48,
            seed in any::<u64>(),
        ) {
            let mut fe = front_end(1, 2, 1);
            fe.config = ServeConfig { queue_depth, tenant_quota, max_batch, mean_gap_ps };
            fe.policy = DispatchPolicy::hybrid(DispatchObjective::Energy);
            match fe.serve(&TrafficSpec::sustained(queries, seed)) {
                Ok(report) => {
                    prop_assert!(report.conserves(), "conservation failed");
                    prop_assert_eq!(report.completed, report.admitted);
                    prop_assert_eq!(report.submitted, queries);
                }
                Err(err) => prop_assert!(
                    matches!(err, SimError::InvalidConfig { .. }),
                    "unexpected error: {}", err
                ),
            }
        }
    }

    #[test]
    fn hybrid_routing_splits_by_certified_cost_and_conserves() {
        let traffic = TrafficSpec::sustained(2_000, 11);
        let mut fe = front_end(2, 2, 1);
        fe.policy = DispatchPolicy::hybrid(DispatchObjective::Energy);
        let report = fe.serve(&traffic).expect("serves");
        // The certified prices send memory-bound lookups/compares to
        // the crossbar and register-resident adds to the host.
        assert!(report.cim_queries > 0, "no CIM traffic");
        assert!(report.host_queries > 0, "no host traffic");
        assert_eq!(report.cim_queries + report.host_queries, report.completed);
        // Identity calibration never disagrees with the true prices.
        assert_eq!(report.mispredictions, 0);
        // Results are machine-independent and accounting still
        // conserves bit-for-bit across both machines.
        let always_cim = front_end(2, 2, 1).serve(&traffic).expect("serves");
        assert_eq!(report.checksum, always_cim.checksum);
        assert!(report.conserves(), "hybrid conservation failed");
        // Per-tenant routing tallies roll up to the report totals.
        let (cim, host) = report
            .tenants
            .iter()
            .fold((0, 0), |(c, h), t| (c + t.cim_queries, h + t.host_queries));
        assert_eq!((cim, host), (report.cim_queries, report.host_queries));
        // Hybrid routing strictly beats single-machine energy here:
        // adds stop paying the crossbar's controller broadcast, while
        // compares keep avoiding the host's cache traffic.
        let hybrid_energy =
            (report.fabric_ledger.total_energy() + report.host_ledger.total_energy()).get();
        let cim_energy = always_cim.fabric_ledger.total_energy().get();
        let mut always_host = front_end(2, 2, 1);
        always_host.policy = DispatchPolicy::AlwaysHost;
        let host_report = always_host.serve(&traffic).expect("serves");
        assert!(host_report.conserves(), "host conservation failed");
        assert_eq!(host_report.checksum, always_cim.checksum);
        let host_energy = host_report.host_ledger.total_energy().get();
        assert!(
            hybrid_energy < cim_energy,
            "{hybrid_energy} !< {cim_energy}"
        );
        assert!(
            hybrid_energy < host_energy,
            "{hybrid_energy} !< {host_energy}"
        );
    }

    #[test]
    fn skewed_calibration_flips_routes_and_counts_mispredictions() {
        // Inflate the crossbar's comparator price a millionfold: the
        // calibrated table now sends compares to the host, and every
        // such completion is counted as a misprediction relative to
        // the true certified prices.
        let mut cim_scales = ScaleTable::identity();
        for phase in [Phase::Index, Phase::Map] {
            cim_scales.set(Component::ImplyStep, phase, 1e6, 1.0);
        }
        let mut fe = front_end(2, 2, 1);
        fe.policy = DispatchPolicy::Hybrid {
            objective: DispatchObjective::Energy,
            cim_scales,
            host_scales: ScaleTable::identity(),
        };
        let report = fe.serve(&TrafficSpec::sustained(1_000, 9)).expect("serves");
        assert_eq!(report.cim_queries, 0, "everything should flee the crossbar");
        // Only the flipped cells mispredict: lookups/compares (now on
        // the host against the true prices' advice) count, adds (host
        // either way) do not.
        assert!(report.mispredictions > 0, "skew never mispredicted");
        assert!(
            report.mispredictions < report.host_queries,
            "adds were wrongly counted as mispredictions"
        );
        assert!(report.conserves());
    }

    #[test]
    fn split_hybrid_uses_both_machines_per_cell_and_conserves() {
        let traffic = TrafficSpec::sustained(2_000, 11);
        let mut fe = front_end(2, 2, 1);
        fe.policy = DispatchPolicy::split_hybrid(DispatchObjective::Makespan);
        let report = fe.serve(&traffic).expect("serves");
        assert!(report.cim_queries > 0, "no CIM traffic");
        assert!(report.host_queries > 0, "no host traffic");
        assert_eq!(report.cim_queries + report.host_queries, report.completed);
        // Identity calibration never disagrees with the true shares.
        assert_eq!(report.mispredictions, 0);
        assert!(report.conserves(), "split-hybrid conservation failed");
        // Results stay machine-independent: the same traffic computes
        // the same checksum however the stream is interleaved.
        let always_cim = front_end(2, 2, 1).serve(&traffic).expect("serves");
        assert_eq!(report.checksum, always_cim.checksum);
        // Splitting genuinely interleaves: the whole-cell hybrid sends
        // each cell to exactly one machine, so its routing tallies
        // differ from the lane-interleaved split of the same traffic.
        let mut whole = front_end(2, 2, 1);
        whole.policy = DispatchPolicy::hybrid(DispatchObjective::Makespan);
        let whole_report = whole.serve(&traffic).expect("serves");
        assert_ne!(
            (report.cim_queries, report.host_queries),
            (whole_report.cim_queries, whole_report.host_queries),
            "split-hybrid degenerated into whole-cell routing"
        );
    }

    #[test]
    fn split_hybrid_trace_is_bit_identical_across_tiles_and_threads() {
        let traffic = TrafficSpec::sustained(1_500, 23);
        let mut reference_fe = front_end(1, 1, 1);
        reference_fe.policy = DispatchPolicy::split_hybrid(DispatchObjective::Makespan);
        let reference = reference_fe.serve(&traffic).expect("reference");
        for (rows, cols) in [(1, 2), (2, 2)] {
            for threads in [1, 4] {
                let mut fe = front_end(rows, cols, threads);
                fe.policy = DispatchPolicy::split_hybrid(DispatchObjective::Makespan);
                let report = fe.serve(&traffic).expect("run");
                assert_eq!(report.checksum, reference.checksum);
                assert_eq!(
                    (report.cim_queries, report.host_queries),
                    (reference.cim_queries, reference.host_queries)
                );
                assert_eq!(report.fabric_counts, reference.fabric_counts);
                assert_eq!(report.host_counts, reference.host_counts);
                assert_eq!(report.tenants, reference.tenants);
                assert_eq!(report.histogram, reference.histogram);
                assert_eq!(report.makespan, reference.makespan);
            }
        }
    }

    #[test]
    fn skewed_calibration_shifts_split_shares_and_counts_mispredictions() {
        // Inflate every crossbar price a millionfold: the calibrated
        // shares collapse toward the host, and each query whose lane
        // changed sides relative to the true shares is counted.
        let mut cim_scales = ScaleTable::identity();
        for phase in [Phase::Index, Phase::Map, Phase::Add] {
            for component in [
                Component::ImplyStep,
                Component::Controller,
                Component::Interconnect,
            ] {
                cim_scales.set(component, phase, 1e6, 1e6);
            }
        }
        let traffic = TrafficSpec::sustained(1_000, 9);
        let mut fe = front_end(2, 2, 1);
        fe.policy = DispatchPolicy::SplitHybrid {
            objective: DispatchObjective::Makespan,
            cim_scales: cim_scales.clone(),
            host_scales: ScaleTable::identity(),
        };
        let skewed = fe.serve(&traffic).expect("serves");
        let mut honest_fe = front_end(2, 2, 1);
        honest_fe.policy = DispatchPolicy::split_hybrid(DispatchObjective::Makespan);
        let honest = honest_fe.serve(&traffic).expect("serves");
        assert!(
            skewed.cim_queries < honest.cim_queries,
            "skew never shifted the shares ({} !< {})",
            skewed.cim_queries,
            honest.cim_queries
        );
        assert!(skewed.mispredictions > 0, "skew never mispredicted");
        assert!(skewed.conserves());
        assert_eq!(skewed.checksum, honest.checksum);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bucketed() {
        let mut h = LatencyHistogram::new();
        for ps in [1u64, 2, 3, 1000, 1000, 1000, 1_000_000] {
            h.record(ps);
        }
        assert_eq!(h.samples(), 7);
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        // The 1000 ps samples land in [896, 1024): upper bound 1024 ps.
        assert_eq!(h.quantile(0.5), Time::from_pico_seconds(1024.0));
        assert_eq!(LatencyHistogram::new().quantile(0.5), Time::ZERO);
    }

    #[test]
    fn histogram_buckets_tile_the_axis_without_gaps() {
        // Bounds are contiguous and each sample lands inside its bucket.
        // The final bucket's upper bound saturates, so contiguity is
        // checked up to it.
        for index in 0..LatencyHistogram::NUM_BUCKETS - 1 {
            let (lower, upper) = LatencyHistogram::bucket_bounds(index);
            assert!(lower < upper, "bucket {index}");
            assert_eq!(upper, LatencyHistogram::bucket_bounds(index + 1).0);
        }
        for ps in (1u64..5000).chain([1 << 40, u64::MAX >> 1, u64::MAX]) {
            let mut h = LatencyHistogram::new();
            h.record(ps);
            let index = h.buckets.iter().position(|&c| c == 1).expect("recorded");
            let (lower, upper) = LatencyHistogram::bucket_bounds(index);
            assert!(lower <= ps && ps <= upper, "{ps} not in [{lower},{upper}]");
        }
    }
}
