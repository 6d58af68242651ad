//! `serve`: sustained multi-tenant query traffic through the serving
//! front-end, routed per query by the hybrid dispatcher.
//!
//! Adds go to the host, so fabric batches shrink to under two queries
//! and the per-batch fixed cost (fabric set-up plus one pool fork/join)
//! dominates: each call does very little kernel work, the opposite of
//! `dna` and `additions`.

use cim_fabric::{
    DispatchPolicy, FabricExecutor, HostQueryExecutor, Query, QueryKind, ServeConfig,
    ServeFrontEnd, ServeReport, TrafficSpec,
};
use cim_sim::{par_units, BatchPolicy};
use cim_units::{CountLedger, DispatchObjective};

use crate::metrics::{median, percentile, Metric};
use crate::runner::Workload;
use crate::trace::{Tracer, View};

const QUERIES: u64 = 5_000;
const TILES: u32 = 4;
/// Fork/joins the pool probe times per pass, each over one trivial unit
/// per tile on every host core.
const POOL_PROBES: usize = 256;
const SERVE: &str = "fabric.serve";
const OBJECTIVE: DispatchObjective = DispatchObjective::Energy;

/// The serving front-end and its traffic.
pub struct Serve {
    front_end: ServeFrontEnd,
    traffic: TrafficSpec,
    /// Ground-truth checksum over the whole stream.
    expected: u64,
    /// The pool probe forks on every core, whatever the run's threads:
    /// with one thread the pool runs inline.
    host_cores: BatchPolicy,
}

impl Serve {
    /// Which of `queries` the pass sent to the host, read off the pass's
    /// own accounting rather than re-deriving the routing policy. Hybrid
    /// routing sends whole (kind, locality) cells to one machine, so the
    /// host cells are the subset whose host charges sum to the report's
    /// host counts while the other cells' fabric charges sum to its
    /// fabric counts.
    fn host_routed(&self, queries: &[Query], report: &ServeReport) -> Result<Vec<bool>, String> {
        let grid = &self.front_end.fabric.grid;
        let mut cells: Vec<(QueryKind, bool)> = Vec::new();
        // Per cell: (fabric charges, host charges).
        let mut charges: Vec<(CountLedger, CountLedger)> = Vec::new();
        let mut cell_of = Vec::with_capacity(queries.len());
        for query in queries {
            let key = (query.kind, query.is_local(grid));
            let cell = cells.iter().position(|&c| c == key).unwrap_or_else(|| {
                cells.push(key);
                charges.push((CountLedger::new(), CountLedger::new()));
                cells.len() - 1
            });
            query.charge(&mut charges[cell].0, grid);
            query.charge_host(&mut charges[cell].1);
            cell_of.push(cell);
        }
        let to_host = (0..1u32 << cells.len())
            .find(|&mask| {
                let (mut fabric, mut host) = (CountLedger::new(), CountLedger::new());
                for (cell, (on_fabric, on_host)) in charges.iter().enumerate() {
                    if mask >> cell & 1 == 1 {
                        host.merge(on_host);
                    } else {
                        fabric.merge(on_fabric);
                    }
                }
                fabric == report.fabric_counts && host == report.host_counts
            })
            .ok_or("no routing of whole (kind, locality) cells matches the pass's accounting")?;
        Ok(cell_of
            .iter()
            .map(|&cell| to_host >> cell & 1 == 1)
            .collect())
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    const CANARY: (f64, f64) = (1.535_163_710_166_097e-8, 1.012_156_6e-5);
    type Input = ();
    type Output = ServeReport;

    fn build(seed: u64, threads: usize) -> Self {
        let traffic = TrafficSpec::sustained(QUERIES, seed);
        Self {
            front_end: ServeFrontEnd {
                fabric: FabricExecutor::paper(1, TILES, BatchPolicy::with_threads(threads)),
                config: ServeConfig::sustained(),
                policy: DispatchPolicy::hybrid(OBJECTIVE),
            },
            traffic,
            expected: traffic.reference_checksum(),
            host_cores: BatchPolicy::auto(),
        }
    }

    fn input(&self) {}

    fn pass(&self, (): (), tracer: &mut Tracer) -> Result<ServeReport, String> {
        tracer
            .time(SERVE, || self.front_end.serve(&self.traffic))
            .map_err(|e| e.to_string())
    }

    fn check(&self, report: &ServeReport) -> Result<(), String> {
        if !report.conserves() {
            return Err("serve report does not conserve".into());
        }
        if report.completed != report.submitted {
            return Err(format!(
                "{} of {} queries completed",
                report.completed, report.submitted
            ));
        }
        if report.checksum != self.expected {
            return Err(format!(
                "checksum {:#x}, expected {:#x}",
                report.checksum, self.expected
            ));
        }
        Ok(())
    }

    fn ops(report: &ServeReport) -> u64 {
        report.completed
    }

    fn modelled(report: &ServeReport) -> (f64, f64) {
        (
            report.fabric_ledger.total_energy().get() + report.host_ledger.total_energy().get(),
            report.makespan.get(),
        )
    }

    fn input_checksum(&self) -> u64 {
        self.expected
    }

    /// Replays the stream in as many equal batches as the pass
    /// dispatched, each split across the two machines as the pass
    /// routed it, then probes the pool's fork/join.
    fn replay(&self, report: &ServeReport, tracer: &mut Tracer) -> Result<(), String> {
        let queries = tracer.replay("fabric.traffic_gen", SERVE, || self.traffic.generate());
        let to_host = self.host_routed(&queries, report)?;
        let batches = report.batches.max(1) as usize;
        let fabric = &self.front_end.fabric;
        let split: Vec<(Vec<Query>, Vec<Query>)> = (0..batches)
            .map(|i| {
                let range = i * queries.len() / batches..(i + 1) * queries.len() / batches;
                let (mut cim, mut host) = (Vec::new(), Vec::new());
                for (query, &on_host) in queries[range.clone()].iter().zip(&to_host[range]) {
                    if on_host { &mut host } else { &mut cim }.push(*query);
                }
                (cim, host)
            })
            .collect();
        let (mut checksum, mut cim_queries) = (0u64, 0);
        for (cim, host) in &split {
            if !cim.is_empty() {
                let outcome = tracer
                    .replay("fabric.execute", SERVE, || fabric.execute(cim))
                    .map_err(|e| e.to_string())?;
                checksum = checksum.wrapping_add(outcome.digest.checksum.unwrap_or(0));
                cim_queries += cim.len() as u64;
            }
            if !host.is_empty() {
                let outcome = tracer.replay("fabric.host_execute", SERVE, || {
                    HostQueryExecutor.execute(host)
                });
                checksum = checksum.wrapping_add(outcome.checksum);
            }
        }
        if checksum != self.expected || cim_queries != report.cim_queries {
            return Err(format!(
                "replay routed {cim_queries} queries to the fabric (pass: {}) for checksum \
                 {checksum:#x} (expected {:#x})",
                report.cim_queries, self.expected
            ));
        }
        for _ in 0..POOL_PROBES {
            tracer.probe("pool.fork_join", || {
                par_units(
                    self.host_cores,
                    TILES as usize,
                    std::hint::black_box::<usize>,
                )
            });
        }
        Ok(())
    }

    fn layer_metrics(view: &View, report: &ServeReport) -> Vec<Metric> {
        let us = |name| {
            let ns = view.durations_ns(name);
            (percentile(&ns, 0.5) / 1e3, percentile(&ns, 0.99) / 1e3)
        };
        let (execute_p50, execute_p99) = us("fabric.execute");
        let completed = report.completed as f64;
        let passes = view.durations_ns(SERVE).len() as f64;
        vec![
            Metric::new(
                "pool.fork_join_us",
                median(&view.durations_ns("pool.fork_join")) / 1e3,
                "us",
            ),
            // One pool fork/join per fabric batch replayed.
            Metric::new(
                "pool.calls",
                view.durations_ns("fabric.execute").len() as f64 / passes,
                "count",
            ),
            Metric::new(
                "fabric.traffic_gen_ms",
                view.median_ms("fabric.traffic_gen"),
                "ms",
            ),
            Metric::new("fabric.execute_us_p50", execute_p50, "us"),
            Metric::new("fabric.execute_us_p99", execute_p99, "us"),
            Metric::new(
                "fabric.host_execute_us_p50",
                us("fabric.host_execute").0,
                "us",
            ),
            Metric::new("fabric.batches", report.batches as f64, "count"),
            Metric::new(
                "fabric.mean_batch",
                completed / report.batches as f64,
                "count",
            ),
            Metric::new(
                "fabric.host_share",
                report.host_queries as f64 / completed,
                "ratio",
            ),
            Metric::new("fabric.serve_self_ms", median(&view.self_ms(SERVE)), "ms"),
        ]
    }
}
