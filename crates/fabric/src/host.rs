//! The host machine's side of the serving fabric: prices, execution,
//! and service times for queries routed *away* from the crossbar.
//!
//! The hybrid dispatcher needs both machines priced in the same
//! currency — exact counts times dyadic unit prices — so this module is
//! the conventional-machine twin of [`crate::model`]: one
//! [`UnitCosts`] table built from the paper's Table-1 CMOS constants
//! ([`host_unit_costs`]), one executor that runs host-routed queries
//! with plain host arithmetic ([`HostQueryExecutor`]), and a
//! service-time model mirroring the fabric's batch-content rule.
//!
//! The cost asymmetry that makes hybrid dispatch non-trivial lives
//! here. Lookups and compares walk a memory-resident reference window,
//! so every comparison pays **two operand fetches through the shared
//! 8 kB cache** at the paper's locality-hostile 50% hit rate (~505 pJ
//! expected per access) — which is why the crossbar wins them by four
//! orders of magnitude. Adds carry both operands *in the request
//! payload*: the host serves them register-resident, one ClaAdder
//! switch (~510 aJ) with **no** memory traffic, which is why the host
//! wins adds over the CRS adder's 256 fJ + 133 controller broadcast
//! steps. One machine per kind, decided by certified cost, not by rule.

use cim_arch::{ClaAdder, ConventionalMachine};
use cim_units::{Component, CountLedger, Phase, UnitCosts};
use serde::{Deserialize, Serialize};

use crate::query::{Query, QueryKind};

/// Functional units the host dedicates to serving (one cluster of 32,
/// matching the per-cluster shape of the paper's conventional machine);
/// per-op time prices amortise one latency over these slots.
pub const HOST_UNITS: u64 = 32;

/// Builds the host price table for serve traffic from the paper's
/// Table-1 CMOS constants: `GateDynamic` carries the functional-unit
/// switching (byte comparator for lookups/compares, CLA adder for
/// adds), `CacheAccess` the expected (hit-ratio-weighted) operand fetch
/// through the shared DNA cache. Adds price no cache cell — see the
/// module docs for the register-resident assumption.
pub fn host_unit_costs() -> UnitCosts {
    let machine = ConventionalMachine::dna_paper();
    let slots = HOST_UNITS as f64;
    let comparator_energy = machine.unit.dynamic_energy(&machine.tech);
    let comparator_time = machine.unit.latency(&machine.tech) * (1.0 / slots);
    let adder = ClaAdder::unit();
    let access_energy = machine.cache.expected_access_energy();
    let access_time = machine.cache.expected_access_time(&machine.tech) * (1.0 / slots);
    let mut prices = UnitCosts::new();
    for phase in [Phase::Index, Phase::Map] {
        prices.set(
            Component::GateDynamic,
            phase,
            comparator_energy,
            comparator_time,
        );
        prices.set(Component::CacheAccess, phase, access_energy, access_time);
    }
    prices.set(
        Component::GateDynamic,
        Phase::Add,
        adder.dynamic_energy(&machine.tech),
        adder.latency(&machine.tech) * (1.0 / slots),
    );
    prices
}

/// What the host produced for its share of one serve batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostBatchOutcome {
    /// Queries the host served.
    pub queries: u64,
    /// Primitive operations (comparator/ALU invocations) performed.
    pub operations: u64,
    /// Order-insensitive checksum over the results — the same
    /// `checksum_term` fold the fabric computes, so host- and
    /// CIM-routed shares of a stream sum to the same reference total.
    pub checksum: u64,
    /// Exact op counts, charged through [`Query::charge_host`].
    pub counts: CountLedger,
}

/// Serves queries on the conventional machine with plain host
/// arithmetic.
///
/// The host *is* the ground-truth semantics the fabric is verified
/// against ([`Query::expected_value`]), so executing here means
/// evaluating that definition directly; costs are charged through the
/// single [`Query::charge_host`] definition, keeping host accounting
/// conserved by construction exactly like the fabric's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostQueryExecutor;

impl HostQueryExecutor {
    /// Machine label used in reports and dispatch traces.
    pub const MACHINE: &'static str = "host";

    /// Executes a batch of host-routed queries.
    pub fn execute(self, batch: &[Query]) -> HostBatchOutcome {
        let mut counts = CountLedger::new();
        let mut checksum = 0u64;
        let mut operations = 0u64;
        for query in batch {
            let value = query.expected_value();
            checksum = checksum.wrapping_add(query.checksum_term(value));
            operations += query.kind.operations();
            query.charge_host(&mut counts);
        }
        HostBatchOutcome {
            queries: batch.len() as u64,
            operations,
            checksum,
            counts,
        }
    }

    /// Modelled host latency of one query of `kind`, in picoseconds: a
    /// lookup or compare pays its unit compute plus one expected cache
    /// access, an add only its ALU latency. A host batch takes its
    /// slowest query's latency, mirroring the fabric's batch-content
    /// service rule (a pure function of the batch, never of the
    /// partition).
    pub fn query_service_ps(self, kind: QueryKind) -> u64 {
        let machine = ConventionalMachine::dna_paper();
        let ps = |t: cim_units::Time| (t.get() * 1e12).round() as u64;
        match kind {
            QueryKind::Lookup | QueryKind::Compare => {
                ps(machine.unit.latency(&machine.tech))
                    + ps(machine.cache.expected_access_time(&machine.tech))
            }
            QueryKind::Add => ps(ClaAdder::unit().latency(&machine.tech)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TrafficSpec;
    use cim_units::Energy;

    #[test]
    fn host_prices_encode_the_cost_asymmetry() {
        let prices = host_unit_costs();
        // Compares pay the cache: one expected access ≈ 505 pJ dwarfs
        // the comparator's ~142 aJ switch.
        let access = prices.unit_energy(Component::CacheAccess, Phase::Map);
        assert!((access.as_pico_joules() - 505.0).abs() < 1.0, "{access}");
        // Adds are register-resident: gate switching only, no cache cell.
        assert_eq!(
            prices.unit_energy(Component::CacheAccess, Phase::Add),
            Energy::ZERO
        );
        let alu = prices.unit_energy(Component::GateDynamic, Phase::Add);
        assert!((alu.as_atto_joules() - 509.6).abs() < 1.0, "{alu}");
    }

    #[test]
    fn host_execution_checksums_match_the_reference() {
        // Host-served traffic reproduces the stream's ground-truth
        // checksum: the host is the reference semantics.
        let spec = TrafficSpec::sustained(400, 77);
        let outcome = HostQueryExecutor.execute(&spec.generate());
        assert_eq!(outcome.queries, 400);
        assert_eq!(outcome.checksum, spec.reference_checksum());
        assert_eq!(outcome.operations, spec.operations());
        assert!(!outcome.counts.is_empty());
    }

    #[test]
    fn host_service_follows_query_kind() {
        let host = HostQueryExecutor;
        // An add is register-resident and fast (252 ps); a lookup or
        // compare drags in the ~84 ns expected cache access.
        assert_eq!(host.query_service_ps(QueryKind::Add), 252);
        assert!(host.query_service_ps(QueryKind::Compare) > 10_000);
        assert_eq!(
            host.query_service_ps(QueryKind::Lookup),
            host.query_service_ps(QueryKind::Compare)
        );
    }
}
