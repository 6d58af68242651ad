//! Query traffic: small DNA-lookup / compare / add requests.
//!
//! A [`Query`] is the serving layer's unit of work: a tenant-tagged,
//! seeded request whose operands, expected result, and cost counts are
//! all pure functions of the query itself. That purity is what makes
//! fabric results independent of *where* a query executes — shard the
//! batch over 1 or 4 tiles, the per-query evidence is identical, and the
//! order-insensitive checksum folds it identically.

use cim_units::{Component, CountLedger, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use cim_arch::TileGrid;

use crate::fabric::TileKernel;

/// Symbols compared by one lookup/compare query (≤ 64 so one bit-sliced
/// comparator invocation covers the whole window).
pub const WINDOW: usize = 32;

/// Word width of one add query.
pub const ADD_BITS: u32 = 32;

/// One serving tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// What a query asks the fabric to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryKind {
    /// Probe a resident reference window with a near-identical pattern
    /// (the DNA index probe); charged to [`Phase::Index`].
    Lookup,
    /// Compare two independent symbol windows (the DNA mapping inner
    /// loop); charged to [`Phase::Map`].
    Compare,
    /// One `ADD_BITS`-wide addition; charged to [`Phase::Add`].
    Add,
}

impl QueryKind {
    /// Every kind, in table order (see [`QueryKind::index`]).
    pub(crate) const ALL: [QueryKind; 3] = [QueryKind::Lookup, QueryKind::Compare, QueryKind::Add];

    /// This kind's row in per-kind tables.
    pub(crate) fn index(self) -> usize {
        match self {
            QueryKind::Lookup => 0,
            QueryKind::Compare => 1,
            QueryKind::Add => 2,
        }
    }

    /// The phase this kind's cost lands in.
    pub fn phase(self) -> Phase {
        match self {
            QueryKind::Lookup => Phase::Index,
            QueryKind::Compare => Phase::Map,
            QueryKind::Add => Phase::Add,
        }
    }

    /// In-array primitive invocations one query of this kind performs
    /// (comparator calls, adder calls).
    pub fn operations(self) -> u64 {
        match self {
            QueryKind::Lookup | QueryKind::Compare => WINDOW as u64,
            QueryKind::Add => 1,
        }
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QueryKind::Lookup => "lookup",
            QueryKind::Compare => "compare",
            QueryKind::Add => "add",
        })
    }
}

/// One request: everything about it (operands, expected result, cost
/// counts, locality draw) derives from `(id, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Dense per-traffic id; also the sharding key.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// What to compute.
    pub kind: QueryKind,
    /// Operand seed.
    pub seed: u64,
}

/// Operands of one query, synthesized from its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOperands {
    /// Symbol windows for lookup/compare: `(query, reference)` pairs of
    /// 2-bit symbols.
    Windows {
        /// The probe symbols.
        query: [u8; WINDOW],
        /// The resident reference symbols.
        reference: [u8; WINDOW],
    },
    /// The two `ADD_BITS`-wide words of an add query.
    Words {
        /// First addend.
        a: u64,
        /// Second addend.
        b: u64,
    },
}

impl Query {
    /// Synthesizes this query's operands (pure in `self`).
    ///
    /// Lookups probe with a near-identical pattern (each symbol mutated
    /// with probability 1/8) so match masks are dense; compares draw
    /// both windows independently.
    pub fn operands(&self) -> QueryOperands {
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.id.rotate_left(32));
        match self.kind {
            QueryKind::Lookup | QueryKind::Compare => {
                let mut query = [0u8; WINDOW];
                let mut reference = [0u8; WINDOW];
                for i in 0..WINDOW {
                    reference[i] = (rng.gen::<u64>() & 3) as u8;
                    query[i] = if self.kind == QueryKind::Lookup {
                        if rng.gen::<u64>() % 8 == 0 {
                            (reference[i] + 1 + (rng.gen::<u64>() % 3) as u8) & 3
                        } else {
                            reference[i]
                        }
                    } else {
                        (rng.gen::<u64>() & 3) as u8
                    };
                }
                QueryOperands::Windows { query, reference }
            }
            QueryKind::Add => {
                let mask = (1u64 << ADD_BITS) - 1;
                QueryOperands::Words {
                    a: rng.gen::<u64>() & mask,
                    b: rng.gen::<u64>() & mask,
                }
            }
        }
    }

    /// The ground-truth result value, computed with plain host
    /// arithmetic — the independent reference the in-array execution is
    /// verified against. Lookup/compare: the 32-bit equality mask.
    /// Add: the `ADD_BITS + 1`-bit sum.
    pub fn expected_value(&self) -> u64 {
        self.evaluate(None).1
    }

    /// Serves this query once: builds its operands, computes the host
    /// arithmetic on them, and — given a tile kernel — runs them through
    /// the in-array kernel too. Returns `(value, expected)`: the kernel's
    /// result (the host's without a kernel) and the host's. This is the
    /// one per-query function behind [`expected_value`](Self::expected_value),
    /// the fabric's tiles and the serve pass, so the operands are built
    /// once per served query and both results come from the same ones.
    pub(crate) fn evaluate(&self, kernel: Option<&mut TileKernel>) -> (u64, u64) {
        let operands = self.operands();
        let expected = match operands {
            QueryOperands::Windows { query, reference } => {
                let mut mask = 0u64;
                for (lane, (q, r)) in query.iter().zip(&reference).enumerate() {
                    mask |= u64::from(q == r) << lane;
                }
                mask
            }
            QueryOperands::Words { a, b } => (a + b) & ((1u64 << (ADD_BITS + 1)) - 1),
        };
        let value = kernel.map_or(expected, |kernel| kernel.value(&operands));
        (value, expected)
    }

    /// True when this query's operands are already resident on its home
    /// tile — a deterministic per-query draw at the interconnect's
    /// locality rate, so movement counts never depend on the executed
    /// tile partition.
    pub fn is_local(&self, grid: &TileGrid) -> bool {
        // Quantize locality to per-mille so the draw is integral.
        let per_mille = (grid.interconnect.locality * 1000.0).round() as u64;
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            % 1000
            < per_mille
    }

    /// Dispatch key for modular tile sharding: a bit-mixed function of
    /// the id. Raw ids would alias the generator's 4-cycle kind rotation
    /// on small grids, locking each tile to one query kind.
    pub fn home_key(&self) -> u64 {
        self.id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
    }

    /// This query's contribution to the checksum: its expected value
    /// keyed by id so transpositions cannot cancel. Wrapping addition of
    /// these contributions is commutative and associative — the fold is
    /// identical under any sharding.
    pub fn checksum_term(&self, value: u64) -> u64 {
        value.wrapping_mul(self.id.wrapping_mul(2).wrapping_add(1))
    }

    /// Counts this query's cost into `counts` — the *only* place query
    /// costs are defined, shared by the per-tile executors and the
    /// per-tenant accounting so the two views conserve by construction:
    ///
    /// * the primitive invocations, on the op's own component;
    /// * one controller broadcast step per microprogram step;
    /// * for a non-resident query ([`is_local`](Self::is_local)),
    ///   `route_hops` interconnect hops per operand word (two words).
    pub fn charge(&self, counts: &mut CountLedger, grid: &TileGrid) {
        Self::charge_kind(counts, grid, self.kind, self.is_local(grid));
    }

    /// The kind-level body of [`charge`](Self::charge): per-query counts
    /// are a pure function of `(kind, locality)`, which is what lets the
    /// serving dispatcher precompute its routing table once per batch
    /// instead of re-pricing every query.
    pub fn charge_kind(counts: &mut CountLedger, grid: &TileGrid, kind: QueryKind, local: bool) {
        let phase = kind.phase();
        let ops = kind.operations();
        let (component, steps) = match kind {
            QueryKind::Lookup | QueryKind::Compare => {
                let cost = cim_arch::CimOp::Comparator.cost(&grid.tech);
                (cost.component, cost.steps)
            }
            QueryKind::Add => {
                let cost = cim_arch::CimOp::TcAdder { bits: ADD_BITS }.cost(&grid.tech);
                (cost.component, cost.steps)
            }
        };
        counts.charge(component, phase, ops);
        counts.charge(Component::Controller, phase, ops * steps);
        if !local {
            counts.charge(Component::Interconnect, phase, 2 * grid.route_hops());
        }
    }

    /// Counts this query's cost when the *host* machine serves it — the
    /// conventional-side twin of [`charge`](Self::charge), and likewise
    /// the only place host query costs are defined (shared by the host
    /// executor and the per-tenant accounting):
    ///
    /// * lookups/compares: one comparator gate op per symbol
    ///   ([`Component::GateDynamic`]) plus **two** operand symbol fetches
    ///   per comparison through the shared cache
    ///   ([`Component::CacheAccess`]) — the reference window is memory
    ///   resident on the host, so it pays the paper's locality-hostile
    ///   access pattern;
    /// * adds: a single register-resident ALU op (gate switching only —
    ///   both addends arrive in the request payload, so no memory
    ///   traffic is charged).
    pub fn charge_host(&self, counts: &mut CountLedger) {
        Self::charge_host_kind(counts, self.kind);
    }

    /// The kind-level body of [`charge_host`](Self::charge_host); host
    /// counts depend on nothing but the kind.
    pub fn charge_host_kind(counts: &mut CountLedger, kind: QueryKind) {
        let phase = kind.phase();
        let ops = kind.operations();
        counts.charge(Component::GateDynamic, phase, ops);
        if kind != QueryKind::Add {
            counts.charge(Component::CacheAccess, phase, 2 * ops);
        }
    }
}

/// A deterministic traffic pattern: `queries` requests from `tenants`
/// tenants, kinds mixed 2:1:1 (lookup-heavy, as DNA serving is).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Total queries.
    pub queries: u64,
    /// Distinct tenants, round-robin over arrivals.
    pub tenants: u32,
    /// Seed for operands and arrival jitter.
    pub seed: u64,
}

impl TrafficSpec {
    /// A small sustained-traffic default: 4 tenants.
    pub fn sustained(queries: u64, seed: u64) -> Self {
        Self {
            queries,
            tenants: 4,
            seed,
        }
    }

    /// Generates the query stream in arrival order.
    pub fn generate(&self) -> Vec<Query> {
        self.stream().collect()
    }

    /// The query stream in arrival order, made one query at a time —
    /// the same queries as [`generate`](Self::generate) without holding
    /// them all. A clone continues from where it was cloned.
    pub(crate) fn stream(&self) -> QueryStream {
        QueryStream {
            rng: StdRng::seed_from_u64(self.seed),
            next: 0,
            spec: *self,
        }
    }

    /// The ground-truth checksum over the whole stream, recomputed with
    /// plain host arithmetic.
    pub fn reference_checksum(&self) -> u64 {
        self.stream().fold(0u64, |acc, q| {
            acc.wrapping_add(q.checksum_term(q.expected_value()))
        })
    }

    /// Total in-array primitive invocations of the stream.
    pub fn operations(&self) -> u64 {
        self.stream().map(|q| q.kind.operations()).sum()
    }
}

/// A [`TrafficSpec`]'s queries in arrival order; see
/// [`TrafficSpec::stream`].
#[derive(Debug, Clone)]
pub(crate) struct QueryStream {
    rng: StdRng,
    next: u64,
    spec: TrafficSpec,
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        if self.next == self.spec.queries {
            return None;
        }
        let id = self.next;
        self.next += 1;
        let kind = match id % 4 {
            0 | 1 => QueryKind::Lookup,
            2 => QueryKind::Compare,
            _ => QueryKind::Add,
        };
        // The tenant comes from the stream RNG, not from `id` — an
        // id-derived rotation would alias the kind cycle and the modular
        // tile sharding, locking each tenant to one query kind and one
        // home tile.
        let tenant = TenantId((self.rng.gen::<u64>() % u64::from(self.spec.tenants.max(1))) as u32);
        Some(Query {
            id,
            tenant,
            kind,
            seed: self.rng.gen::<u64>(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.spec.queries - self.next);
        (left.unwrap_or(usize::MAX), left.ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_deterministic_and_mixed() {
        let spec = TrafficSpec::sustained(100, 7);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.iter().filter(|q| q.kind == QueryKind::Lookup).count(), 50);
        assert_eq!(a.iter().filter(|q| q.kind == QueryKind::Add).count(), 25);
        // Tenants are drawn per query and decorrelated from the kind
        // cycle: every tenant submits every kind.
        for tenant in 0..4u32 {
            for kind in [QueryKind::Lookup, QueryKind::Compare, QueryKind::Add] {
                assert!(
                    a.iter()
                        .any(|q| q.tenant == TenantId(tenant) && q.kind == kind),
                    "tenant-{tenant} never submits {kind}"
                );
            }
        }
    }

    #[test]
    fn expected_values_are_pure_and_plausible() {
        let spec = TrafficSpec::sustained(200, 3);
        for q in spec.generate() {
            assert_eq!(q.expected_value(), q.expected_value());
            match q.kind {
                QueryKind::Lookup => {
                    // Near-identical probe: most lanes match.
                    assert!(q.expected_value().count_ones() >= 16, "sparse lookup mask");
                }
                QueryKind::Compare | QueryKind::Add => {}
            }
        }
    }

    #[test]
    fn locality_draw_matches_the_interconnect_rate() {
        let grid = cim_arch::TileGrid::paper_dna(2, 2);
        let spec = TrafficSpec::sustained(4000, 11);
        let local = spec.generate().iter().filter(|q| q.is_local(&grid)).count();
        // 90% nominal on 4000 draws: allow generous slack.
        assert!((3400..=3800).contains(&local), "local draws {local}");
    }

    #[test]
    fn charges_decompose_by_kind() {
        let grid = cim_arch::TileGrid::paper_dna(1, 1);
        let lookup = Query {
            id: 0,
            tenant: TenantId(0),
            kind: QueryKind::Lookup,
            seed: 1,
        };
        let mut counts = CountLedger::new();
        lookup.charge(&mut counts, &grid);
        assert_eq!(counts.count(Component::ImplyStep, Phase::Index), 32);
        // 16 steps per comparator invocation.
        assert_eq!(counts.count(Component::Controller, Phase::Index), 32 * 16);

        let add = Query {
            kind: QueryKind::Add,
            ..lookup
        };
        let mut counts = CountLedger::new();
        add.charge(&mut counts, &grid);
        assert_eq!(counts.count(Component::CrossbarWrite, Phase::Add), 1);
        // 4N+5 = 133 steps for the 32-bit CRS adder.
        assert_eq!(counts.count(Component::Controller, Phase::Add), 133);
    }

    #[test]
    fn host_charges_decompose_by_kind() {
        let lookup = Query {
            id: 0,
            tenant: TenantId(0),
            kind: QueryKind::Lookup,
            seed: 1,
        };
        let mut counts = CountLedger::new();
        lookup.charge_host(&mut counts);
        // One gate op per symbol, two operand fetches per comparison.
        assert_eq!(counts.count(Component::GateDynamic, Phase::Index), 32);
        assert_eq!(counts.count(Component::CacheAccess, Phase::Index), 64);

        let add = Query {
            kind: QueryKind::Add,
            ..lookup
        };
        let mut counts = CountLedger::new();
        add.charge_host(&mut counts);
        // Register-resident add: gate switching only, no memory traffic.
        assert_eq!(counts.count(Component::GateDynamic, Phase::Add), 1);
        assert_eq!(counts.count(Component::CacheAccess, Phase::Add), 0);
        assert_eq!(counts.total(), 1);
    }

    #[test]
    fn remote_queries_charge_modelled_hop_counts() {
        let grid = cim_arch::TileGrid::paper_dna(2, 2);
        let spec = TrafficSpec::sustained(500, 5);
        let mut remote_seen = false;
        for q in spec.generate() {
            let mut counts = CountLedger::new();
            q.charge(&mut counts, &grid);
            let hops = counts.count(Component::Interconnect, q.kind.phase());
            if q.is_local(&grid) {
                assert_eq!(hops, 0);
            } else {
                remote_seen = true;
                // Two operand words × 15 modelled hops.
                assert_eq!(hops, 30);
            }
        }
        assert!(remote_seen, "no remote query in 500 draws");
    }
}
