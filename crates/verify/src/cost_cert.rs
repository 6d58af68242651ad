//! Compile-time cost certification.
//!
//! PR 2 made the runtime conserve cost: every joule/picosecond a run
//! charges lands in exactly one [`CostLedger`] cell. This module turns
//! that into a *compile-time contract*: a [`CostCertificate`] derives the
//! broadcast cost law — latency = pulse × steps, energy = write-energy ×
//! steps × rows — in closed form from the program text alone, and the
//! test suite asserts the dynamic engine's ledger equals the certificate
//! **bit for bit** (same `f64`s, not approximately). The arithmetic here
//! deliberately mirrors the engine's expression shapes and accumulation
//! order, because IEEE-754 addition is not associative.

use serde::{Deserialize, Serialize};

use cim_arch::TileCoord;
use cim_compiler::CompiledPlan;
use cim_device::DeviceParams;
use cim_logic::{ImplyParams, LogicCost, Program};
use cim_units::{Component, CostLedger, CountLedger, Energy, Phase, ScaleTable, Time, UnitCosts};

use crate::diagnostics::{Diagnostic, Report};

/// Closed-form cost bound of one program under the row-broadcast model,
/// matching `cim_logic::RowParallelEngine`'s bit-sliced accounting bit
/// for bit. The cost law prices broadcast steps and rows, not host
/// instructions, so one certificate covers any row count, whether it
/// fills whole 64-lane passes or leaves a ragged tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostCertificate {
    /// Broadcast steps of one execution (= program length).
    pub steps: u64,
    /// Devices occupied: one register file per row.
    pub devices: usize,
    /// Rows executing in lock-step.
    pub rows: usize,
    /// Step pulse duration (from [`ImplyParams::for_device`]).
    pub pulse: Time,
    /// Nominal energy of one device write.
    pub write_energy: Energy,
}

impl CostCertificate {
    /// Certifies `program` broadcast across `rows` rows of `device`s.
    pub fn broadcast(program: &Program, device: &DeviceParams, rows: usize) -> Self {
        let params = ImplyParams::for_device(device);
        Self {
            steps: program.len() as u64,
            devices: program.registers * rows,
            rows,
            pulse: params.pulse,
            write_energy: device.write_energy,
        }
    }

    /// The certified cost after `runs` consecutive executions.
    ///
    /// Replicates the dynamic accounting exactly: the engine adds one
    /// energy increment per `run` call (so the energy is a *loop* of
    /// `f64` additions, reproduced here term by term) and computes
    /// latency once from the accumulated step counter.
    pub fn after_runs(&self, runs: u64) -> LogicCost {
        let increment = self.write_energy * (self.steps as usize * self.rows) as f64;
        let mut energy = Energy::ZERO;
        for _ in 0..runs {
            energy += increment;
        }
        let steps = self.steps * runs;
        LogicCost {
            steps,
            devices: self.devices,
            latency: self.pulse * steps as f64,
            energy,
            component: Component::ImplyStep,
        }
    }

    /// The certified cost of a single execution.
    pub fn to_cost(&self) -> LogicCost {
        self.after_runs(1)
    }

    /// The ledger a run charging this block `invocations` times under
    /// `phase` must produce (via [`LogicCost::charge`]).
    pub fn ledger(&self, phase: Phase, invocations: u64) -> CostLedger {
        let mut ledger = CostLedger::new();
        self.to_cost().charge(&mut ledger, phase, invocations);
        ledger
    }

    /// Checks a claimed cost against the certificate, reporting every
    /// field that disagrees. Equality is exact — a bound that drifts by
    /// one ULP is a broken conservation law, not a rounding error.
    pub fn check_claim(&self, name: &str, claim: &LogicCost) -> Report {
        let mut report = Report::new(name);
        let actual = self.to_cost();
        let mut mismatch = |field: &str, claimed: String, certified: String| {
            report.push(Diagnostic::error(
                "cost-claim-mismatch",
                format!("claimed {field} {claimed} but the certificate derives {certified}"),
            ));
        };
        if claim.steps != actual.steps {
            mismatch("steps", claim.steps.to_string(), actual.steps.to_string());
        }
        if claim.devices != actual.devices {
            mismatch(
                "devices",
                claim.devices.to_string(),
                actual.devices.to_string(),
            );
        }
        if claim.latency != actual.latency {
            mismatch(
                "latency",
                claim.latency.to_string(),
                actual.latency.to_string(),
            );
        }
        if claim.energy != actual.energy {
            mismatch(
                "energy",
                claim.energy.to_string(),
                actual.energy.to_string(),
            );
        }
        report
    }
}

/// Re-derives a [`CompiledPlan`]'s roll-up totals from its per-node
/// placements — in the mapper's canonical accumulation order — and
/// reports any disagreement with the stored `total`.
///
/// This is the conservation law for the tensor-IR path: a plan whose
/// totals cannot be reproduced from its own placements (hand-edited,
/// mis-merged, or produced by a future mapper change that forgets a
/// term) is rejected before anything is costed against it.
pub fn certify_plan(name: &str, plan: &CompiledPlan) -> Report {
    let mut report = Report::new(name);
    let mut total = LogicCost::default();
    let mut level = usize::MAX;
    let mut level_latency = Time::ZERO;
    for p in &plan.placed {
        if p.level != level {
            total.latency += level_latency;
            level_latency = Time::ZERO;
            level = p.level;
        }
        level_latency = level_latency.max(p.cost.latency);
        total.energy += p.cost.energy;
        total.steps += p.cost.steps;
        total.devices = total.devices.max(p.cost.devices);
    }
    total.latency += level_latency;
    if total.steps != plan.total.steps {
        report.push(Diagnostic::error(
            "plan-total-mismatch",
            format!(
                "plan total claims {} steps; its placements sum to {}",
                plan.total.steps, total.steps
            ),
        ));
    }
    if total.energy != plan.total.energy {
        report.push(Diagnostic::error(
            "plan-total-mismatch",
            format!(
                "plan total claims {}; its placements sum to {}",
                plan.total.energy, total.energy
            ),
        ));
    }
    if total.latency != plan.total.latency {
        report.push(Diagnostic::error(
            "plan-total-mismatch",
            format!(
                "plan total claims {} latency; its levels sum to {}",
                plan.total.latency, total.latency
            ),
        ));
    }
    if total.devices != plan.total.devices {
        report.push(Diagnostic::error(
            "plan-total-mismatch",
            format!(
                "plan total claims {} devices; its placements peak at {}",
                plan.total.devices, total.devices
            ),
        ));
    }
    report
}

/// What one fabric tile claims it cost: its exact op counts and the
/// priced ledger derived from them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileClaim {
    /// The tile.
    pub tile: TileCoord,
    /// Exact op counts the tile accumulated.
    pub counts: CountLedger,
    /// The ledger the tile reports (`prices.evaluate(counts)` if honest).
    pub ledger: CostLedger,
}

/// Certifies a fabric run's per-tile accounting against the price table.
///
/// Three conservation laws, all checked **bit for bit** (the fabric's
/// dyadic unit prices make exact equality the contract, not a hope):
///
/// 1. every tile's ledger equals `prices.evaluate(counts)` re-derived
///    from its own counts (`tile-ledger-mismatch`, anchored to the tile);
/// 2. the tile counts merge to the fabric counts
///    (`count-conservation`);
/// 3. the tile ledgers sum to the fabric ledger, which itself equals
///    `prices.evaluate(fabric_counts)` (`ledger-conservation`).
pub fn certify_tiles(
    name: &str,
    prices: &UnitCosts,
    tiles: &[TileClaim],
    fabric_counts: &CountLedger,
    fabric_ledger: &CostLedger,
) -> Report {
    let mut report = Report::new(name);
    let mut merged_counts = CountLedger::new();
    let mut summed_ledgers = CostLedger::new();
    for claim in tiles {
        let derived = prices.evaluate(&claim.counts);
        if derived != claim.ledger {
            report.push(
                Diagnostic::error(
                    "tile-ledger-mismatch",
                    format!(
                        "tile {} reports a ledger its own counts do not reproduce \
                         (claimed {} total energy, certificate derives {})",
                        claim.tile,
                        claim.ledger.total_energy(),
                        derived.total_energy()
                    ),
                )
                .at_tile(claim.tile.row, claim.tile.col),
            );
        }
        merged_counts.merge(&claim.counts);
        summed_ledgers.merge(&claim.ledger);
    }
    if &merged_counts != fabric_counts {
        report.push(Diagnostic::error(
            "count-conservation",
            format!(
                "tile counts merge to {} ops but the fabric claims {}",
                merged_counts.total(),
                fabric_counts.total()
            ),
        ));
    }
    if &summed_ledgers != fabric_ledger {
        report.push(Diagnostic::error(
            "ledger-conservation",
            format!(
                "tile ledgers sum to {} total energy but the fabric ledger holds {}",
                summed_ledgers.total_energy(),
                fabric_ledger.total_energy()
            ),
        ));
    }
    if &prices.evaluate(fabric_counts) != fabric_ledger {
        report.push(Diagnostic::error(
            "ledger-conservation",
            format!(
                "the fabric ledger is not the priced evaluation of the fabric counts \
                 ({} total ops)",
                fabric_counts.total()
            ),
        ));
    }
    report
}

/// What one dispatch decision claims it was based on: the exact counts
/// the estimate predicted, the base (uncalibrated) price table, the
/// calibration scales in force, and the predicted ledger the route was
/// scored from.
///
/// Expressed entirely in `cim-units` currency so the verifier needs no
/// executor: an honest claim's ledger is *re-derivable bit for bit* as
/// `scales.rescale(&base_prices).evaluate(&counts)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchClaim {
    /// The machine the claim prices (`"cim"` / `"conventional"` /
    /// `"cim-fabric"` / `"host"`).
    pub machine: String,
    /// Exact predicted primitive-operation counts.
    pub counts: CountLedger,
    /// The machine's base dyadic price table.
    pub base_prices: UnitCosts,
    /// Calibration scale factors applied to the base prices.
    pub scales: ScaleTable,
    /// The predicted ledger the dispatch decision was scored from.
    pub ledger: CostLedger,
}

/// Certifies a dispatch claim: re-derives the calibrated prediction —
/// `scales.rescale(&base_prices).evaluate(&counts)` — and compares it
/// to the claimed ledger **bit for bit**, anchoring every disagreeing
/// cell (`dispatch-claim-mismatch`, with the component/phase labels).
///
/// Rescaling and evaluation both stay in dyadic count-space, so exact
/// equality is the contract: a claim that drifts by one ULP was not
/// produced by the certified pipeline (a miscalibrated or hand-edited
/// dispatch decision), and must not steer work between the machines.
pub fn certify_dispatch(name: &str, claim: &DispatchClaim) -> Report {
    let mut report = Report::new(name);
    let derived = claim
        .scales
        .rescale(&claim.base_prices)
        .evaluate(&claim.counts);
    for component in Component::ALL {
        for phase in Phase::ALL {
            let expected = derived.entry(component, phase);
            let claimed = claim.ledger.entry(component, phase);
            if expected != claimed {
                report.push(
                    Diagnostic::error(
                        "dispatch-claim-mismatch",
                        format!(
                            "{} claims {} / {} in this cell but the calibrated \
                             certificate derives {} / {}",
                            claim.machine,
                            claimed.energy,
                            claimed.time,
                            expected.energy,
                            expected.time
                        ),
                    )
                    .at_cell(component.label(), phase.label()),
                );
            }
        }
    }
    report
}

/// What one *split* dispatch decision claims: the unit partition between
/// the machines, one [`DispatchClaim`] per shard, and the combined
/// ledger the split run reports (the CIM-first merge of the two sides,
/// if honest).
///
/// Like [`DispatchClaim`] this is expressed entirely in `cim-units`
/// currency: every field is re-derivable bit for bit without running
/// either machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitClaim {
    /// Total workload units the plan partitioned.
    pub units: u64,
    /// Units assigned to the CIM shard.
    pub cim_units: u64,
    /// Units assigned to the host shard.
    pub host_units: u64,
    /// The CIM shard's dispatch claim.
    pub cim: DispatchClaim,
    /// The host shard's dispatch claim.
    pub host: DispatchClaim,
    /// The combined ledger the split run reports (CIM merged first).
    pub combined: CostLedger,
}

/// Certifies a split-dispatch claim cell-bitwise:
///
/// 1. the unit partition conserves — `cim_units + host_units == units`
///    (`split-unit-conservation`);
/// 2. each side's ledger re-derives from its own counts × rescaled
///    prices, every disagreeing cell anchored (`split-claim-mismatch`);
/// 3. the combined ledger equals the CIM-first merge of the two side
///    ledgers, cell by cell (`split-ledger-conservation`).
///
/// All equalities are exact: the dyadic price tables and count-space
/// evaluation make bit-for-bit reproduction the contract, so a claim
/// off by one ULP was not produced by the certified split pipeline.
pub fn certify_split(name: &str, claim: &SplitClaim) -> Report {
    let mut report = Report::new(name);
    if claim
        .cim_units
        .checked_add(claim.host_units)
        .is_none_or(|sum| sum != claim.units)
    {
        report.push(Diagnostic::error(
            "split-unit-conservation",
            format!(
                "the plan claims {} units but the shards hold {} (cim) + {} (host)",
                claim.units, claim.cim_units, claim.host_units
            ),
        ));
    }
    for (side, side_claim) in [("cim shard", &claim.cim), ("host shard", &claim.host)] {
        let derived = side_claim
            .scales
            .rescale(&side_claim.base_prices)
            .evaluate(&side_claim.counts);
        for component in Component::ALL {
            for phase in Phase::ALL {
                let expected = derived.entry(component, phase);
                let claimed = side_claim.ledger.entry(component, phase);
                if expected != claimed {
                    report.push(
                        Diagnostic::error(
                            "split-claim-mismatch",
                            format!(
                                "the {side} ({}) claims {} / {} in this cell but its own \
                                 counts and calibrated prices derive {} / {}",
                                side_claim.machine,
                                claimed.energy,
                                claimed.time,
                                expected.energy,
                                expected.time
                            ),
                        )
                        .at_cell(component.label(), phase.label()),
                    );
                }
            }
        }
    }
    let mut merged = claim.cim.ledger.clone();
    merged.merge(&claim.host.ledger);
    for component in Component::ALL {
        for phase in Phase::ALL {
            let expected = merged.entry(component, phase);
            let claimed = claim.combined.entry(component, phase);
            if expected != claimed {
                report.push(
                    Diagnostic::error(
                        "split-ledger-conservation",
                        format!(
                            "the combined ledger claims {} / {} in this cell but the \
                             shard ledgers merge to {} / {}",
                            claimed.energy, claimed.time, expected.energy, expected.time
                        ),
                    )
                    .at_cell(component.label(), phase.label()),
                );
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_compiler::{queries, Mapper};
    use cim_logic::{Comparator, RowParallelEngine};

    #[test]
    fn certificate_matches_dynamic_engine_bit_for_bit() {
        let cmp = Comparator::new();
        let program = cmp.eq_program();
        let device = DeviceParams::table1_cim();
        for rows in [1usize, 2, 64, 100, 700] {
            let cert = CostCertificate::broadcast(program, &device, rows);
            let mut engine = RowParallelEngine::for_program_bitsliced(program, rows);
            let inputs = vec![vec![true, false, true, false]; rows];
            let _ = engine.run(program, &inputs);
            assert_eq!(cert.to_cost(), engine.cost(), "{rows} rows");
            // Multiple runs follow the same accumulation law.
            let _ = engine.run(program, &inputs);
            let _ = engine.run(program, &inputs);
            assert_eq!(cert.after_runs(3), engine.cost(), "{rows} rows x3");
        }
    }

    #[test]
    fn certificate_ledger_matches_charged_ledger() {
        let cmp = Comparator::new();
        let device = DeviceParams::table1_cim();
        let cert = CostCertificate::broadcast(cmp.eq_program(), &device, 64);
        let mut dynamic = CostLedger::new();
        cert.to_cost().charge(&mut dynamic, Phase::Map, 1000);
        assert_eq!(cert.ledger(Phase::Map, 1000), dynamic);
    }

    #[test]
    fn claim_checking_names_the_field() {
        let cmp = Comparator::new();
        let device = DeviceParams::table1_cim();
        let cert = CostCertificate::broadcast(cmp.eq_program(), &device, 1);
        let good = cert.to_cost();
        assert!(cert.check_claim("cmp", &good).is_clean());
        let mut bad = good;
        bad.steps = 10;
        let report = cert.check_claim("cmp", &bad);
        assert!(report.has_code("cost-claim-mismatch"));
        assert!(report.to_string().contains("steps"), "{report}");
    }

    #[test]
    fn tile_certification_holds_bitwise_and_catches_tampering() {
        // A hand-built two-tile fabric: prices with awkward mantissas
        // (dyadically quantized by `set`), uneven per-tile counts.
        let mut prices = UnitCosts::new();
        prices.set(
            Component::ImplyStep,
            Phase::Map,
            Energy::new(45e-15),
            Time::from_pico_seconds(3.7),
        );
        prices.set(
            Component::Interconnect,
            Phase::Index,
            Energy::new(50e-15),
            Time::from_pico_seconds(0.3),
        );
        let mut tiles = Vec::new();
        let mut fabric_counts = CountLedger::new();
        for (i, (steps, hops)) in [(12_345u64, 67u64), (891u64, 2_222u64)].iter().enumerate() {
            let mut counts = CountLedger::new();
            counts.charge(Component::ImplyStep, Phase::Map, *steps);
            counts.charge(Component::Interconnect, Phase::Index, *hops);
            fabric_counts.merge(&counts);
            tiles.push(TileClaim {
                tile: TileCoord {
                    row: 0,
                    col: i as u32,
                },
                ledger: prices.evaluate(&counts),
                counts,
            });
        }
        let fabric_ledger = prices.evaluate(&fabric_counts);
        assert!(
            certify_tiles("fabric", &prices, &tiles, &fabric_counts, &fabric_ledger).is_clean()
        );

        // Tamper with one tile's ledger by one count's worth of energy:
        // caught, and anchored to that tile.
        let mut tampered = tiles.clone();
        tampered[1].ledger = prices.evaluate(&{
            let mut c = tampered[1].counts.clone();
            c.charge(Component::ImplyStep, Phase::Map, 1);
            c
        });
        let report = certify_tiles("fabric", &prices, &tampered, &fabric_counts, &fabric_ledger);
        assert!(report.has_code("tile-ledger-mismatch"), "{report}");
        assert!(report.has_code("ledger-conservation"), "{report}");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "tile-ledger-mismatch")
            .expect("present");
        assert_eq!(d.tile, Some((0, 1)));

        // Drop a tile: counts no longer conserve.
        let report = certify_tiles(
            "fabric",
            &prices,
            &tiles[..1],
            &fabric_counts,
            &fabric_ledger,
        );
        assert!(report.has_code("count-conservation"), "{report}");
    }

    #[test]
    fn dispatch_claims_certify_bitwise_and_catch_miscalibration() {
        let mut counts = CountLedger::new();
        counts.charge(Component::ImplyStep, Phase::Map, 4_096);
        counts.charge(Component::Controller, Phase::Map, 4_096);
        let mut base_prices = UnitCosts::new();
        base_prices.set(
            Component::ImplyStep,
            Phase::Map,
            Energy::new(45e-15),
            Time::from_pico_seconds(3.7),
        );
        base_prices.set(
            Component::Controller,
            Phase::Map,
            Energy::new(4.9e-15),
            Time::ZERO,
        );
        let mut scales = ScaleTable::identity();
        scales.set(Component::ImplyStep, Phase::Map, 1.19, 0.93);
        let honest = DispatchClaim {
            machine: "cim".into(),
            ledger: scales.rescale(&base_prices).evaluate(&counts),
            counts,
            base_prices,
            scales,
        };
        assert!(certify_dispatch("dispatch", &honest).is_clean());

        // A claim priced with *identity* scales while claiming the
        // calibrated ones — a miscalibrated dispatch decision — is
        // caught and anchored to the rescaled cell.
        let mut forged = honest.clone();
        forged.ledger = forged.base_prices.evaluate(&forged.counts);
        let report = certify_dispatch("dispatch", &forged);
        assert!(report.has_code("dispatch-claim-mismatch"), "{report}");
        let d = &report.diagnostics[0];
        assert_eq!(d.component, Some("imply_step"));
        assert_eq!(d.phase, Some("map"));
        // The controller cell was not rescaled, so it still agrees.
        assert_eq!(report.errors(), 1);
    }

    fn split_claim_fixture() -> SplitClaim {
        let mut cim_counts = CountLedger::new();
        cim_counts.charge(Component::CrossbarWrite, Phase::Add, 1_024);
        cim_counts.charge(Component::Controller, Phase::Add, 1_024);
        let mut cim_prices = UnitCosts::new();
        cim_prices.set(
            Component::CrossbarWrite,
            Phase::Add,
            Energy::new(93.5e-15),
            Time::from_pico_seconds(9.3),
        );
        cim_prices.set(
            Component::Controller,
            Phase::Add,
            Energy::new(4.9e-15),
            Time::ZERO,
        );
        let mut host_counts = CountLedger::new();
        host_counts.charge(Component::GateDynamic, Phase::Add, 3_072);
        let mut host_prices = UnitCosts::new();
        host_prices.set(
            Component::GateDynamic,
            Phase::Add,
            Energy::new(0.33e-12),
            Time::from_pico_seconds(5.28),
        );
        let mut scales = ScaleTable::identity();
        scales.set(Component::CrossbarWrite, Phase::Add, 1.19, 0.93);
        let cim = DispatchClaim {
            machine: "cim".into(),
            ledger: scales.rescale(&cim_prices).evaluate(&cim_counts),
            counts: cim_counts,
            base_prices: cim_prices,
            scales,
        };
        let host_scales = ScaleTable::identity();
        let host = DispatchClaim {
            machine: "conventional".into(),
            ledger: host_scales.rescale(&host_prices).evaluate(&host_counts),
            counts: host_counts,
            base_prices: host_prices,
            scales: host_scales,
        };
        let mut combined = cim.ledger.clone();
        combined.merge(&host.ledger);
        SplitClaim {
            units: 4_096,
            cim_units: 1_024,
            host_units: 3_072,
            cim,
            host,
            combined,
        }
    }

    #[test]
    fn split_claims_certify_bitwise_and_catch_each_tampering_axis() {
        let honest = split_claim_fixture();
        assert!(certify_split("split", &honest).is_clean());

        // Units that do not partition are caught.
        let mut lossy = honest.clone();
        lossy.host_units -= 1;
        let report = certify_split("split", &lossy);
        assert!(report.has_code("split-unit-conservation"), "{report}");

        // A side ledger its own counts do not reproduce is caught and
        // anchored to the exact cell.
        let mut forged = honest.clone();
        forged.cim.ledger = forged.cim.base_prices.evaluate(&forged.cim.counts);
        let report = certify_split("split", &forged);
        assert!(report.has_code("split-claim-mismatch"), "{report}");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "split-claim-mismatch")
            .expect("present");
        assert_eq!(
            (d.component, d.phase),
            (Some("crossbar_write"), Some("add"))
        );
        // Forging one side also breaks the combined merge.
        assert!(report.has_code("split-ledger-conservation"), "{report}");

        // A combined ledger that is not the merge of its shards is
        // caught even when both sides are internally honest.
        let mut skimmed = honest;
        skimmed.combined = skimmed.cim.ledger.clone();
        let report = certify_split("split", &skimmed);
        assert!(report.has_code("split-ledger-conservation"), "{report}");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "split-ledger-conservation")
            .expect("present");
        assert_eq!((d.component, d.phase), (Some("gate_dynamic"), Some("add")));
        assert!(!report.has_code("split-claim-mismatch"), "{report}");
    }

    #[test]
    fn compiled_plans_conserve_their_totals() {
        let graph = queries::select_count_eq(8, 64, 17);
        let plan = Mapper::paper_tile().compile(&graph);
        assert!(certify_plan("count-eq", &plan).is_clean());
        // Corrupt the roll-up: the certificate notices.
        let mut broken = plan;
        broken.total.steps += 1;
        assert!(certify_plan("count-eq", &broken).has_code("plan-total-mismatch"));
    }
}
