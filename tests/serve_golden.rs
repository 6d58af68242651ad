//! Golden serve reports: three pinned front-end set-ups, each served at
//! 1, 2 and 4 executed tiles on 1, 2 and 3 host threads.
//!
//! The pin is an FNV-1a digest of the report's full `Debug` rendering:
//! every field, every histogram bucket, every tenant and tile account
//! with its counts, and every cell of the fabric and host ledgers, with
//! each `f64` in its round-trip form. So a
//! change to how `ServeFrontEnd::serve` schedules or executes its work
//! that moves any bit of the report fails here, whatever the field. The
//! readable headline next to each digest (checksum, batches, admitted,
//! makespan) says roughly what moved. Only the `tiles` field depends on
//! the tile count, so each set-up pins one digest per tile count.

use cim::fabric::{
    DispatchPolicy, FabricExecutor, ServeConfig, ServeFrontEnd, ServeReport, TrafficSpec,
};
use cim::sim::BatchPolicy;
use cim::units::DispatchObjective;

/// One pinned report: its headline values and the digest of all of it.
struct Golden {
    checksum: u64,
    batches: u64,
    admitted: u64,
    makespan_bits: u64,
    /// Per executed tile count 1, 2, 4.
    digests: [u64; 3],
}

const TILES: [u32; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 3];

fn traffic() -> TrafficSpec {
    TrafficSpec::sustained(5_000, 2015)
}

/// The queue and quota bind at this arrival rate: 8 queued queries, 2
/// per tenant, batches of at most 4, arrivals every 500 ps on average.
fn tight() -> ServeConfig {
    ServeConfig {
        queue_depth: 8,
        tenant_quota: 3,
        max_batch: 4,
        mean_gap_ps: 500,
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn serve(policy: &DispatchPolicy, config: ServeConfig, tiles: u32, threads: usize) -> ServeReport {
    ServeFrontEnd {
        fabric: FabricExecutor::paper(1, tiles, BatchPolicy::with_threads(threads)),
        config,
        policy: policy.clone(),
    }
    .serve(&traffic())
    .expect("serves")
}

fn check(name: &str, policy: &DispatchPolicy, config: ServeConfig, golden: &Golden) {
    for (&tiles, &digest) in TILES.iter().zip(&golden.digests) {
        for threads in THREADS {
            let report = serve(policy, config, tiles, threads);
            let at = format!("{name} at {tiles} tiles x {threads} threads");
            assert!(report.conserves(), "{at}: does not conserve");
            assert_eq!(
                (
                    report.checksum,
                    report.batches,
                    report.admitted,
                    report.makespan.get().to_bits()
                ),
                (
                    golden.checksum,
                    golden.batches,
                    golden.admitted,
                    golden.makespan_bits
                ),
                "{at}: headline (checksum, batches, admitted, makespan bits)"
            );
            assert_eq!(fnv1a(&format!("{report:?}")), digest, "{at}: report digest");
        }
    }
}

#[test]
fn hybrid_energy_report_is_pinned() {
    check(
        "hybrid(Energy)",
        &DispatchPolicy::hybrid(DispatchObjective::Energy),
        ServeConfig::sustained(),
        &Golden {
            checksum: 81_143_093_336_108_361,
            batches: 3201,
            admitted: 5000,
            makespan_bits: 4_532_092_343_511_417_603,
            digests: [
                0xa29a_9c07_156a_2f36,
                0xaf5d_e2ec_1190_7490,
                0x16e9_506e_47ee_5491,
            ],
        },
    );
}

#[test]
fn split_hybrid_report_is_pinned() {
    check(
        "split_hybrid(Makespan)",
        &DispatchPolicy::split_hybrid(DispatchObjective::Makespan),
        ServeConfig::sustained(),
        &Golden {
            checksum: 81_143_093_336_108_361,
            batches: 372,
            admitted: 5000,
            makespan_bits: 4_532_116_731_582_822_573,
            digests: [
                0xb1bf_cb63_d00c_856f,
                0xb07e_349e_af1d_ab1d,
                0x6ab4_35da_0e60_ba34,
            ],
        },
    );
}

#[test]
fn rejecting_report_is_pinned() {
    let report = serve(
        &DispatchPolicy::hybrid(DispatchObjective::Energy),
        tight(),
        1,
        1,
    );
    assert!(
        report.rejected_queue_full > 0 && report.rejected_quota > 0,
        "the tight set-up must reject through both gates"
    );
    check(
        "tight hybrid(Energy)",
        &DispatchPolicy::hybrid(DispatchObjective::Energy),
        tight(),
        &Golden {
            checksum: 45_039_789_790_523_017,
            batches: 699,
            admitted: 2790,
            makespan_bits: 4_523_058_360_174_577_395,
            digests: [
                0x62a1_4f23_7c92_9abe,
                0xbee1_2075_b8fc_b46c,
                0x824a_589c_1bd4_ebc9,
            ],
        },
    );
}
