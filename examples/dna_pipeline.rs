//! The healthcare experiment end-to-end: genome → sorted index → read
//! mapping → cache measurement → Table-2 projection.
//!
//! ```bash
//! cargo run --release --example dna_pipeline
//! ```
//!
//! Reproduces the paper's Section III.B.1 story at laptop scale: the
//! sorted-index mapper *actually runs*, its memory trace is replayed
//! through the 8 kB cluster cache, and the measured hit ratio is compared
//! against Table 1's 50% assumption before projecting to the 3 GB /
//! 6×10⁹-comparison paper scale.

use cim::prelude::*;
use cim::sim::ConventionalExecutor;
use cim::workloads::SortedKmerIndex;

fn main() {
    let spec = DnaSpec {
        ref_len: 300_000,
        coverage: 5,
        read_len: 100,
    };
    println!("=== scaled DNA run: {spec:?}");
    println!(
        "paper scale:  {} reads, {} comparisons, {} bytes of input",
        DnaSpec::paper().short_reads(),
        DnaSpec::paper().comparisons(),
        DnaSpec::paper().data_volume_bytes()
    );

    // Demonstrate the index structure itself.
    let genome = Genome::generate(spec.ref_len as usize, 42);
    let index = SortedKmerIndex::build(&genome, 16);
    println!(
        "\nsorted index: {} k-mers of length {} over a {}-character reference",
        index.len(),
        index.seed_len(),
        genome.len()
    );
    println!("reference head: {}…", genome.to_string_window(0, 60));

    // Run the full pipeline on the conventional backend.
    let workload = DnaWorkload { spec, seed: 42 };
    let run = ConventionalExecutor::new()
        .run(&workload)
        .expect("scaled spec executes");
    println!(
        "\nmapper: {}/{} reads recovered their true position",
        run.digest.items_verified, run.digest.items_total
    );
    println!(
        "cache:  measured hit ratio {:.3} overall, {:.3} on index probes \
         (Table 1 assumes 0.50)",
        run.measured_hit_ratio.unwrap_or(f64::NAN),
        run.index_hit_ratio.unwrap_or(f64::NAN)
    );
    println!(
        "scaled run: {} comparisons in {} using {}",
        run.digest.operations,
        run.ledger.total_time(),
        run.ledger.total_energy()
    );

    // Hierarchy sensitivity: what an L2 between the 8 kB cluster cache
    // and DRAM would change (the paper's model is flat).
    use cim::sim::MemoryHierarchy;
    let mut flat = MemoryHierarchy::table1_flat();
    let (flat_cycles, flat_dram, _) =
        ConventionalExecutor::new().measure_hierarchy(spec, 42, &mut flat);
    let mut deep = MemoryHierarchy::table1_with_l2();
    let (deep_cycles, deep_dram, level_hits) =
        ConventionalExecutor::new().measure_hierarchy(spec, 42, &mut deep);
    println!(
        "\nhierarchy: flat {flat_cycles:.1} cy/access ({:.0}% DRAM) vs \
         +L2 {deep_cycles:.1} cy/access ({:.0}% DRAM; L1 {:.2}, L2 {:.2} hits)",
        100.0 * flat_dram,
        100.0 * deep_dram,
        level_hits[0],
        level_hits[1]
    );

    // Project to paper scale with both hit-ratio sources.
    for mode in [HitRatioMode::PaperAssumption, HitRatioMode::Measured] {
        let report = Experiment::new(workload)
            .with_hit_ratio_mode(mode)
            .run()
            .expect("scaled DNA experiment executes");
        println!("\n--- projection with {mode:?} ---");
        println!("{}", report.to_markdown());
    }
}
