//! Regenerates the design space behind **Fig. 3**: sneak paths in the
//! passive crossbar and the three mitigation classes (junction options ×
//! bias schemes), as read-margin-vs-size curves.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin fig3_sneak
//! cargo run --release -p cim-bench --bin fig3_sneak -- --bias-sweep
//! cargo run --release -p cim-bench --bin fig3_sneak -- --threads 4
//! ```
//!
//! `--threads N` runs the independent bias × junction studies over N
//! workers (0 = all cores), each study's solves on one thread; the
//! output is printed and written in the serial order afterwards, so it
//! is bit-identical at any setting.
//!
//! Every point must come from converged solves. If a solve ran out of
//! its sweep budget, the binary names the first such point in that
//! order and exits 1 without writing the CSV.

use cim_bench::{write_csv, Args};
use cim_crossbar::{
    max_readable_size, read_margin_study, BiasScheme, CrsCell, JunctionKind, MarginPoint,
    ResistiveCell, SelectorCell, TransistorCell, WorstCasePattern,
};
use cim_device::DeviceParams;
use cim_sim::{par_units, BatchPolicy};

const SIZES: [usize; 5] = [4, 8, 16, 32, 64];

const JUNCTIONS: [JunctionKind; 4] = [
    JunctionKind::OneR,
    JunctionKind::OneS1R,
    JunctionKind::OneT1R,
    JunctionKind::Crs,
];

/// The all-ones worst-case margin study of one junction under `bias`.
fn study(junction: JunctionKind, bias: BiasScheme, p: &DeviceParams) -> Vec<MarginPoint> {
    let pattern = WorstCasePattern::AllOnes;
    match junction {
        JunctionKind::OneR => {
            read_margin_study(|_, _| ResistiveCell::new(p.clone()), &SIZES, bias, pattern)
        }
        JunctionKind::OneS1R => read_margin_study(
            |_, _| SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5),
            &SIZES,
            bias,
            pattern,
        ),
        JunctionKind::OneT1R => {
            read_margin_study(|_, _| TransistorCell::new(p.clone()), &SIZES, bias, pattern)
        }
        JunctionKind::Crs => {
            read_margin_study(|_, _| CrsCell::new(p.clone()), &SIZES, bias, pattern)
        }
    }
}

fn main() {
    let args = Args::capture_strict(&["--bias-sweep"], &["--threads"]);
    let policy = BatchPolicy::with_threads(args.numeric("--threads", 1));
    let p = DeviceParams::table1_cim();
    let mut csv = String::from("junction,bias,n,i_one_a,i_zero_a,margin\n");

    let biases: &[BiasScheme] = if args.has("--bias-sweep") {
        &[BiasScheme::Floating, BiasScheme::HalfV, BiasScheme::ThirdV]
    } else {
        &[BiasScheme::HalfV]
    };
    let studies = par_units(policy, biases.len() * JUNCTIONS.len(), |unit| {
        let (bias, junction) = (unit / JUNCTIONS.len(), unit % JUNCTIONS.len());
        study(JUNCTIONS[junction], biases[bias], &p)
    });

    println!("== Fig. 3: junction options vs sneak paths ==");
    for (&bias, studies) in biases.iter().zip(studies.chunks_exact(JUNCTIONS.len())) {
        println!("\n-- bias scheme: {bias} --");
        println!(
            "{:<10} {:>4} {:>12} {:>12} {:>10}",
            "junction", "n", "I(1)", "I(0)", "margin"
        );
        for (junction, points) in JUNCTIONS.iter().zip(studies) {
            let name = junction.to_string();
            if let Some(pt) = points.iter().find(|pt| !pt.converged) {
                eprintln!(
                    "error: {name} under {bias} at n = {} did not converge \
                     (residual {:e} after the sweep budget)",
                    pt.n, pt.residual
                );
                std::process::exit(1);
            }
            for pt in points {
                println!(
                    "{name:<10} {:>4} {:>12} {:>12} {:>10.4}",
                    pt.n,
                    pt.i_one.to_string(),
                    pt.i_zero.to_string(),
                    pt.margin
                );
                csv.push_str(&format!(
                    "{name},{bias},{},{:e},{:e},{}\n",
                    pt.n,
                    pt.i_one.get(),
                    pt.i_zero.get(),
                    pt.margin
                ));
            }
            if *junction == JunctionKind::Crs {
                println!("{name:<10}   (CRS senses differentially: I(0) ≫ I(1) is the signal)");
            } else {
                match max_readable_size(points, 0.1) {
                    Some(n) => println!("{name:<10}   readable (margin ≥ 0.1) up to n = {n}"),
                    None => println!("{name:<10}   never readable at these sizes"),
                }
            }
        }
    }
    write_csv("fig3_sneak.csv", &csv);
}
