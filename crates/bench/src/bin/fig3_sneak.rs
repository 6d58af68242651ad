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
//! `--threads N` fans the solver's line relaxation over N workers
//! (0 = all cores); the results are bit-identical at any setting.

use cim_bench::{write_csv, Args};
use cim_crossbar::{
    max_readable_size, read_margin_study_threaded, BiasScheme, CrsCell, ResistiveCell,
    SelectorCell, TransistorCell, WorstCasePattern,
};
use cim_device::DeviceParams;

const SIZES: [usize; 5] = [4, 8, 16, 32, 64];

fn main() {
    let args = Args::capture_strict(&["--bias-sweep"], &["--threads"]);
    let threads = args.numeric("--threads", 1);
    let p = DeviceParams::table1_cim();
    let mut csv = String::from("junction,bias,n,i_one_a,i_zero_a,margin\n");

    let biases: &[BiasScheme] = if args.has("--bias-sweep") {
        &[BiasScheme::Floating, BiasScheme::HalfV, BiasScheme::ThirdV]
    } else {
        &[BiasScheme::HalfV]
    };

    println!("== Fig. 3: junction options vs sneak paths ==");
    for &bias in biases {
        println!("\n-- bias scheme: {bias} --");
        println!(
            "{:<10} {:>4} {:>12} {:>12} {:>10}",
            "junction", "n", "I(1)", "I(0)", "margin"
        );
        let studies: Vec<(&str, Vec<cim_crossbar::MarginPoint>)> = vec![
            (
                "1R",
                read_margin_study_threaded(
                    |_, _| ResistiveCell::new(p.clone()),
                    &SIZES,
                    bias,
                    WorstCasePattern::AllOnes,
                    threads,
                ),
            ),
            (
                "1S1R",
                read_margin_study_threaded(
                    |_, _| SelectorCell::new(p.clone(), 10.0, p.v_set * 0.5),
                    &SIZES,
                    bias,
                    WorstCasePattern::AllOnes,
                    threads,
                ),
            ),
            (
                "1T1R",
                read_margin_study_threaded(
                    |_, _| TransistorCell::new(p.clone()),
                    &SIZES,
                    bias,
                    WorstCasePattern::AllOnes,
                    threads,
                ),
            ),
            (
                "CRS",
                read_margin_study_threaded(
                    |_, _| CrsCell::new(p.clone()),
                    &SIZES,
                    bias,
                    WorstCasePattern::AllOnes,
                    threads,
                ),
            ),
        ];
        for (name, points) in &studies {
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
            if *name == "CRS" {
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
