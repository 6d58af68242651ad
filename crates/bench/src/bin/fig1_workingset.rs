//! Regenerates **Fig. 1**: the classification of computing systems by
//! working-set location, as an access-cost sweep.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin fig1_workingset
//! ```

use cim_arch::working_set_sweep;
use cim_bench::{write_csv, Args};
use cim_units::{Energy, Time};

fn main() {
    Args::capture_strict(&[], &[]);
    println!("== Fig. 1: working-set location ladder ==\n");
    // One comparator-scale operation per working-set reference.
    let compute_time = Time::from_nano_seconds(0.25);
    let compute_energy = Energy::from_femto_joules(45.0);
    let rows = working_set_sweep(compute_time, compute_energy);

    println!(
        "{:<44} {:>12} {:>12} {:>14}",
        "class", "t/op", "E/op", "ops/s (1 unit)"
    );
    let mut csv = String::from("class,latency_s,energy_j,ops_per_s\n");
    let baseline = rows[0].1;
    for (cost, t, e) in &rows {
        println!(
            "{:<44} {:>12} {:>12} {:>14.3e}",
            cost.location.to_string(),
            t.to_string(),
            e.to_string(),
            1.0 / t.as_seconds()
        );
        csv.push_str(&format!(
            "{},{:e},{:e},{:e}\n",
            cost.location,
            t.as_seconds(),
            e.as_joules(),
            1.0 / t.as_seconds()
        ));
    }
    let last = rows.last().expect("five classes");
    println!(
        "\n(a) -> (e): {:.0}x faster, {:.0}x less energy per operation",
        baseline / last.1,
        rows[0].2 / last.2
    );
    write_csv("fig1_workingset.csv", &csv);
}
