//! Regenerates **Fig. 4**: the I-V characteristic of a CRS cell (and,
//! for contrast, a single bipolar device), from a quasi-static
//! triangular sweep.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin fig4_iv
//! ```

use cim_bench::{write_csv, Args};
use cim_device::{Crs, DeviceParams, IvSweep, ThresholdDevice, TwoTerminal};
use cim_units::{Time, Voltage};

fn main() {
    Args::capture_strict(&[], &[]);
    let p = DeviceParams::table1_cim();
    let sweep = IvSweep::new(Voltage::from_volts(3.5), 120, Time::from_nano_seconds(2.0));

    println!("== Fig. 4: CRS cell I-V (cell initialised to '0') ==\n");
    let mut cell = Crs::new_zero(p.clone());
    let mut csv = String::from("element,v_volts,i_amps,state\n");
    let mut last_state = cell.state();
    println!("{:>8} {:>14} {:>8}", "V", "I", "state");
    for v in sweep.waveform() {
        cell.apply(v, sweep.dwell);
        let i = cell.current_at(v);
        let state = cell.state();
        if state != last_state {
            println!(
                "{:>8.3} {:>14} {:>8}   <- transition",
                v.as_volts(),
                i.to_string(),
                state
            );
            last_state = state;
        }
        csv.push_str(&format!(
            "crs,{},{:e},{}\n",
            v.as_volts(),
            i.as_amps(),
            state
        ));
    }
    println!("final state: {}", cell.state());

    println!("\n== single bipolar device for contrast ==");
    let mut dev = ThresholdDevice::new_hrs(p);
    let mut was_lrs = false;
    for v in sweep.waveform() {
        dev.apply(v, sweep.dwell);
        let i = dev.current_at(v);
        let is_lrs = cim_device::Memristor::is_lrs(&dev);
        if is_lrs != was_lrs {
            println!(
                "{:>8.3} {:>14}   <- {}",
                v.as_volts(),
                i.to_string(),
                if is_lrs { "SET" } else { "RESET" }
            );
            was_lrs = is_lrs;
        }
        csv.push_str(&format!(
            "device,{},{:e},{}\n",
            v.as_volts(),
            i.as_amps(),
            if is_lrs { "LRS" } else { "HRS" }
        ));
    }

    write_csv("fig4_iv.csv", &csv);
    println!(
        "\n(the CRS trace shows the four thresholds: blocked below Vth1, the\n\
         ON window between Vth1 and Vth2, storage-to-storage transitions at\n\
         ±Vth2/Vth4 — and high resistance in BOTH stored states, the\n\
         sneak-path immunity of Fig. 3)"
    );
}
