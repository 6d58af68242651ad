//! Regenerates **Fig. 5**: the two circuit implementations of material
//! implication — (a) two devices + load resistor, (b) a single CRS cell —
//! with full truth tables, step traces, and cost comparison.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin fig5_imp
//! ```

use cim_bench::{write_csv, Args};
use cim_device::DeviceParams;
use cim_logic::{CrsImp, ImplyEngine, ImplyParams, ProgramBuilder, Step};

fn main() {
    Args::capture_strict(&[], &[]);
    let device = DeviceParams::table1_cim();
    let params = ImplyParams::for_device(&device);
    println!("== Fig. 5(a): p IMP q with two devices + R_G ==");
    println!(
        "operating point: V_COND = {}, V_SET = {}, R_G = {}\n",
        params.v_cond, params.v_set_pulse, params.r_g
    );
    println!("steps per IMP: 3 (set p, set q, pulse) — we charge the conditional pulse\n");

    let mut csv = String::from("variant,p,q,result,steps,devices,energy_j\n");
    println!("{:>3} {:>3} {:>8} {:>26}", "p", "q", "p IMP q", "cost");
    for (p, q) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut engine = ImplyEngine::new(2, device.clone(), params.clone());
        engine.write(0, p);
        engine.write(1, q);
        engine.exec_step(Step::Imply(0, 1));
        let out = engine.read(1);
        let cost = engine.cost();
        println!(
            "{:>3} {:>3} {:>8} {:>26}",
            u8::from(p),
            u8::from(q),
            u8::from(out),
            cost.to_string()
        );
        assert_eq!(out, !p || q);
        csv.push_str(&format!(
            "two-device,{},{},{},{},{},{:e}\n",
            u8::from(p),
            u8::from(q),
            u8::from(out),
            cost.steps,
            cost.devices,
            cost.energy.as_joules()
        ));
    }

    println!("\n== Fig. 5(b): p IMP q on a single CRS cell ==");
    println!("steps per IMP: 2 (init Z to '1', apply (V_q, V_p))\n");
    println!("{:>3} {:>3} {:>8} {:>26}", "p", "q", "p IMP q", "cost");
    for (p, q) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut gate = CrsImp::new(&device);
        let out = gate.imp(p, q);
        let cost = gate.cost();
        println!(
            "{:>3} {:>3} {:>8} {:>26}",
            u8::from(p),
            u8::from(q),
            u8::from(out),
            cost.to_string()
        );
        csv.push_str(&format!(
            "single-crs,{},{},{},{},{},{:e}\n",
            u8::from(p),
            u8::from(q),
            u8::from(out),
            cost.steps,
            cost.devices,
            cost.energy.as_joules()
        ));
    }

    println!("\n== IMP as a universal basis: NAND from 3 steps (Fig. 5 caption) ==");
    let mut b = ProgramBuilder::new();
    let p = b.input();
    let q = b.input();
    let out = b.nand(p, q);
    let program = b.finish(vec![out]);
    let mut engine = ImplyEngine::for_program(&program);
    for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
        let r = engine.run(&program, &[x, y]);
        println!(
            "NAND({}, {}) = {}  [{} steps]",
            u8::from(x),
            u8::from(y),
            u8::from(r[0]),
            program.len()
        );
    }

    write_csv("fig5_imp.csv", &csv);
}
