//! Memristive stateful logic — the "dual function (storage and logic)"
//! capability that Section IV.C of the DATE'15 CIM paper builds on.
//!
//! Two circuit families are implemented, matching the paper's Fig. 5:
//!
//! * **Material implication (IMPLY) with two devices + load resistor**
//!   (Fig. 5a, Borghetti/Kvatinsky): [`ImplyEngine`] executes
//!   [`Program`] microcode — sequences of `FALSE q` and `p IMP q` steps —
//!   *electrically* on [`cim_device::ThresholdDevice`]s: each step solves
//!   the `V_COND`/`V_SET`/`R_G` divider and integrates the resulting
//!   device dynamics, so the truth table emerges from the device physics
//!   rather than being table-looked-up.
//! * **Single-CRS implication** (Fig. 5b, Linn): [`CrsImp`] executes
//!   `Z ← p IMP q` in two pulses on one complementary resistive switch by
//!   driving its two terminals with `±½V_write` levels.
//!
//! On top of the primitives:
//!
//! * a gate library (`NOT`, `NAND`, `AND`, `OR`, `XOR`, bit copy) exposed
//!   through [`ProgramBuilder`];
//! * [`synthesize`]: compilation of Boolean [`Expr`]essions to IMPLY
//!   microcode;
//! * a **bit-sliced executor**: [`CompiledProgram`] lowers a program
//!   once, by symbolic execution, to a folded OR-netlist (moves, NOTs
//!   and clears cost nothing; the 32-bit adder's 1,564 steps become 283
//!   gates) and [`BitSliceEngine`] runs it `W` words of 64 lanes per
//!   gate visit — the paper's row-broadcast parallelism mirrored in
//!   the simulator, bit identical to [`Program::evaluate`] and the
//!   electrical path, while the modelled cost still counts every source
//!   step;
//! * the paper's circuit blocks: the DNA [`Comparator`] ("2 XOR and a
//!   NAND … 13 memristors … 16 steps") and ripple adders —
//!   [`ImplyAdder`] (bit-exact, electrically executed) plus the
//!   [`TcAdderModel`] cost model of the CRS "TC adder" the paper cites
//!   (N+2 devices, 4N+5 steps, 8N fJ);
//! * [`LogicCost`]: steps / devices / latency / energy accounting that the
//!   architecture layer turns into Table-2 metrics.
//!
//! ```
//! use cim_logic::{ImplyEngine, ProgramBuilder};
//!
//! // Compile a NAND and run it on real device models.
//! let mut b = ProgramBuilder::new();
//! let p = b.input();
//! let q = b.input();
//! let out = b.nand(p, q);
//! let program = b.finish(vec![out]);
//!
//! let mut engine = ImplyEngine::for_program(&program);
//! for (a, c) in [(false, false), (false, true), (true, false), (true, true)] {
//!     let outs = engine.run(&program, &[a, c]);
//!     assert_eq!(outs[0], !(a && c));
//! }
//! ```

mod adder;
mod bitslice;
mod comparator;
mod cost;
mod crs_logic;
mod ecc;
mod engine;
mod lut;
mod program;
mod simd;
mod synthesis;
mod wear;

pub use adder::{CrsAdder, ImplyAdder, TcAdderModel, WORDS};
pub use bitslice::{transpose64, BitSliceEngine, CompiledProgram, LANES};
pub use comparator::Comparator;
pub use cost::LogicCost;
pub use crs_logic::{CrsImp, Level};
pub use ecc::{Correction, DoubleError, Hamming};
pub use engine::{ImplyEngine, ImplyParams};
pub use lut::Lut;
pub use program::{Program, ProgramBuilder, ProgramError, Reg, Step};
pub use simd::{simd_cost, RowParallelEngine};
pub use synthesis::{synthesize, Expr};
pub use wear::{ColumnWear, WearLedger};

/// Re-exported for convenience: stateful logic is defined over these
/// device models.
pub use cim_device::DeviceParams;
