//! Batch-of-solves: concurrent dispatch of *independent* array solves.
//!
//! A CIM fabric runs **many arrays at once**, each solving its own bias
//! point with no synchronization at all, and that is the simulator's one
//! parallel axis for the electrical model: every solve runs on the
//! thread that calls it (see the solver module docs for why a solve is
//! not split across threads). This module exposes that axis — hand the
//! pool a slice of arrays and an operation, get the results back in
//! array order.
//!
//! **Determinism.** Each array is claimed by exactly one worker
//! ([`cim_pool::run_exclusive`] transfers the `&mut` borrow through a
//! once-locked slot), the operation sees the same array state the serial
//! loop would, and results are reassembled in index order — so the
//! output is bit-identical to `arrays.iter_mut().enumerate().map(op)`
//! at every thread count. Only wall-clock changes.

use crate::cell::Cell;
use crate::crossbar::Crossbar;

/// Runs `op` once per array, dispatching independent arrays concurrently
/// over `threads` pool workers (`0` = all cores), and returns the
/// results in array order.
///
/// Each solve runs serially inside the worker that claimed its array.
pub fn solve_batch<C, R, F>(threads: usize, arrays: &mut [Crossbar<C>], op: F) -> Vec<R>
where
    C: Cell,
    R: Send,
    F: Fn(usize, &mut Crossbar<C>) -> R + Sync,
{
    cim_pool::run_exclusive(threads, arrays, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::BiasScheme;
    use crate::cell::ResistiveCell;
    use cim_device::DeviceParams;

    fn arrays(n: usize) -> Vec<Crossbar<ResistiveCell>> {
        let params = DeviceParams::table1_cim();
        (0..n)
            .map(|k| {
                let mut array = Crossbar::homogeneous(8, 8, || ResistiveCell::new(params.clone()));
                array.fill(|i, j| (i + j + k) % 2 == 0);
                array
            })
            .collect()
    }

    #[test]
    fn batched_reads_are_bit_identical_to_the_serial_loop() {
        let mut reference = arrays(6);
        let serial: Vec<f64> = reference
            .iter_mut()
            .enumerate()
            .map(|(k, array)| {
                array
                    .read(k % 8, (k * 3) % 8, BiasScheme::HalfV)
                    .sense_current
                    .get()
            })
            .collect();
        for threads in [1usize, 2, 4, 0] {
            let mut batch = arrays(6);
            let currents = solve_batch(threads, &mut batch, |k, array| {
                array
                    .read(k % 8, (k * 3) % 8, BiasScheme::HalfV)
                    .sense_current
                    .get()
            });
            let bits: Vec<u64> = currents.iter().map(|c| c.to_bits()).collect();
            let want: Vec<u64> = serial.iter().map(|c| c.to_bits()).collect();
            assert_eq!(bits, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let mut none: Vec<Crossbar<ResistiveCell>> = Vec::new();
        let out = solve_batch(4, &mut none, |_, _| 0u8);
        assert!(out.is_empty());
    }
}
