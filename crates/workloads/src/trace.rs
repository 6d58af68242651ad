//! Memory-access traces for cache simulation.

use serde::{Deserialize, Serialize};

/// Where a workload's memory references go as they happen.
///
/// The DNA index emits its probes and reference reads through this
/// trait, so a caller chooses what a reference costs: a whole
/// [`MemoryTrace`] to keep, a flat address buffer to replay in bounded
/// chunks, or a cache model fed directly.
pub trait AccessSink {
    /// Records a read at `address`.
    fn read(&mut self, address: u64);

    /// Records reads at `start, start + 1, …, start + len - 1`, in that
    /// order — a sequential scan.
    fn read_run(&mut self, start: u64, len: u64) {
        for address in start..start + len {
            self.read(address);
        }
    }
}

impl AccessSink for MemoryTrace {
    fn read(&mut self, address: u64) {
        self.push(Access::read(address));
    }

    fn read_run(&mut self, start: u64, len: u64) {
        self.extend((start..start + len).map(Access::read));
    }
}

/// A bare address stream: every reference the DNA mapper makes is a read.
impl AccessSink for Vec<u64> {
    fn read(&mut self, address: u64) {
        self.push(address);
    }

    fn read_run(&mut self, start: u64, len: u64) {
        self.extend(start..start + len);
    }
}

/// One memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// Byte address in the simulated address space.
    pub address: u64,
    /// Whether the reference writes.
    pub is_write: bool,
}

impl Access {
    /// A read reference.
    pub fn read(address: u64) -> Self {
        Self {
            address,
            is_write: false,
        }
    }

    /// A write reference.
    pub fn write(address: u64) -> Self {
        Self {
            address,
            is_write: true,
        }
    }
}

/// A sequence of memory references produced by a workload.
///
/// The DNA index emits these during lookups (binary-search probes over
/// the sorted k-mer table plus sequential reference verification) so the
/// cache simulator can measure the hit ratio the paper assumes.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryTrace {
    accesses: Vec<Access>,
}

impl MemoryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a reference.
    pub fn push(&mut self, access: Access) {
        self.accesses.push(access);
    }

    /// Appends a read at `address`.
    pub fn read(&mut self, address: u64) {
        self.push(Access::read(address));
    }

    /// Appends a write at `address`.
    pub fn write(&mut self, address: u64) {
        self.push(Access::write(address));
    }

    /// The recorded references.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if no references were recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Unique cache lines touched, for a given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn unique_lines(&self, line_bytes: u64) -> usize {
        assert!(line_bytes > 0, "line size must be non-zero");
        let mut lines: Vec<u64> = self
            .accesses
            .iter()
            .map(|a| a.address / line_bytes)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }
}

impl Extend<Access> for MemoryTrace {
    fn extend<T: IntoIterator<Item = Access>>(&mut self, iter: T) {
        self.accesses.extend(iter);
    }
}

impl FromIterator<Access> for MemoryTrace {
    fn from_iter<T: IntoIterator<Item = Access>>(iter: T) -> Self {
        Self {
            accesses: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_reads_and_writes_in_order() {
        let mut t = MemoryTrace::new();
        t.read(0x100);
        t.write(0x140);
        assert_eq!(t.len(), 2);
        assert_eq!(t.accesses()[0], Access::read(0x100));
        assert!(t.accesses()[1].is_write);
    }

    #[test]
    fn unique_lines_dedupes_by_line() {
        let t: MemoryTrace = [0x00u64, 0x08, 0x40, 0x44, 0x80]
            .iter()
            .map(|&a| Access::read(a))
            .collect();
        assert_eq!(t.unique_lines(64), 3);
        assert_eq!(t.unique_lines(8), 4); // 0x40 and 0x44 share an 8B line
    }

    #[test]
    fn extend_and_collect() {
        let mut t = MemoryTrace::new();
        t.extend((0..4).map(|i| Access::read(i * 64)));
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!(MemoryTrace::new().is_empty());
    }
}
