//! Off-chip main memory model.
//!
//! Main memory sits behind the cache: line fills and writebacks are charged its latency and
//! counted here, so experiments can also report memory traffic (a proxy for the energy cost
//! the paper's embedded-systems context cares about).

/// Counters and latency of the off-chip memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MainMemory {
    /// Cycles charged per line read (the miss penalty contribution of the DRAM itself).
    pub read_latency: u64,
    /// Cycles charged per line written back.
    pub write_latency: u64,
    /// Lines read from memory (cache fills and uncached reads).
    pub line_reads: u64,
    /// Lines written to memory (writebacks and uncached writes).
    pub line_writes: u64,
    /// Bytes transferred from memory.
    pub bytes_read: u64,
    /// Bytes transferred to memory.
    pub bytes_written: u64,
}

impl MainMemory {
    /// Creates a memory model with the given per-line latencies.
    pub fn new(read_latency: u64, write_latency: u64) -> Self {
        MainMemory {
            read_latency,
            write_latency,
            line_reads: 0,
            line_writes: 0,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Records a line fill of `bytes` bytes and returns its cost in cycles.
    #[inline]
    pub fn read_line(&mut self, bytes: u64) -> u64 {
        self.line_reads += 1;
        self.bytes_read += bytes;
        self.read_latency
    }

    /// Records a writeback of `bytes` bytes and returns its cost in cycles.
    #[inline]
    pub fn write_line(&mut self, bytes: u64) -> u64 {
        self.line_writes += 1;
        self.bytes_written += bytes;
        self.write_latency
    }

    /// Total bytes transferred in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Resets the traffic counters, keeping latencies.
    pub fn reset(&mut self) {
        self.line_reads = 0;
        self.line_writes = 0;
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory::new(20, 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_writes_are_counted_and_charged() {
        let mut m = MainMemory::new(20, 10);
        assert_eq!(m.read_line(32), 20);
        assert_eq!(m.write_line(32), 10);
        assert_eq!(m.read_line(64), 20);
        assert_eq!(m.line_reads, 2);
        assert_eq!(m.line_writes, 1);
        assert_eq!(m.bytes_read, 96);
        assert_eq!(m.bytes_written, 32);
        assert_eq!(m.total_bytes(), 128);
    }

    #[test]
    fn reset_clears_traffic_but_keeps_latency() {
        let mut m = MainMemory::default();
        m.read_line(32);
        m.reset();
        assert_eq!(m.line_reads, 0);
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.read_latency, 20);
    }
}
