//! The column cache: a set-associative cache whose replacement unit is restricted by a
//! per-access [`ColumnMask`].
//!
//! Lookup behaves exactly like a standard set-associative cache — every way of the selected
//! set is searched — so a hit never depends on the mask and repartitioning is graceful
//! (Section 2.1). Only victim selection on a miss is restricted to the allowed columns.
//!
//! # Layout: struct-of-arrays
//!
//! Cache state is stored as packed per-set arrays rather than an array of
//! [`CacheLine`] structs: one contiguous tag vector (`sets × columns`, row-major by
//! set) and one `u64` valid/dirty bitmask per set. The invariants the layout maintains:
//!
//! * bit `w` of `valid[set]` is set **iff** way `w` of `set` holds a live line, and
//!   `tags[set * columns + w]` is meaningful only while that bit is set;
//! * `dirty[set]` is always a subset of `valid[set]` (`dirty & !valid == 0`);
//! * at most one valid way of a set carries any given tag (fills happen only on
//!   misses), so the first match found in ascending way order is *the* match.
//!
//! This keeps the hot probe loop branch-light — iterate the set bits of `valid[set]`
//! over a contiguous tag row — and makes line validity available to the replacement
//! unit as a ready-made `u64` mask, so victim selection allocates nothing. Address
//! splitting uses precomputed shifts/masks (line size and set count are validated
//! powers of two) instead of division. The [`CacheLine`] struct survives as the
//! *view* type returned by [`ColumnCache::line`].

use crate::config::CacheConfig;
use crate::error::SimError;
use crate::mask::ColumnMask;
use crate::replacement::ReplacementState;
use crate::stats::CacheStats;

/// State of one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLine {
    /// Whether the line holds valid data.
    pub valid: bool,
    /// Whether the line has been written since it was filled.
    pub dirty: bool,
    /// Tag (upper address bits) of the cached line.
    pub tag: u64,
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the evicted line.
    pub line_addr: u64,
    /// Whether the line was dirty (and therefore written back).
    pub dirty: bool,
    /// Column the line was evicted from.
    pub column: usize,
}

/// Result of presenting one access to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was found; `column` is the way it was found in.
    Hit {
        /// Column (way) the data was found in.
        column: usize,
    },
    /// The line was not found; it was filled into `column`, possibly evicting a line.
    Miss {
        /// Column (way) the new line was installed in.
        column: usize,
        /// The line that was evicted, if any valid line had to make room.
        evicted: Option<Eviction>,
    },
    /// The line was not found and the mask allowed no column, so nothing was cached.
    Bypass,
}

impl AccessOutcome {
    /// Returns `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }

    /// Returns `true` for [`AccessOutcome::Miss`] or [`AccessOutcome::Bypass`].
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }

    /// Returns the eviction caused by this access, if any.
    pub fn eviction(&self) -> Option<Eviction> {
        match self {
            AccessOutcome::Miss { evicted, .. } => *evicted,
            _ => None,
        }
    }
}

/// A software-partitionable set-associative cache.
///
/// State is held in struct-of-arrays form — packed per-set tag rows plus `u64`
/// valid/dirty bitmasks — see the module docs for the layout invariants.
///
/// # Example
///
/// ```
/// use ccache_sim::cache::ColumnCache;
/// use ccache_sim::config::CacheConfig;
/// use ccache_sim::mask::ColumnMask;
///
/// let mut cache = ColumnCache::new(CacheConfig::default());
/// let everything = ColumnMask::all(4);
/// assert!(cache.access(0x1000, false, everything).is_miss());
/// assert!(cache.access(0x1000, false, everything).is_hit());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnCache {
    config: CacheConfig,
    /// `log2(line_size)` — the offset width of an address.
    line_shift: u32,
    /// `log2(sets)` — the index width of an address.
    set_bits: u32,
    /// `sets - 1`, the index extraction mask.
    set_mask: u64,
    /// `config.columns()`, kept local to the hot path.
    columns: usize,
    /// All-ways mask: bit `w` set for every existing column `w`.
    ways_mask: u64,
    /// Tags, row-major by set: way `w` of set `s` is `tags[s * columns + w]`.
    tags: Vec<u64>,
    /// Per-set validity bitmask (bit `w` = way `w` holds a live line).
    valid: Vec<u64>,
    /// Per-set dirtiness bitmask; always a subset of `valid`.
    dirty: Vec<u64>,
    /// Per-set replacement state.
    repl: Vec<ReplacementState>,
    stats: CacheStats,
}

impl ColumnCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let columns = config.columns();
        ColumnCache {
            config,
            line_shift: config.line_size().trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            columns,
            ways_mask: if columns >= 64 {
                u64::MAX
            } else {
                (1u64 << columns) - 1
            },
            tags: vec![0; sets * columns],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            repl: (0..sets)
                .map(|i| ReplacementState::new(config.replacement(), columns, i as u64 + 1))
                .collect(),
            stats: CacheStats::new(columns),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics to zero without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new(self.columns);
    }

    /// Splits an address into `(tag, set index)` with the precomputed shift/mask pair —
    /// the allocation- and division-free equivalent of
    /// [`CacheConfig::split_addr`](crate::config::CacheConfig::split_addr).
    #[inline]
    fn tag_and_set(&self, addr: u64) -> (u64, usize) {
        let line = addr >> self.line_shift;
        ((line >> self.set_bits), (line & self.set_mask) as usize)
    }

    /// Reconstructs a line's base address from its tag and set index.
    #[inline]
    fn line_addr(&self, tag: u64, set_idx: usize) -> u64 {
        ((tag << self.set_bits) | set_idx as u64) << self.line_shift
    }

    /// The state of way `column` of `set` as a [`CacheLine`] view.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `column` is out of range.
    pub fn line(&self, set: usize, column: usize) -> CacheLine {
        assert!(set < self.valid.len() && column < self.columns);
        CacheLine {
            valid: self.valid[set] & (1 << column) != 0,
            dirty: self.dirty[set] & (1 << column) != 0,
            tag: self.tags[set * self.columns + column],
        }
    }

    /// Presents one access to the cache and returns what happened.
    ///
    /// `mask` restricts which columns the replacement unit may fill on a miss; it never
    /// affects lookup. An empty (or fully out-of-range) effective mask turns the access into
    /// a [`AccessOutcome::Bypass`].
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool, mask: ColumnMask) -> AccessOutcome {
        let (tag, set_idx) = self.tag_and_set(addr);
        let base = set_idx * self.columns;
        self.stats.accesses += 1;

        // Lookup searches every (valid) column regardless of the mask: iterate the set
        // bits of the validity mask over the contiguous tag row. At most one valid way
        // can carry this tag, so the first match is the only match.
        let valid_bits = self.valid[set_idx];
        let mut probe = valid_bits;
        while probe != 0 {
            let way = probe.trailing_zeros() as usize;
            if self.tags[base + way] == tag {
                self.repl[set_idx].on_access(way);
                if is_write {
                    self.dirty[set_idx] |= 1 << way;
                }
                self.stats.hits += 1;
                self.stats.column_hits[way] += 1;
                return AccessOutcome::Hit { column: way };
            }
            probe &= probe - 1;
        }

        // Miss: restrict the fill to the allowed columns. The validity mask is already
        // in the form the replacement unit wants — no per-miss allocation.
        let effective = ColumnMask::from_bits(mask.bits() & self.ways_mask);
        let Some(way) = self.repl[set_idx].victim(effective, valid_bits) else {
            self.stats.bypasses += 1;
            return AccessOutcome::Bypass;
        };

        let bit = 1u64 << way;
        let evicted = if valid_bits & bit != 0 {
            let was_dirty = self.dirty[set_idx] & bit != 0;
            self.stats.evictions += 1;
            if was_dirty {
                self.stats.writebacks += 1;
            }
            Some(Eviction {
                line_addr: self.line_addr(self.tags[base + way], set_idx),
                dirty: was_dirty,
                column: way,
            })
        } else {
            None
        };

        self.tags[base + way] = tag;
        self.valid[set_idx] |= bit;
        if is_write {
            self.dirty[set_idx] |= bit;
        } else {
            self.dirty[set_idx] &= !bit;
        }
        self.repl[set_idx].on_fill(way);
        self.stats.misses += 1;
        self.stats.column_fills[way] += 1;
        AccessOutcome::Miss {
            column: way,
            evicted,
        }
    }

    /// Non-mutating lookup: returns the column holding `addr`, if cached.
    pub fn probe(&self, addr: u64) -> Option<usize> {
        let (tag, set_idx) = self.tag_and_set(addr);
        let base = set_idx * self.columns;
        let mut probe = self.valid[set_idx];
        while probe != 0 {
            let way = probe.trailing_zeros() as usize;
            if self.tags[base + way] == tag {
                return Some(way);
            }
            probe &= probe - 1;
        }
        None
    }

    /// Returns `true` if `addr` is currently cached.
    pub fn contains(&self, addr: u64) -> bool {
        self.probe(addr).is_some()
    }

    /// Pre-loads every line of `[base, base + size)` into the columns allowed by `mask`,
    /// as software does when establishing a scratchpad region (Section 2.3). Returns the
    /// number of lines that had to be fetched (i.e. missed).
    pub fn preload(&mut self, base: u64, size: u64, mask: ColumnMask) -> u64 {
        let line = self.config.line_size();
        let mut fetched = 0;
        let mut addr = base - base % line;
        while addr < base + size {
            if self.access(addr, false, mask).is_miss() {
                fetched += 1;
            }
            addr += line;
        }
        fetched
    }

    /// Writes back every dirty line and invalidates the cache. Returns the number of
    /// writebacks performed (also added to the statistics).
    pub fn flush(&mut self) -> u64 {
        let mut writebacks = 0;
        for set in 0..self.valid.len() {
            writebacks += u64::from((self.valid[set] & self.dirty[set]).count_ones());
            self.valid[set] = 0;
            self.dirty[set] = 0;
        }
        self.stats.writebacks += writebacks;
        writebacks
    }

    /// Number of valid lines currently held in `column`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ColumnOutOfRange`] if `column` does not exist.
    pub fn occupancy(&self, column: usize) -> Result<usize, SimError> {
        if column >= self.columns {
            return Err(SimError::ColumnOutOfRange {
                column,
                columns: self.columns,
            });
        }
        let bit = 1u64 << column;
        Ok(self.valid.iter().filter(|&&v| v & bit != 0).count())
    }

    /// Total number of valid lines in the cache.
    pub fn valid_lines(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Iterates over `(set, column, line)` for every valid line — used by tests and
    /// invariant checks.
    pub fn valid_line_addrs(&self) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for (si, &valid) in self.valid.iter().enumerate() {
            let mut bits = valid;
            while bits != 0 {
                let wi = bits.trailing_zeros() as usize;
                out.push((
                    si,
                    wi,
                    self.line_addr(self.tags[si * self.columns + wi], si),
                ));
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> ColumnCache {
        ColumnCache::new(CacheConfig::default()) // 2 KiB, 4 columns, 32 B lines, 16 sets
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = small_cache();
        let m = ColumnMask::all(4);
        assert!(c.access(0x1000, false, m).is_miss());
        assert!(c.access(0x1000, false, m).is_hit());
        assert!(c.access(0x101f, true, m).is_hit()); // same 32-byte line
        assert!(c.access(0x1020, false, m).is_miss()); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn fills_stay_within_mask() {
        let mut c = small_cache();
        let m = ColumnMask::single(2);
        // 8 distinct lines mapping to the same set: set stride = sets * line = 512
        for i in 0..8u64 {
            let out = c.access(0x1000 + i * 512, false, m);
            match out {
                AccessOutcome::Miss { column, .. } => assert_eq!(column, 2),
                other => panic!("expected miss, got {other:?}"),
            }
        }
        // only one line can survive in a single column per set
        assert_eq!(c.valid_lines(), 1);
        assert_eq!(c.occupancy(2).unwrap(), 1);
        assert_eq!(c.occupancy(0).unwrap(), 0);
        assert_eq!(c.stats().evictions, 7);
    }

    #[test]
    fn hits_ignore_the_mask() {
        let mut c = small_cache();
        // fill into column 0
        assert!(c.access(0x2000, false, ColumnMask::single(0)).is_miss());
        // later accesses mapped to a different column still hit the old location
        assert!(c.access(0x2000, false, ColumnMask::single(3)).is_hit());
        assert_eq!(c.probe(0x2000), Some(0));
    }

    #[test]
    fn remapped_data_moves_only_after_eviction() {
        let mut c = small_cache();
        c.access(0x3000, false, ColumnMask::single(1));
        assert_eq!(c.probe(0x3000), Some(1));
        // evict it by filling column 1 of the same set with a conflicting line
        c.access(0x3000 + 512, false, ColumnMask::single(1));
        assert!(!c.contains(0x3000));
        // on the next access under the new mapping it lands in column 2
        c.access(0x3000, false, ColumnMask::single(2));
        assert_eq!(c.probe(0x3000), Some(2));
    }

    #[test]
    fn empty_mask_bypasses() {
        let mut c = small_cache();
        let out = c.access(0x4000, false, ColumnMask::EMPTY);
        assert_eq!(out, AccessOutcome::Bypass);
        assert!(!c.contains(0x4000));
        assert_eq!(c.stats().bypasses, 1);
        assert!(out.is_miss());
        assert_eq!(out.eviction(), None);
    }

    #[test]
    fn dirty_evictions_are_written_back() {
        let mut c = small_cache();
        let m = ColumnMask::single(0);
        c.access(0x5000, true, m); // dirty fill
        let out = c.access(0x5000 + 512, false, m); // evicts the dirty line
        let ev = out.eviction().expect("eviction expected");
        assert!(ev.dirty);
        assert_eq!(ev.line_addr, 0x5000);
        assert_eq!(ev.column, 0);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_line_dirty_for_flush() {
        let mut c = small_cache();
        let m = ColumnMask::all(4);
        c.access(0x6000, false, m);
        c.access(0x6000, true, m);
        assert_eq!(c.flush(), 1);
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.contains(0x6000));
    }

    #[test]
    fn preload_establishes_scratchpad_lines() {
        let mut c = small_cache();
        // one column = 512 bytes = 16 lines
        let fetched = c.preload(0x8000, 512, ColumnMask::single(3));
        assert_eq!(fetched, 16);
        assert_eq!(c.occupancy(3).unwrap(), 16);
        // preloading again costs nothing
        assert_eq!(c.preload(0x8000, 512, ColumnMask::single(3)), 0);
    }

    #[test]
    fn occupancy_rejects_bad_column() {
        let c = small_cache();
        assert!(matches!(
            c.occupancy(4),
            Err(SimError::ColumnOutOfRange {
                column: 4,
                columns: 4
            })
        ));
    }

    #[test]
    fn valid_line_addrs_reports_cached_lines() {
        let mut c = small_cache();
        c.access(0xa000, false, ColumnMask::single(1));
        let lines = c.valid_line_addrs();
        assert_eq!(lines.len(), 1);
        let (_set, col, addr) = lines[0];
        assert_eq!(col, 1);
        assert_eq!(addr, 0xa000);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small_cache();
        c.access(0xb000, false, ColumnMask::all(4));
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains(0xb000));
    }
}
