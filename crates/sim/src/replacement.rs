//! Replacement policies and the mask-aware replacement unit.
//!
//! Column caching's only change to replacement is *which* lines are candidates: the policy
//! still orders the ways of a set, but the victim must come from a column whose bit is set
//! in the access's [`ColumnMask`]. Invalid (empty) ways inside the allowed mask are always
//! preferred over evicting live data.

use crate::mask::ColumnMask;
use std::fmt;

/// The victim-selection policy applied within the allowed columns of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum ReplacementPolicy {
    /// Least recently used (exact, per-set timestamps).
    #[default]
    Lru,
    /// First in, first out (evict the line filled longest ago).
    Fifo,
    /// Bit-PLRU: one "recently used" bit per way, cleared en masse when all are set.
    BitPlru,
    /// Round-robin over the allowed columns.
    RoundRobin,
    /// Pseudo-random selection (deterministic xorshift, seeded per set).
    Random,
}

impl ReplacementPolicy {
    /// All supported policies, for sweeps and ablations.
    pub const ALL: [ReplacementPolicy; 5] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::BitPlru,
        ReplacementPolicy::RoundRobin,
        ReplacementPolicy::Random,
    ];
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::BitPlru => "bit-plru",
            ReplacementPolicy::RoundRobin => "round-robin",
            ReplacementPolicy::Random => "random",
        };
        f.write_str(s)
    }
}

/// Per-set replacement state: recency/fill timestamps, PLRU bits and policy bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplacementState {
    policy: ReplacementPolicy,
    /// Last-use time per way (LRU) — larger is more recent.
    use_stamp: Vec<u64>,
    /// Fill time per way (FIFO) — larger is more recent.
    fill_stamp: Vec<u64>,
    /// "Recently used" bit per way (bit-PLRU).
    mru_bit: Vec<bool>,
    clock: u64,
    next_rr: usize,
    rng: u64,
}

impl ReplacementState {
    /// Creates replacement state for a set with `ways` ways.
    pub fn new(policy: ReplacementPolicy, ways: usize, seed: u64) -> Self {
        ReplacementState {
            policy,
            use_stamp: vec![0; ways],
            fill_stamp: vec![0; ways],
            mru_bit: vec![false; ways],
            clock: 0,
            next_rr: 0,
            rng: seed | 1,
        }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.use_stamp.len()
    }

    /// The policy this state applies.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Records a hit on `way`.
    ///
    /// Only the structures the active policy consults are updated: LRU stamps for
    /// [`ReplacementPolicy::Lru`], MRU bits for [`ReplacementPolicy::BitPlru`]. The other
    /// policies ignore re-hits entirely, so this is a no-op for them — hits dominate any
    /// realistic trace, and this runs once per hit.
    #[inline]
    pub fn on_access(&mut self, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clock += 1;
                self.use_stamp[way] = self.clock;
            }
            ReplacementPolicy::BitPlru => self.touch_plru(way),
            ReplacementPolicy::Fifo | ReplacementPolicy::RoundRobin | ReplacementPolicy::Random => {
            }
        }
    }

    /// Records a fill (miss that installed a new line) into `way`.
    ///
    /// As with [`ReplacementState::on_access`], only the active policy's structures are
    /// touched; relative stamp order — all any policy compares — is unaffected.
    #[inline]
    pub fn on_fill(&mut self, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clock += 1;
                self.use_stamp[way] = self.clock;
            }
            ReplacementPolicy::Fifo => {
                self.clock += 1;
                self.fill_stamp[way] = self.clock;
            }
            ReplacementPolicy::BitPlru => self.touch_plru(way),
            ReplacementPolicy::RoundRobin | ReplacementPolicy::Random => {}
        }
    }

    fn touch_plru(&mut self, way: usize) {
        self.mru_bit[way] = true;
        if self.mru_bit.iter().all(|&b| b) {
            for (i, b) in self.mru_bit.iter_mut().enumerate() {
                *b = i == way;
            }
        }
    }

    /// Chooses the victim way for a miss restricted to `allowed` columns.
    ///
    /// `valid` is a bitmask of ways currently holding a valid line (bit `w` set means
    /// way `w` is valid); bits at or above [`ReplacementState::ways`] are ignored.
    /// Invalid ways inside the allowed mask are always used first, in ascending way
    /// order. Otherwise the policy picks among the allowed ways. The whole selection is
    /// bit arithmetic over the candidate mask — no allocation on this path, which a
    /// miss takes on every fill.
    ///
    /// Returns `None` if the mask selects no way of this set (the caller treats the access
    /// as uncacheable, which cannot happen through the public `MemorySystem` API because
    /// masks are validated when tints are defined).
    pub fn victim(&mut self, allowed: ColumnMask, valid: u64) -> Option<usize> {
        let ways = self.ways();
        let ways_mask = if ways >= 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        };
        let candidates = allowed.bits() & ways_mask;
        if candidates == 0 {
            return None;
        }
        let empty = candidates & !valid;
        if empty != 0 {
            return Some(empty.trailing_zeros() as usize);
        }
        let chosen = match self.policy {
            ReplacementPolicy::Lru => min_stamp_way(candidates, &self.use_stamp),
            ReplacementPolicy::Fifo => min_stamp_way(candidates, &self.fill_stamp),
            ReplacementPolicy::BitPlru => {
                let mut rest = candidates;
                loop {
                    if rest == 0 {
                        // every allowed way is recently used: fall back to the lowest
                        break candidates.trailing_zeros() as usize;
                    }
                    let w = rest.trailing_zeros() as usize;
                    if !self.mru_bit[w] {
                        break w;
                    }
                    rest &= rest - 1;
                }
            }
            ReplacementPolicy::RoundRobin => {
                // The first allowed way at or after the round-robin pointer, wrapping
                // to the lowest allowed way. `next_rr < ways <= 64`, so the shift that
                // clears the ways below the pointer is well defined.
                let at_or_after = candidates & (u64::MAX << self.next_rr);
                let w = if at_or_after != 0 {
                    at_or_after.trailing_zeros() as usize
                } else {
                    candidates.trailing_zeros() as usize
                };
                self.next_rr = (w + 1) % ways;
                w
            }
            ReplacementPolicy::Random => {
                // xorshift64*
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                let k = (self.rng % u64::from(candidates.count_ones())) as u32;
                nth_set_bit(candidates, k)
            }
        };
        Some(chosen)
    }
}

/// The lowest-indexed way among `candidates` with the minimal stamp — the bitmask
/// equivalent of `min_by_key` over ascending way order (first minimum wins).
fn min_stamp_way(candidates: u64, stamps: &[u64]) -> usize {
    let mut rest = candidates;
    let mut best = rest.trailing_zeros() as usize;
    rest &= rest - 1;
    while rest != 0 {
        let w = rest.trailing_zeros() as usize;
        if stamps[w] < stamps[best] {
            best = w;
        }
        rest &= rest - 1;
    }
    best
}

/// The `k`-th (0-based) set bit of `mask`, ascending. `k` must be less than
/// `mask.count_ones()`.
fn nth_set_bit(mask: u64, k: u32) -> usize {
    let mut rest = mask;
    for _ in 0..k {
        rest &= rest - 1;
    }
    rest.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_valid(n: usize) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    #[test]
    fn invalid_ways_are_preferred() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, 1);
        let valid = 0b0101; // ways 0 and 2 valid, 1 and 3 empty
        let v = st.victim(ColumnMask::all(4), valid).unwrap();
        assert_eq!(v, 1);
        // restricted to column 3 which is invalid
        let v = st.victim(ColumnMask::single(3), valid).unwrap();
        assert_eq!(v, 3);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_mask() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, 1);
        for w in 0..4 {
            st.on_fill(w);
        }
        st.on_access(0);
        st.on_access(1);
        // way 2 is now the LRU of the full mask
        assert_eq!(st.victim(ColumnMask::all(4), all_valid(4)), Some(2));
        // but restricted to columns {0,1}, way 0 is older than way 1
        assert_eq!(
            st.victim(ColumnMask::from_columns([0, 1]), all_valid(4)),
            Some(0)
        );
    }

    #[test]
    fn fifo_ignores_rehits() {
        let mut st = ReplacementState::new(ReplacementPolicy::Fifo, 2, 1);
        st.on_fill(0);
        st.on_fill(1);
        st.on_access(0); // re-hit must not refresh FIFO order
        assert_eq!(st.victim(ColumnMask::all(2), all_valid(2)), Some(0));
    }

    #[test]
    fn bit_plru_clears_when_saturated() {
        let mut st = ReplacementState::new(ReplacementPolicy::BitPlru, 2, 1);
        st.on_fill(0);
        // way 1 not recently used
        assert_eq!(st.victim(ColumnMask::all(2), all_valid(2)), Some(1));
        st.on_fill(1); // all bits set -> cleared except way 1
        assert_eq!(st.victim(ColumnMask::all(2), all_valid(2)), Some(0));
    }

    #[test]
    fn round_robin_cycles_through_allowed_ways() {
        let mut st = ReplacementState::new(ReplacementPolicy::RoundRobin, 4, 1);
        let mask = ColumnMask::from_columns([1, 3]);
        let v1 = st.victim(mask, all_valid(4)).unwrap();
        let v2 = st.victim(mask, all_valid(4)).unwrap();
        let v3 = st.victim(mask, all_valid(4)).unwrap();
        assert!(mask.contains(v1) && mask.contains(v2) && mask.contains(v3));
        assert_ne!(v1, v2);
        assert_eq!(v1, v3);
    }

    #[test]
    fn random_is_deterministic_for_a_seed_and_respects_mask() {
        let mut a = ReplacementState::new(ReplacementPolicy::Random, 8, 42);
        let mut b = ReplacementState::new(ReplacementPolicy::Random, 8, 42);
        let mask = ColumnMask::from_columns([2, 5, 6]);
        for _ in 0..100 {
            let va = a.victim(mask, all_valid(8)).unwrap();
            let vb = b.victim(mask, all_valid(8)).unwrap();
            assert_eq!(va, vb);
            assert!(mask.contains(va));
        }
    }

    #[test]
    fn empty_mask_yields_no_victim() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, 1);
        assert_eq!(st.victim(ColumnMask::EMPTY, all_valid(4)), None);
    }

    #[test]
    fn policy_display_and_all() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "lru");
        assert_eq!(ReplacementPolicy::ALL.len(), 5);
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }
}
