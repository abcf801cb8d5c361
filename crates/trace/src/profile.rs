//! Access profiles: per-variable statistics derived from a trace.
//!
//! The profile-based weight computation of the paper (Section 3.1.1) runs the program on a
//! representative data set to obtain a sequence of variable accesses, from which it derives
//! (i) each variable's total access count, (ii) each variable's lifetime interval and (iii)
//! for any time interval, the number of accesses each variable makes inside it. An
//! [`AccessProfile`] captures exactly this information.

use crate::event::VarId;
use crate::lifetime::Interval;
use crate::region::SymbolTable;
use crate::trace::Trace;
use std::collections::BTreeMap;

/// Per-variable profile: access count, lifetime and the ordered positions of its accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariableProfile {
    /// The variable this profile describes.
    pub var: VarId,
    /// Name copied from the symbol table (empty if the variable was not in the table).
    pub name: String,
    /// Size of the variable's region in bytes (0 if unknown).
    pub size: u64,
    /// Total number of accesses attributed to this variable.
    pub accesses: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Lifetime interval `[first, last]` over trace positions.
    pub lifetime: Interval,
    /// Sorted trace positions at which this variable was accessed.
    pub positions: Vec<u64>,
}

impl VariableProfile {
    /// Number of accesses this variable makes inside `interval` (inclusive bounds).
    ///
    /// This is the `n^j_i` quantity of the paper: the number of accesses of variable *i*
    /// during the lifetime intersection with variable *j*.
    pub fn accesses_in(&self, interval: &Interval) -> u64 {
        // positions are sorted, so binary search both ends.
        let lo = self.positions.partition_point(|&p| p < interval.first);
        let hi = self.positions.partition_point(|&p| p <= interval.last);
        (hi - lo) as u64
    }

    /// Mean number of accesses per byte of the variable, a density used to rank scalars.
    pub fn access_density(&self) -> f64 {
        if self.size == 0 {
            self.accesses as f64
        } else {
            self.accesses as f64 / self.size as f64
        }
    }
}

/// Access profile of an entire trace: one [`VariableProfile`] per annotated variable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessProfile {
    profiles: BTreeMap<VarId, VariableProfile>,
    /// Total number of events in the profiled trace (annotated or not).
    pub trace_len: u64,
}

impl AccessProfile {
    /// Builds a profile from a trace and the symbol table describing its variables.
    ///
    /// Events without a variable annotation are resolved through the symbol table by
    /// address; events that resolve to no region are counted in `trace_len` but attributed
    /// to no variable.
    pub fn from_trace(trace: &Trace, symbols: &SymbolTable) -> Self {
        let mut profiles: BTreeMap<VarId, VariableProfile> = BTreeMap::new();
        for (pos, ev) in trace.iter().enumerate() {
            let pos = pos as u64;
            let var = ev.var.or_else(|| symbols.resolve(ev.addr));
            let Some(var) = var else { continue };
            let entry = profiles.entry(var).or_insert_with(|| {
                let (name, size) = symbols
                    .region(var)
                    .map(|r| (r.name.clone(), r.size))
                    .unwrap_or_else(|| (String::new(), 0));
                VariableProfile {
                    var,
                    name,
                    size,
                    accesses: 0,
                    writes: 0,
                    lifetime: Interval::point(pos),
                    positions: Vec::new(),
                }
            });
            entry.accesses += 1;
            if ev.is_write() {
                entry.writes += 1;
            }
            entry.lifetime = entry.lifetime.extended_to(pos);
            entry.positions.push(pos);
        }
        AccessProfile {
            profiles,
            trace_len: trace.len() as u64,
        }
    }

    /// Number of profiled variables.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` if no variable was profiled.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Returns the profile of one variable.
    pub fn get(&self, var: VarId) -> Option<&VariableProfile> {
        self.profiles.get(&var)
    }

    /// Iterates over the per-variable profiles in `VarId` order.
    pub fn iter(&self) -> impl Iterator<Item = &VariableProfile> {
        self.profiles.values()
    }

    /// The variables present in the profile, in `VarId` order.
    pub fn variables(&self) -> Vec<VarId> {
        self.profiles.keys().copied().collect()
    }

    /// Computes the paper's pairwise conflict quantity for two variables:
    /// `MIN(n^j_i, n^i_j)` where `n^j_i` is the number of accesses of `a` inside the
    /// lifetime intersection with `b` and vice versa. Returns 0 when lifetimes are
    /// disjoint or either variable is unknown.
    pub fn potential_conflicts(&self, a: VarId, b: VarId) -> u64 {
        let (Some(pa), Some(pb)) = (self.get(a), self.get(b)) else {
            return 0;
        };
        let Some(delta) = pa.lifetime.intersection(&pb.lifetime) else {
            return 0;
        };
        let n_a = pa.accesses_in(&delta);
        let n_b = pb.accesses_in(&delta);
        n_a.min(n_b)
    }
}

impl<'a> IntoIterator for &'a AccessProfile {
    type Item = &'a VariableProfile;
    type IntoIter = std::collections::btree_map::Values<'a, VarId, VariableProfile>;

    fn into_iter(self) -> Self::IntoIter {
        self.profiles.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, MemAccess};
    use crate::recorder::TraceRecorder;

    fn two_var_setup() -> (Trace, SymbolTable, VarId, VarId) {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 64, 8);
        let b = rec.allocate("b", 64, 8);
        // a accessed at positions 0..4, b at positions 4..10
        for i in 0..4u64 {
            rec.record(a, (i % 8) * 8, 8, AccessKind::Read);
        }
        for i in 0..6u64 {
            rec.record(b, (i % 8) * 8, 8, AccessKind::Write);
        }
        let (t, s) = rec.finish();
        (t, s, a, b)
    }

    #[test]
    fn profile_counts_and_lifetimes() {
        let (t, s, a, b) = two_var_setup();
        let p = AccessProfile::from_trace(&t, &s);
        assert_eq!(p.len(), 2);
        assert_eq!(p.trace_len, 10);
        let pa = p.get(a).unwrap();
        let pb = p.get(b).unwrap();
        assert_eq!(pa.accesses, 4);
        assert_eq!(pa.writes, 0);
        assert_eq!(pb.accesses, 6);
        assert_eq!(pb.writes, 6);
        assert_eq!(pa.lifetime, Interval::new(0, 3).unwrap());
        assert_eq!(pb.lifetime, Interval::new(4, 9).unwrap());
        assert_eq!(pa.name, "a");
        assert_eq!(pa.size, 64);
    }

    #[test]
    fn disjoint_lifetimes_have_zero_conflicts() {
        let (t, s, a, b) = two_var_setup();
        let p = AccessProfile::from_trace(&t, &s);
        assert_eq!(p.potential_conflicts(a, b), 0);
        assert_eq!(p.potential_conflicts(b, a), 0);
    }

    #[test]
    fn interleaved_lifetimes_report_min_access_count() {
        // Interleave: a b a b a b — both live in [0,5]
        let mut t = Trace::new();
        let mut s = SymbolTable::new();
        let a = s.allocate("a", 16, 8).unwrap();
        let b = s.allocate("b", 16, 8).unwrap();
        let ra = s.region(a).unwrap().base;
        let rb = s.region(b).unwrap().base;
        for i in 0..3 {
            t.push(MemAccess::read(ra + i * 4, 4).with_var(a));
            t.push(MemAccess::read(rb + i * 4, 4).with_var(b));
        }
        // one extra access of b after a dies
        t.push(MemAccess::read(rb, 4).with_var(b));
        let p = AccessProfile::from_trace(&t, &s);
        // intersection = [0, 4]; a has 3 accesses there, b has 2
        assert_eq!(p.potential_conflicts(a, b), 2);
        assert_eq!(p.potential_conflicts(a, b), p.potential_conflicts(b, a));
    }

    #[test]
    fn accesses_in_uses_inclusive_bounds() {
        let (t, s, _a, b) = two_var_setup();
        let p = AccessProfile::from_trace(&t, &s);
        let pb = p.get(b).unwrap();
        assert_eq!(pb.accesses_in(&Interval::new(4, 9).unwrap()), 6);
        assert_eq!(pb.accesses_in(&Interval::new(5, 8).unwrap()), 4);
        assert_eq!(pb.accesses_in(&Interval::new(0, 3).unwrap()), 0);
    }

    #[test]
    fn resolves_unannotated_events_through_symbol_table() {
        let mut s = SymbolTable::new();
        let a = s.allocate("a", 32, 8).unwrap();
        let base = s.region(a).unwrap().base;
        let mut t = Trace::new();
        t.push(MemAccess::read(base + 4, 4)); // no var annotation
        t.push(MemAccess::read(0xdead_0000, 4)); // resolves to nothing
        let p = AccessProfile::from_trace(&t, &s);
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(a).unwrap().accesses, 1);
        assert_eq!(p.trace_len, 2);
    }

    #[test]
    fn access_density_handles_zero_size() {
        let vp = VariableProfile {
            var: VarId(0),
            name: "x".into(),
            size: 0,
            accesses: 5,
            writes: 0,
            lifetime: Interval::point(0),
            positions: vec![0, 1, 2, 3, 4],
        };
        assert_eq!(vp.access_density(), 5.0);
    }
}
