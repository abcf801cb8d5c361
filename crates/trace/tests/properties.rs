//! Property-based tests of the trace substrate.

use ccache_trace::synth::{interleave, pseudo_random, read_modify_write, sequential_scan};
use ccache_trace::{
    binfmt, textfmt, AccessKind, AccessProfile, Interval, MemAccess, SymbolTable, Trace,
    TraceRecorder,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trace concatenation is associative in length and preserves event order.
    #[test]
    fn concat_preserves_length_and_order(
        lens in prop::collection::vec(0u64..64, 1..6)
    ) {
        let traces: Vec<Trace> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| sequential_scan(i as u64 * 0x1000, n * 8, 8, 4, 1, None))
            .collect();
        let combined = Trace::concat(traces.iter());
        let expected: usize = traces.iter().map(|t| t.len()).sum();
        prop_assert_eq!(combined.len(), expected);
        let mut offset = 0;
        for t in &traces {
            for (i, e) in t.iter().enumerate() {
                prop_assert_eq!(combined.get(offset + i), Some(e));
            }
            offset += t.len();
        }
    }

    /// Relocation by a constant offset shifts every address by exactly that offset and
    /// changes nothing else.
    #[test]
    fn relocate_is_a_pure_translation(count in 1usize..200, offset in 0u64..0x1000_0000) {
        let t = pseudo_random(0x5000, 4096, 4, count, 7, None);
        let r = t.relocate(offset);
        prop_assert_eq!(t.len(), r.len());
        for (a, b) in t.iter().zip(r.iter()) {
            prop_assert_eq!(a.addr + offset, b.addr);
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.size, b.size);
        }
    }

    /// The footprint in lines never exceeds the number of events and shrinks (or stays
    /// equal) when the line size grows.
    #[test]
    fn footprint_is_monotone_in_line_size(count in 1usize..300) {
        let t = pseudo_random(0, 64 * 1024, 4, count, 3, None);
        let f32b = t.footprint_lines(32);
        let f64b = t.footprint_lines(64);
        let f128b = t.footprint_lines(128);
        prop_assert!(f32b <= t.len());
        prop_assert!(f64b <= f32b);
        prop_assert!(f128b <= f64b);
        prop_assert!(f128b >= 1);
    }

    /// Chunking by any quantum partitions the trace exactly.
    #[test]
    fn chunks_partition_the_trace(len in 1u64..200, quantum in 1usize..64) {
        let t = sequential_scan(0, len * 8, 8, 4, 1, None);
        let total: usize = t.chunks(quantum).map(|c| c.len()).sum();
        prop_assert_eq!(total, t.len());
        let max = t.chunks(quantum).map(|c| c.len()).max().unwrap_or(0);
        prop_assert!(max <= quantum);
    }

    /// Interleaving preserves per-source order and total length for any burst size.
    #[test]
    fn interleave_is_a_fair_merge(burst in 1usize..16, n1 in 0u64..50, n2 in 0u64..50) {
        let t1 = sequential_scan(0x1000, n1 * 8, 8, 4, 1, None);
        let t2 = read_modify_write(0x2000, n2 * 8, 8, 8, 1, None);
        let merged = interleave(&[t1.clone(), t2.clone()], burst);
        prop_assert_eq!(merged.len(), t1.len() + t2.len());
        let from_t1: Vec<u64> = merged.iter().filter(|e| e.addr < 0x2000).map(|e| e.addr).collect();
        let expected: Vec<u64> = t1.iter().map(|e| e.addr).collect();
        prop_assert_eq!(from_t1, expected);
    }

    /// Profiles account for every annotated access: per-variable counts sum to the trace
    /// length and lifetimes are consistent with the per-variable positions.
    #[test]
    fn profiles_account_for_every_access(ops in prop::collection::vec((0usize..5, 0u64..32, any::<bool>()), 1..400)) {
        let mut rec = TraceRecorder::new();
        let vars: Vec<_> = (0..5).map(|i| rec.allocate(&format!("v{i}"), 256, 8)).collect();
        for (v, off, w) in &ops {
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            rec.record(vars[*v], *off * 8, 8, kind);
        }
        let (trace, symbols) = rec.finish();
        let profile = AccessProfile::from_trace(&trace, &symbols);
        let total: u64 = profile.iter().map(|p| p.accesses).sum();
        prop_assert_eq!(total, trace.len() as u64);
        for p in profile.iter() {
            prop_assert_eq!(p.accesses as usize, p.positions.len());
            prop_assert!(p.positions.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(p.lifetime.first, *p.positions.first().unwrap());
            prop_assert_eq!(p.lifetime.last, *p.positions.last().unwrap());
            prop_assert!(p.writes <= p.accesses);
        }
        // pairwise conflicts are symmetric and bounded by the smaller access count
        let vids = profile.variables();
        for &a in &vids {
            for &b in &vids {
                if a == b { continue; }
                let w = profile.potential_conflicts(a, b);
                prop_assert_eq!(w, profile.potential_conflicts(b, a));
                let ca = profile.get(a).unwrap().accesses;
                let cb = profile.get(b).unwrap().accesses;
                prop_assert!(w <= ca.min(cb));
            }
        }
    }

    /// Symbol tables never hand out overlapping regions and always resolve an address to
    /// the variable that owns it.
    #[test]
    fn symbol_tables_are_consistent(sizes in prop::collection::vec(1u64..4096, 1..10)) {
        let mut st = SymbolTable::new();
        let ids: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, s)| st.allocate(&format!("v{i}"), *s, 8).unwrap())
            .collect();
        let regions: Vec<_> = st.iter().cloned().collect();
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                prop_assert!(!a.overlaps(b));
            }
        }
        for (id, size) in ids.iter().zip(&sizes) {
            let r = st.region(*id).unwrap();
            prop_assert_eq!(st.resolve(r.base), Some(*id));
            prop_assert_eq!(st.resolve(r.base + size - 1), Some(*id));
        }
    }

    /// The binary format round-trips any event stream exactly (modulo the variable
    /// annotations it deliberately drops), whatever mix of kinds, sizes and address
    /// jumps the trace contains.
    #[test]
    fn binary_format_round_trips_arbitrary_traces(
        ops in prop::collection::vec(
            (any::<u64>(), 1u32..4096, any::<bool>()),
            0..500,
        )
    ) {
        let trace: Trace = ops
            .iter()
            .map(|&(addr, size, w)| if w {
                MemAccess::write(addr, size)
            } else {
                MemAccess::read(addr, size)
            })
            .collect();
        let mut bytes = Vec::new();
        binfmt::write_trace(&trace, &mut bytes).unwrap();
        let back = binfmt::read_trace(&bytes[..]).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// The text format round-trips the same streams (addresses here are what real
    /// programs produce; the text grammar caps sizes at u32 like `MemAccess`).
    #[test]
    fn text_format_round_trips_arbitrary_traces(
        ops in prop::collection::vec(
            (0u64..u64::MAX / 2, 1u32..4096, any::<bool>()),
            0..200,
        )
    ) {
        let trace: Trace = ops
            .iter()
            .map(|&(addr, size, w)| if w {
                MemAccess::write(addr, size)
            } else {
                MemAccess::read(addr, size)
            })
            .collect();
        let bytes = textfmt::write_trace(&trace, Vec::new()).unwrap();
        let back = textfmt::read_trace(&bytes[..]).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// The text decoder answers `Ok` or `Err` on any byte string and never panics. Bytes
    /// drawn from the grammar's own alphabet get past the UTF-8 check to the parser.
    #[test]
    fn text_decoder_survives_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        picks in prop::collection::vec(0usize..12, 0..512),
    ) {
        let _ = textfmt::read_trace(&raw[..]);
        let alphabet = b"RWrw0x9aF #\n";
        let near: Vec<u8> = picks.iter().map(|&i| alphabet[i]).collect();
        let _ = textfmt::read_trace(&near[..]);
    }

    /// The binary decoder answers `Ok` or `Err` on any byte string and never panics.
    /// Behind a valid header (declaring any event count) the bytes reach the body
    /// decoder, and a trace it accepts holds exactly the declared events.
    #[test]
    fn binary_decoder_survives_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        events in any::<u64>(),
    ) {
        let _ = binfmt::read_trace(&raw[..]);
        let mut framed = binfmt::MAGIC.to_vec();
        framed.extend_from_slice(&binfmt::FORMAT_VERSION.to_le_bytes());
        framed.extend_from_slice(&(events % 64).to_le_bytes());
        framed.extend_from_slice(&raw);
        if let Ok(trace) = binfmt::read_trace(&framed[..]) {
            prop_assert_eq!(trace.len() as u64, events % 64);
        }
        framed[8..16].copy_from_slice(&events.to_le_bytes());
        let _ = binfmt::read_trace(&framed[..]);
    }

    /// Interval hull and intersection are consistent: the intersection (when it exists) is
    /// contained in the hull, and the hull length is at least both input lengths.
    #[test]
    fn interval_hull_contains_intersection(a in 0u64..500, b in 0u64..500, c in 0u64..500, d in 0u64..500) {
        let i1 = Interval::new(a.min(b), a.max(b)).unwrap();
        let i2 = Interval::new(c.min(d), c.max(d)).unwrap();
        let hull = i1.hull(&i2);
        prop_assert!(hull.len() >= i1.len());
        prop_assert!(hull.len() >= i2.len());
        if let Some(x) = i1.intersection(&i2) {
            prop_assert!(x.first >= hull.first && x.last <= hull.last);
            prop_assert!(x.len() <= i1.len().min(i2.len()));
        }
    }
}
