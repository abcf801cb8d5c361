//! Cross-crate property: replaying a trace through the compact binary format — encode,
//! then stream-decode through `ReplayEngine::replay_reader` in bounded batches — yields
//! **bit-identical** run results to replaying the in-memory trace, for every backend
//! kind and arbitrary reference streams.

use column_caching::core::engine::ReplayEngine;
use column_caching::core::runner::{CacheMapping, RegionMapping};
use column_caching::sim::backend::BackendKind;
use column_caching::sim::{ColumnMask, SystemConfig};
use column_caching::trace::binfmt::{write_trace, TraceReader};
use column_caching::trace::{MemAccess, Trace};
use proptest::prelude::*;

fn config() -> SystemConfig {
    SystemConfig {
        page_size: 256,
        ..SystemConfig::default()
    }
}

fn mapping() -> CacheMapping {
    let mut m = CacheMapping::new();
    m.map(
        0x0,
        512,
        RegionMapping::Exclusive {
            mask: ColumnMask::single(0),
            preload: true,
        },
    );
    m.map(
        0x10_0000,
        0x1_0000,
        RegionMapping::Columns {
            mask: ColumnMask::single(3),
        },
    );
    m.map(0x8000, 256, RegionMapping::Uncached);
    m
}

fn build_trace(ops: &[(u16, u8, bool)]) -> Trace {
    // Project the raw tuples onto the mapped regions so the replay exercises
    // exclusive/preloaded, column-restricted, uncached and default pages alike.
    ops.iter()
        .map(|&(off, region, w)| {
            let base = match region % 4 {
                0 => 0x0,
                1 => 0x10_0000,
                2 => 0x8000,
                _ => 0x4_0000,
            };
            let addr = base + u64::from(off) * 4;
            let size = 4;
            if w {
                MemAccess::write(addr, size)
            } else {
                MemAccess::read(addr, size)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streaming binary-format replay is bit-identical to in-memory replay, at every
    /// batch size, for every backend.
    #[test]
    fn binary_stream_replay_is_bit_identical_to_in_memory_replay(
        ops in prop::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 1..600),
        batch in 1usize..512,
    ) {
        let trace = build_trace(&ops);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();

        for kind in BackendKind::ALL {
            let engine = || {
                let mut engine = ReplayEngine::new(kind, config()).unwrap();
                engine.apply(&mapping()).unwrap();
                engine.set_batch_size(batch);
                engine
            };

            let in_memory = engine().replay("run", &trace);

            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let streamed = engine().replay_reader("run", &mut reader).unwrap();

            // RunResult derives PartialEq over every statistic — cycles, hit/miss
            // counts, writebacks, the cycle report — so equality here is bit-identity
            // of the whole result.
            prop_assert_eq!(in_memory, streamed, "backend {}", kind);
        }
    }
}
