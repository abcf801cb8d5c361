//! Cross-crate integration tests of the full layout pipeline on non-MPEG workloads: trace
//! recording → conflict graph → column assignment → cache mapping → measurable improvement
//! over an unmanaged cache.

use column_caching::core::runner::{run_trace, CacheMapping, RegionMapping};
use column_caching::layout::{
    assign_columns, conflict_graph_from_trace, plan_phases, LayoutOptions, WeightOptions,
};
use column_caching::prelude::*;
use column_caching::sim::SystemConfig;
use column_caching::workloads::kernels::{run_fir, run_histogram, FirConfig, HistogramConfig};
use column_caching::workloads::mpeg::{run_phases, MpegConfig};

fn sys_config() -> SystemConfig {
    SystemConfig {
        page_size: 128,
        ..SystemConfig::default()
    }
}

#[test]
fn layout_driven_mapping_never_loses_to_shared_cache_on_kernels() {
    for run in [
        run_fir(&FirConfig::default()),
        run_histogram(&HistogramConfig::default()),
    ] {
        let (graph, units) =
            conflict_graph_from_trace(&run.trace, &run.symbols, &WeightOptions::default());
        let assignment = assign_columns(&graph, &LayoutOptions::new(4, 512)).unwrap();
        let mapping = CacheMapping::from_assignment(&assignment, &units, &run.symbols, &[]);
        let managed = run_trace("managed", sys_config(), &mapping, &run.trace).unwrap();
        let shared = run_trace("shared", sys_config(), &CacheMapping::new(), &run.trace).unwrap();
        assert!(
            managed.total_cycles() <= shared.total_cycles() * 102 / 100,
            "{}: managed {} vs shared {}",
            run.name,
            managed.total_cycles(),
            shared.total_cycles()
        );
        assert_eq!(managed.references, shared.references);
    }
}

#[test]
fn conflicting_streams_are_separated_and_conflict_misses_disappear() {
    // Two arrays that collide pathologically in a direct-mapped-style situation: both are
    // scanned together repeatedly. With a single column each they cannot evict each other.
    let mut rec = TraceRecorder::new();
    let a = rec.allocate("a", 512, 512);
    let b = rec.allocate("b", 512, 512);
    for _pass in 0..8 {
        for i in 0..64u64 {
            rec.read(a, i * 8, 8);
            rec.read(b, i * 8, 8);
        }
    }
    let (trace, symbols) = rec.finish();
    let (graph, units) = conflict_graph_from_trace(&trace, &symbols, &WeightOptions::default());
    assert!(graph.weight(0, 1) > 0, "the two arrays must conflict");
    let assignment = assign_columns(&graph, &LayoutOptions::new(4, 512)).unwrap();
    assert_ne!(assignment.columns_of(a), assignment.columns_of(b));
    let mapping = CacheMapping::from_assignment(&assignment, &units, &symbols, &[]);
    let managed = run_trace("managed", sys_config(), &mapping, &trace).unwrap();
    // each array is 512 bytes = 16 lines; after the cold pass everything must hit
    assert_eq!(managed.misses, 32);
}

#[test]
fn per_phase_plans_require_remapping_only_when_access_patterns_change() {
    let (phases, symbols) = run_phases(&MpegConfig::small());
    let plan = plan_phases(
        &phases,
        &symbols,
        &WeightOptions::default(),
        &LayoutOptions::new(4, 512),
    )
    .unwrap();
    assert_eq!(plan.phases.len(), 3);
    // phases use disjoint variables here, so every transition remaps something (new
    // variables appear) but each phase's own layout is conflict-free or nearly so
    assert_eq!(plan.remap_counts.len(), 2);
    assert!(plan.total_remaps() > 0);
    for phase in &plan.phases {
        assert!(phase.references > 0);
    }
}

#[test]
fn uncached_mapping_is_honoured_end_to_end() {
    let run = run_histogram(&HistogramConfig::small());
    let input = run.symbols.by_name("hist_input").unwrap();
    let mut mapping = CacheMapping::new();
    mapping.map(input.base, input.size, RegionMapping::Uncached);
    let result = run_trace("uncached-input", sys_config(), &mapping, &run.trace).unwrap();
    // every input access bypasses the cache; the table still caches normally
    assert!(result.uncached >= run.trace.count_for(input.id) as u64);
    assert!(result.hits > 0);
}
