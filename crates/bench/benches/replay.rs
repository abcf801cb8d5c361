//! Benchmarks of the replay engine against the per-reference replay path.
//!
//! * `replay_paths/*` — the same Figure-4 traces through `run_on` (one `access` call per
//!   reference) and through `ReplayEngine::replay` (batched, last-page translation
//!   cache). Both produce bit-identical `RunResult`s; the difference is pure overhead.
//! * `sweep_paths/*` — the full dequant partition sweep computed serially and with the
//!   thread-parallel `par_map` fan-out.

use ccache_bench::{figure4_config, Scale};
use ccache_core::engine::ReplayEngine;
use ccache_core::partition::{partition_sweep, partition_sweep_serial};
use ccache_core::runner::{run_on, CacheMapping, RegionMapping};
use ccache_sim::backend::{build_backend, BackendKind};
use ccache_sim::{ColumnMask, SystemConfig};
use ccache_workloads::mpeg::{run_combined, run_dequant};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn engine_config() -> SystemConfig {
    SystemConfig {
        page_size: 128,
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
    m
}

fn replay_paths(c: &mut Criterion) {
    let mpeg = Scale::Quick.mpeg();
    for (label, workload) in [
        ("dequant", run_dequant(&mpeg)),
        ("combined", run_combined(&mpeg)),
    ] {
        let mut group = c.benchmark_group(format!("replay_paths/{label}"));
        group.throughput(Throughput::Elements(workload.trace.len() as u64));
        group.bench_function("per_reference", |b| {
            let mut backend = build_backend(BackendKind::ColumnCache, engine_config()).unwrap();
            mapping().apply(backend.as_mut()).unwrap();
            b.iter(|| run_on("bench", backend.as_mut(), black_box(&workload.trace)).unwrap())
        });
        group.bench_function("batched_engine", |b| {
            let mut engine = ReplayEngine::new(BackendKind::ColumnCache, engine_config()).unwrap();
            engine.apply(&mapping()).unwrap();
            b.iter(|| engine.replay("bench", black_box(&workload.trace)))
        });
        group.finish();
    }
}

fn sweep_paths(c: &mut Criterion) {
    let mpeg = Scale::Quick.mpeg();
    let workload = run_dequant(&mpeg);
    let cfg = figure4_config();
    let mut group = c.benchmark_group("sweep_paths/dequant");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| partition_sweep_serial(black_box(&workload), black_box(&cfg)).unwrap())
    });
    group.bench_function("parallel", |b| {
        b.iter(|| partition_sweep(black_box(&workload), black_box(&cfg)).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = replay;
    config = Criterion::default().sample_size(20);
    targets = replay_paths, sweep_paths
}
criterion_main!(replay);
