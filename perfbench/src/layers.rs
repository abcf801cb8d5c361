//! The per-layer metrics of a traced run, and how they are derived from spans and counts.

use crate::harness::{Counts, TracedPhase, SETUP_ROUNDS};
use crate::stats::ratio;
use crate::tracer::Tracer;
use ccache_telemetry::Registry;
use std::collections::BTreeMap;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// Every per-layer metric, with its unit, in report order. A metric whose layer does
/// not run on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("trace.encode_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.decode_refs_per_s", "1/s"),
    ("placement.ms", "ms"),
    ("layout.conflict_graph_ms", "ms"),
    ("layout.assign_ms", "ms"),
    ("layout.plan_phases_ms", "ms"),
    ("layout.vertices", "count"),
    ("layout.edges", "count"),
    ("schedule.round_robin_ms", "ms"),
    ("schedule.context_switches", "count"),
    ("engine.build_ms", "ms"),
    ("replay.ms", "ms"),
    ("replay.refs_per_s", "1/s"),
    ("engine.references", "count"),
    ("engine.batches", "count"),
    ("engine.batches_per_kref", "1/kref"),
    ("engine.tlb.hits", "count"),
    ("engine.tlb.misses", "count"),
    ("engine.tlb.hit_ratio", "ratio"),
    ("engine.memo.translation_hits", "count"),
    ("engine.memo.translation_hit_ratio", "ratio"),
    ("engine.memo.tint_hits", "count"),
    ("engine.memo.tint_hit_ratio", "ratio"),
    ("sim.references", "count"),
    ("sim.hits", "count"),
    ("sim.misses", "count"),
    ("sim.writebacks", "count"),
    ("sim.total_cycles", "cycles"),
    ("sim.control_cycles", "cycles"),
    ("opt.space_build_ms", "ms"),
    ("opt.generation_ms", "ms"),
    ("opt.generations", "count"),
    ("opt.evaluations", "count"),
    ("opt.fitness_cache.hits", "count"),
    ("opt.fitness_cache.misses", "count"),
    ("opt.fitness_cache.hit_ratio", "ratio"),
    ("opt.engine_pool.hits", "count"),
    ("opt.engine_pool.builds", "count"),
    ("opt.engine_pool.hit_ratio", "ratio"),
    ("opt.warmup.reused", "count"),
    ("opt.warmup.full", "count"),
    ("opt.warmup.reused_ratio", "ratio"),
    ("exp.plan_ms", "ms"),
    ("exp.execute_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.store.hits", "count"),
    ("serve.store.misses", "count"),
    ("serve.store.hit_ratio", "ratio"),
    ("serve.store.publishes", "count"),
    ("serve.refused", "count"),
    ("json.render_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("report.render_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Engine counters an op reads back from its registry.
pub const ENGINE_COUNTERS: &[&str] = &[
    "engine.references",
    "engine.batches",
    "engine.tlb.hits",
    "engine.tlb.misses",
    "engine.memo.translation_hits",
    "engine.memo.tint_hits",
];

/// Current values of the named counters, to diff around an op.
pub fn read_counters(registry: &Registry, names: &[&'static str]) -> Vec<u64> {
    names.iter().map(|c| registry.counter_value(c)).collect()
}

/// Inserts each named counter's change since `before` into `counts`.
pub fn counter_deltas(
    registry: &Registry,
    names: &[&'static str],
    before: &[u64],
    counts: &mut Counts,
) {
    for ((name, after), before) in names.iter().zip(read_counters(registry, names)).zip(before) {
        counts.insert(name, after - before);
    }
}

/// The metric a span's self time feeds: `replay` -> `replay.ms`,
/// `layout.assign` -> `layout.assign_ms`.
fn metric_of_span(span: &str) -> String {
    if span.contains('.') {
        format!("{span}_ms")
    } else {
        format!("{span}.ms")
    }
}

fn known(metric: &str) -> bool {
    PER_LAYER.iter().any(|(name, _)| *name == metric)
}

/// Inserts the deterministic counts, then every ratio over them with its base.
pub fn insert_counts(l: &mut Layers, counts: &Counts) {
    for (name, value) in counts {
        if known(name) {
            l.insert((*name).to_owned(), *value as f64);
        }
    }
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let refs = get(l, "engine.references");
    l.insert(
        "engine.batches_per_kref".into(),
        ratio(get(l, "engine.batches"), refs / 1e3),
    );
    for (metric, hits) in [
        (
            "engine.memo.translation_hit_ratio",
            "engine.memo.translation_hits",
        ),
        ("engine.memo.tint_hit_ratio", "engine.memo.tint_hits"),
    ] {
        l.insert(metric.into(), ratio(get(l, hits), refs));
    }
    for (metric, hits, other) in [
        (
            "engine.tlb.hit_ratio",
            "engine.tlb.hits",
            "engine.tlb.misses",
        ),
        (
            "opt.fitness_cache.hit_ratio",
            "opt.fitness_cache.hits",
            "opt.fitness_cache.misses",
        ),
        (
            "opt.engine_pool.hit_ratio",
            "opt.engine_pool.hits",
            "opt.engine_pool.builds",
        ),
        (
            "opt.warmup.reused_ratio",
            "opt.warmup.reused",
            "opt.warmup.full",
        ),
        (
            "serve.store.hit_ratio",
            "serve.store.hits",
            "serve.store.misses",
        ),
    ] {
        let h = get(l, hits);
        l.insert(metric.into(), ratio(h, h + get(l, other)));
    }
}

/// Span self times per op (`per`) and set-up spans per set-up round.
pub fn insert_span_times(l: &mut Layers, ops: &Tracer, per: u64, setup: &Tracer) {
    for (tracer, n) in [(ops, per), (setup, SETUP_ROUNDS as u64)] {
        for (span, (self_ns, _)) in tracer.self_times() {
            let metric = metric_of_span(span);
            if known(&metric) {
                l.insert(metric, ratio(self_ns as f64 / 1e6, n as f64));
            }
        }
    }
}

/// The metrics every serial workload derives the same way: span self times per op,
/// set-up spans per round, the deterministic counts of one pass and the ratios over
/// them, and the tracing overhead.
pub fn common(t: &TracedPhase) -> Layers {
    let mut l = Layers::new();
    insert_span_times(&mut l, &t.tracer, t.ops, &t.setup);
    insert_counts(&mut l, &t.pass_counts);
    let replay_ns = t.tracer.self_times().get("replay").map_or(0, |r| r.0);
    l.insert(
        "replay.refs_per_s".into(),
        ratio(t.sim_refs as f64, replay_ns as f64 / 1e9),
    );
    l.insert(
        "bench.trace_overhead_ratio".into(),
        ratio(ratio(t.ops as f64, t.op_seconds), t.plain_ops_per_s),
    );
    l
}

/// Fills every metric the workload did not produce with 0, so each traced run reports
/// the full set.
pub fn complete(mut l: Layers) -> Layers {
    for (name, _) in PER_LAYER {
        l.entry((*name).to_owned()).or_insert(0.0);
    }
    l
}
