//! The instrumentation spine of the workspace: counters, gauges, fixed-log2-bucket
//! histograms and lightweight spans behind a shared [`Registry`].
//!
//! Every layer of the stack (replay engine, tuner, executor, server) records into a
//! registry — usually the process-wide [`Registry::global`], or a private one injected
//! for isolation (each `ccache-serve` service owns its own). A registry serializes to a
//! [`ccache_json::Json`] snapshot whose layout follows the repo's determinism contract:
//! everything *outside* the `timing` block is byte-identical across identical runs, and
//! every host-dependent number (span durations, histogram bucket occupancy — the
//! measured values are durations) is quarantined *inside* `timing`, exactly the way
//! `BENCH_replay.json` quarantines its `timing`/`ratios`/`environment` keys. Tests
//! therefore compare [`Registry::snapshot_deterministic`] and stay green on any host.
//!
//! Metric names are dotted `layer.noun.verb` paths (`engine.tlb.hits`,
//! `serve.store.claims`); the snapshot sorts them, so naming *is* the schema.
//!
//! Overhead policy: handles ([`Counter`], [`Gauge`], [`Histogram`], [`Span`]) are
//! resolved once by name and then touch a single atomic per event — no locks, no
//! allocation, no formatting on the hot path. The registry mutex is only taken at
//! handle-resolution and snapshot time.
//!
//! ```
//! use ccache_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let batches = registry.counter("engine.batches");
//! batches.add(3);
//! let span = registry.span("exp.job");
//! {
//!     let _active = span.start(); // records count + duration on drop
//! }
//! let snap = registry.snapshot_deterministic();
//! assert_eq!(snap.get("counters").unwrap().get("engine.batches").unwrap().as_u64(), Some(3));
//! assert_eq!(snap.get("spans").unwrap().get("exp.job").unwrap().get("count").unwrap().as_u64(), Some(1));
//! assert!(snap.get("timing").is_none());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use ccache_json::{Json, ToJson};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k` (1..=64) holds values
/// `v` with `floor(log2(v)) == k - 1`, i.e. `2^(k-1) <= v < 2^k`.
pub const BUCKETS: usize = 65;

/// The log2 bucket index of a value: 0 for 0, `floor(log2(v)) + 1` otherwise.
///
/// ```
/// use ccache_telemetry::bucket_of;
/// assert_eq!(bucket_of(0), 0);
/// assert_eq!(bucket_of(1), 1);
/// assert_eq!(bucket_of(2), 2);
/// assert_eq!(bucket_of(3), 2);
/// assert_eq!(bucket_of(1024), 11);
/// assert_eq!(bucket_of(u64::MAX), 64);
/// ```
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// A monotonically increasing event count. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level (queue depth, workers busy, best-so-far fitness).
/// Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the gauge.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the gauge (saturating at 0 under races).
    pub fn sub(&self, n: u64) {
        // fetch_update with saturating_sub: a decrement can never wrap below zero even
        // if an increment/decrement pair races.
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// `BUCKETS` zeroed atomics (arrays of atomics have no `Default` past length 32).
fn zero_buckets() -> [AtomicU64; BUCKETS] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Shared storage of one histogram: value count, value sum, fixed log2 buckets.
#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: zero_buckets(),
        }
    }
}

impl HistogramCore {
    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// `[{"log2": k, "count": n}]` for the non-empty buckets.
    fn buckets_json(&self) -> Json {
        Json::arr(self.buckets.iter().enumerate().filter_map(|(k, b)| {
            let n = b.load(Ordering::Relaxed);
            (n > 0).then(|| Json::obj([("log2", (k as u64).to_json()), ("count", n.to_json())]))
        }))
    }
}

/// A distribution with fixed log2 buckets ([`bucket_of`]).
///
/// The snapshot treats the *count* of recorded values as deterministic and quarantines
/// the sum and bucket occupancy under `timing`: the workspace's histograms measure
/// durations, whose magnitudes are host-dependent even when the number of measured
/// events is not. Cloning shares the underlying cells.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one value.
    pub fn record(&self, value: u64) {
        self.core.record(value);
    }

    /// How many values have been recorded.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// The sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// The occupancy of bucket `k` (see [`bucket_of`]).
    pub fn bucket(&self, k: usize) -> u64 {
        self.core.buckets[k].load(Ordering::Relaxed)
    }
}

/// Shared storage of one span: completion count plus a duration histogram.
#[derive(Debug)]
struct SpanCore {
    count: AtomicU64,
    total_nanos: AtomicU64,
    micros: [AtomicU64; BUCKETS],
}

impl Default for SpanCore {
    fn default() -> Self {
        SpanCore {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            micros: zero_buckets(),
        }
    }
}

/// A named region of work. [`Span::start`] returns an [`ActiveSpan`] guard; when the
/// guard drops, the span's completion count and duration histogram are updated.
///
/// Snapshot semantics: the completion count is deterministic; total nanoseconds and the
/// log2-microsecond duration buckets live under `timing`.
#[derive(Clone)]
pub struct Span {
    name: Arc<str>,
    core: Arc<SpanCore>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").field("name", &self.name).finish()
    }
}

impl Span {
    /// Begins the span.
    pub fn start(&self) -> ActiveSpan {
        ActiveSpan {
            span: self.clone(),
            started: Instant::now(),
        }
    }

    /// How many times the span has completed.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    fn finish(&self, nanos: u64) {
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.core.micros[bucket_of(nanos / 1_000)].fetch_add(1, Ordering::Relaxed);
    }
}

/// The RAII guard of a running [`Span`]; dropping it ends the span.
#[derive(Debug)]
pub struct ActiveSpan {
    span: Span,
    started: Instant,
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.span.finish(nanos);
    }
}

/// The interior of a registry, shared by all its clones and handles.
#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, Arc<SpanCore>>>,
}

/// A named metric space: resolves names to shared [`Counter`]/[`Gauge`]/[`Histogram`]/
/// [`Span`] handles and snapshots them all as one JSON document.
///
/// Cloning is cheap and shares the metric space — a registry is an `Arc` at heart.
/// [`Registry::global`] is the process-wide default every layer falls back to;
/// subsystems that need isolation (a server instance, a determinism test) construct
/// their own with [`Registry::new`] and inject it.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters = self.inner.counters.lock().map(|m| m.len()).unwrap_or(0);
        let gauges = self.inner.gauges.lock().map(|m| m.len()).unwrap_or(0);
        let histograms = self.inner.histograms.lock().map(|m| m.len()).unwrap_or(0);
        let spans = self.inner.spans.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry")
            .field("counters", &counters)
            .field("gauges", &gauges)
            .field("histograms", &histograms)
            .field("spans", &spans)
            .finish()
    }
}

impl Registry {
    /// Creates an empty, private registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry: what instrumented layers use when none is injected.
    pub fn global() -> Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new).clone()
    }

    /// Resolves (registering on first use) the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("telemetry lock");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Resolves (registering on first use) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("telemetry lock");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Resolves (registering on first use) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().expect("telemetry lock");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Resolves (registering on first use) the span called `name`.
    pub fn span(&self, name: &str) -> Span {
        let mut map = self.inner.spans.lock().expect("telemetry lock");
        let core = map.entry(name.to_owned()).or_default();
        Span {
            name: Arc::from(name),
            core: Arc::clone(core),
        }
    }

    /// The current value of the counter called `name`; 0 if it was never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        let map = self.inner.counters.lock().expect("telemetry lock");
        map.get(name).map(Counter::get).unwrap_or(0)
    }

    /// The current value of the gauge called `name`; 0 if it was never registered.
    pub fn gauge_value(&self, name: &str) -> u64 {
        let map = self.inner.gauges.lock().expect("telemetry lock");
        map.get(name).map(Gauge::get).unwrap_or(0)
    }

    /// Every registered counter whose name starts with `prefix`, sorted by name —
    /// the aggregation primitive behind e.g. per-tenant tables in `status` replies.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        let map = self.inner.counters.lock().expect("telemetry lock");
        map.range(prefix.to_owned()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(name, counter)| (name.clone(), counter.get()))
            .collect()
    }

    /// The full snapshot, host-dependent numbers quarantined under `timing`.
    ///
    /// Layout (keys in insertion order, metric names sorted):
    ///
    /// ```json
    /// {
    ///   "telemetry": "ccache-telemetry", "version": 1,
    ///   "counters": {"engine.batches": 3},
    ///   "gauges": {"serve.queue.depth": 0},
    ///   "histograms": {"serve.request.status": {"count": 2}},
    ///   "spans": {"exp.job": {"count": 5}},
    ///   "timing": {
    ///     "histograms": {"serve.request.status": {"sum": 184, "buckets": [...]}},
    ///     "spans": {"exp.job": {"total_nanos": 91504, "buckets_log2_us": [...]}}
    ///   }
    /// }
    /// ```
    pub fn snapshot(&self) -> Json {
        self.render(true)
    }

    /// The snapshot with the `timing` block removed: byte-identical across identical
    /// runs, the form determinism tests compare.
    pub fn snapshot_deterministic(&self) -> Json {
        self.render(false)
    }

    fn render(&self, timing: bool) -> Json {
        let counters = self.inner.counters.lock().expect("telemetry lock");
        let gauges = self.inner.gauges.lock().expect("telemetry lock");
        let histograms = self.inner.histograms.lock().expect("telemetry lock");
        let spans = self.inner.spans.lock().expect("telemetry lock");

        let counters_json = Json::obj(
            counters
                .iter()
                .map(|(name, c)| (name.as_str(), c.get().to_json())),
        );
        let gauges_json = Json::obj(
            gauges
                .iter()
                .map(|(name, g)| (name.as_str(), g.get().to_json())),
        );
        let histograms_json = Json::obj(
            histograms
                .iter()
                .map(|(name, h)| (name.as_str(), Json::obj([("count", h.count().to_json())]))),
        );
        let spans_json = Json::obj(spans.iter().map(|(name, s)| {
            (
                name.as_str(),
                Json::obj([("count", s.count.load(Ordering::Relaxed).to_json())]),
            )
        }));

        let mut doc = vec![
            ("telemetry", "ccache-telemetry".to_json()),
            ("version", 1u64.to_json()),
            ("counters", counters_json),
            ("gauges", gauges_json),
            ("histograms", histograms_json),
            ("spans", spans_json),
        ];
        if timing {
            let histograms_timing = Json::obj(histograms.iter().map(|(name, h)| {
                (
                    name.as_str(),
                    Json::obj([
                        ("sum", h.sum().to_json()),
                        ("buckets", h.core.buckets_json()),
                    ]),
                )
            }));
            let spans_timing = Json::obj(spans.iter().map(|(name, s)| {
                let micros = Json::arr(s.micros.iter().enumerate().filter_map(|(k, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| {
                        Json::obj([("log2", (k as u64).to_json()), ("count", n.to_json())])
                    })
                }));
                (
                    name.as_str(),
                    Json::obj([
                        (
                            "total_nanos",
                            s.total_nanos.load(Ordering::Relaxed).to_json(),
                        ),
                        ("buckets_log2_us", micros),
                    ]),
                )
            }));
            doc.push((
                "timing",
                Json::obj([("histograms", histograms_timing), ("spans", spans_timing)]),
            ));
        }
        Json::obj(doc)
    }
}

/// The convenient imports: `use ccache_telemetry::prelude::*;`.
pub mod prelude {
    pub use crate::{Counter, Gauge, Histogram, Registry, Span};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        for k in 0..64u32 {
            let low = 1u64 << k;
            assert_eq!(bucket_of(low), k as usize + 1, "2^{k}");
            if k > 0 {
                assert_eq!(bucket_of(low - 1), k as usize, "2^{k} - 1");
            }
        }
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_and_gauges_share_cells_across_resolutions() {
        let registry = Registry::new();
        registry.counter("a.b").add(2);
        registry.counter("a.b").incr();
        assert_eq!(registry.counter_value("a.b"), 3);
        let gauge = registry.gauge("g");
        gauge.set(10);
        registry.gauge("g").sub(4);
        assert_eq!(gauge.get(), 6);
        gauge.sub(100); // saturates, never wraps
        assert_eq!(registry.gauge_value("g"), 0);
    }

    #[test]
    fn histogram_records_into_log2_buckets() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        for v in [0, 1, 2, 3, 900, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1930);
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(10), 1); // 900
        assert_eq!(h.bucket(11), 1); // 1024
    }

    #[test]
    fn spans_count_deterministically() {
        let registry = Registry::new();
        let span = registry.span("work");
        drop(span.start());
        drop(span.start());
        assert_eq!(span.count(), 2);
        assert_eq!(registry.span("work").count(), 2);
    }

    #[test]
    fn snapshot_is_deterministic_modulo_timing() {
        let run = || {
            let registry = Registry::new();
            registry.counter("engine.batches").add(7);
            registry.gauge("serve.queue.depth").set(0);
            let h = registry.histogram("serve.request.status");
            h.record(12); // "duration" — varies run to run in real use
            let span = registry.span("exp.job");
            drop(span.start());
            registry
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.snapshot_deterministic().pretty(),
            b.snapshot_deterministic().pretty()
        );
        // The full snapshot carries the quarantined block...
        let full = a.snapshot();
        assert!(full.get("timing").is_some());
        // ...and deleting it recovers exactly the deterministic form.
        let timing = full.get("timing").unwrap();
        assert!(timing.get("spans").unwrap().get("exp.job").is_some());
    }

    #[test]
    fn prefix_scan_returns_sorted_matches_only() {
        let registry = Registry::new();
        registry.counter("serve.tenant.alice.requests").add(3);
        registry.counter("serve.tenant.bob.requests").add(1);
        registry.counter("serve.verb.status").add(9);
        let scan = registry.counters_with_prefix("serve.tenant.");
        assert_eq!(
            scan,
            vec![
                ("serve.tenant.alice.requests".to_owned(), 3),
                ("serve.tenant.bob.requests".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn registry_clones_share_the_metric_space() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.counter("x").incr();
        assert_eq!(registry.counter_value("x"), 1);
        // global() always hands out the same space
        let token = format!("test.global.{}", std::process::id());
        Registry::global().counter(&token).incr();
        assert_eq!(Registry::global().counter_value(&token), 1);
    }

    #[test]
    fn handles_are_lock_free_after_resolution() {
        // Not a perf test — a liveness check that recording while the registry mutex is
        // held by another thread cannot deadlock (handles never take the map locks).
        let registry = Registry::new();
        let counter = registry.counter("contended");
        let map_guard = registry.inner.counters.lock().unwrap();
        counter.add(5);
        drop(map_guard);
        assert_eq!(counter.get(), 5);
    }
}
