//! The replay engine: batched trace replay over a pluggable memory backend.
//!
//! The seed replayed traces one reference at a time through a concrete `MemorySystem`.
//! [`ReplayEngine`] replaces that path:
//!
//! * references are fed to the backend in **batches** ([`MemoryBackend::run_batch`]),
//!   which lets the column-cache backend short-circuit address translation for
//!   consecutive same-page references — statistics stay identical to per-reference
//!   replay, only wall-clock time changes;
//! * every replay starts from a freshly constructed engine: remapping only writes the
//!   tint table, so there is no warm state worth saving, and building a backend costs
//!   no more than restoring a saved copy would;
//! * the backend is a `Box<dyn MemoryBackend>`, so the same engine drives the column
//!   cache, the set-associative baseline or the ideal scratchpad.

use crate::error::CoreError;
use crate::observe::{ReplayObserver, WindowTracker};
use crate::runner::{CacheMapping, RunResult};
use ccache_sim::backend::{build_backend, BackendKind, MemoryBackend};
use ccache_sim::SystemConfig;
use ccache_telemetry::{Counter, Registry};
use ccache_trace::binfmt::TraceReader;
use ccache_trace::{MemAccess, Trace};

/// References handed to the backend per [`MemoryBackend::run_batch`] call.
///
/// Large enough to amortise the per-batch bookkeeping and keep the last-page translation
/// cache effective, small enough that the staging buffer stays in L1/L2.
const DEFAULT_BATCH: usize = 4096;

/// Why the in-memory replay methods unwrap: only a [`Source::Reader`] can fail.
const IN_MEMORY: &str = "in-memory replay sources cannot fail";

/// Where a replay's references come from.
enum Source<'a> {
    /// An in-memory trace, staged into the engine buffer one batch at a time.
    Trace(&'a [MemAccess]),
    /// Already-decoded references, handed to [`MemoryBackend::run_batch`] directly.
    Refs(&'a [(u64, bool)]),
    /// A streaming decoder, read into the engine buffer one batch at a time.
    Reader(&'a mut dyn ReadChunk),
}

/// [`TraceReader::read_chunk`] behind a trait object, so the replay loop is not
/// generic over the reader's byte source.
trait ReadChunk {
    fn read_chunk(&mut self, buf: &mut Vec<(u64, bool)>, max: usize) -> std::io::Result<usize>;
}

impl<R: std::io::BufRead> ReadChunk for TraceReader<R> {
    fn read_chunk(&mut self, buf: &mut Vec<(u64, bool)>, max: usize) -> std::io::Result<usize> {
        TraceReader::read_chunk(self, buf, max)
    }
}

/// Batched trace replay over a pluggable memory backend.
///
/// # Example: build a backend, program tints, replay, read stats
///
/// ```
/// use ccache_core::engine::ReplayEngine;
/// use ccache_core::runner::{CacheMapping, RegionMapping};
/// use ccache_sim::backend::BackendKind;
/// use ccache_sim::{ColumnMask, SystemConfig};
/// use ccache_trace::synth::sequential_scan;
///
/// let config = SystemConfig { page_size: 256, ..SystemConfig::default() };
/// let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config)?;
///
/// // Program tints: confine a streaming region to column 3 so it cannot evict the rest.
/// let mut mapping = CacheMapping::new();
/// mapping.map(0x10_0000, 16 * 1024, RegionMapping::Columns { mask: ColumnMask::single(3) });
/// engine.apply(&mapping)?;
///
/// // Replay a trace and read the statistics.
/// let trace = sequential_scan(0x10_0000, 16 * 1024, 32, 4, 2, None);
/// let result = engine.replay("stream", &trace);
/// assert_eq!(result.references, trace.len() as u64);
/// assert!(result.total_cycles() > 0);
/// assert!(result.miss_rate() > 0.0);
/// # Ok::<(), ccache_core::CoreError>(())
/// ```
pub struct ReplayEngine {
    backend: Box<dyn MemoryBackend>,
    batch: usize,
    buffer: Vec<(u64, bool)>,
    telemetry: EngineTelemetry,
}

/// Pre-resolved telemetry handles, bound once per engine so the replay loop never
/// touch the registry. All accounting happens *after* a replay finishes (the counters
/// are fed from the backend's own statistics), so the hot loop is untouched and results
/// stay byte-identical with or without a registry attached.
struct EngineTelemetry {
    replays: Counter,
    batches: Counter,
    references: Counter,
    tlb_hits: Counter,
    tlb_misses: Counter,
    memo_translation_hits: Counter,
    memo_tint_hits: Counter,
    coalesced_windows: Counter,
}

impl EngineTelemetry {
    fn bind(registry: &Registry) -> Self {
        EngineTelemetry {
            replays: registry.counter("engine.replays"),
            batches: registry.counter("engine.batches"),
            references: registry.counter("engine.references"),
            tlb_hits: registry.counter("engine.tlb.hits"),
            tlb_misses: registry.counter("engine.tlb.misses"),
            memo_translation_hits: registry.counter("engine.memo.translation_hits"),
            memo_tint_hits: registry.counter("engine.memo.tint_hits"),
            coalesced_windows: registry.counter("engine.observe.coalesced_windows"),
        }
    }

    /// Post-replay accounting: fold the backend's per-replay statistics (absolute since
    /// the `reset_stats` at replay start) into the counters.
    fn record_replay(&self, backend: &dyn MemoryBackend, batches: u64) {
        let stats = backend.stats();
        let memo = backend.memo_stats();
        self.replays.incr();
        self.batches.add(batches);
        self.references.add(stats.references);
        self.tlb_hits.add(stats.tlb_hits);
        self.tlb_misses.add(stats.tlb_misses);
        self.memo_translation_hits.add(memo.translation_hits);
        self.memo_tint_hits.add(memo.tint_hits);
    }

    /// Counts the coalesced tail of an observed replay: when `window` does not divide
    /// the reference count, the remainder is emitted as one final *partial* window
    /// rather than silently truncated — this counter is the visible record of that.
    fn record_observed_tail(&self, backend: &dyn MemoryBackend, window: u64) {
        let references = backend.stats().references;
        if references > 0 && window > 0 && !references.is_multiple_of(window) {
            self.coalesced_windows.incr();
        }
    }
}

impl ReplayEngine {
    /// Creates an engine over a freshly built backend of the given kind.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(kind: BackendKind, config: SystemConfig) -> Result<Self, CoreError> {
        Ok(ReplayEngine::from_backend(build_backend(kind, config)?))
    }

    /// Creates an engine over an existing backend.
    pub fn from_backend(backend: Box<dyn MemoryBackend>) -> Self {
        ReplayEngine {
            backend,
            batch: DEFAULT_BATCH,
            buffer: Vec::with_capacity(DEFAULT_BATCH),
            telemetry: EngineTelemetry::bind(&Registry::global()),
        }
    }

    /// Rebinds the engine's telemetry to `registry` (the process-wide
    /// [`Registry::global`] is bound at construction). Sessions and servers that own a
    /// private registry route their engines here; results are unaffected — telemetry
    /// accounting happens outside the replay loop, from statistics the backend
    /// maintains anyway.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = EngineTelemetry::bind(registry);
    }

    /// Read-only view of the backend.
    pub fn backend(&self) -> &dyn MemoryBackend {
        self.backend.as_ref()
    }

    /// Mutable access to the backend, for control operations between replays.
    pub fn backend_mut(&mut self) -> &mut dyn MemoryBackend {
        self.backend.as_mut()
    }

    /// Overrides the batch size (mainly for tests and the bench harness; 0 is treated
    /// as 1). This is the **only** place the ≥ 1 invariant is enforced — the replay
    /// loop relies on it and never re-clamps.
    pub fn set_batch_size(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Programs a cache mapping into the backend.
    ///
    /// # Errors
    ///
    /// Returns an error if a mask in the mapping is invalid for the backend's cache.
    pub fn apply(&mut self, mapping: &CacheMapping) -> Result<(), CoreError> {
        mapping.apply(self.backend.as_mut())
    }

    /// Replays a trace in batches and collects a [`RunResult`].
    ///
    /// Statistics are reset first and cover this replay only, like
    /// [`run_on`](crate::runner::run_on); control cycles spent programming the backend
    /// beforehand are carried into the result. The result is bit-identical to
    /// per-reference replay — batching only changes wall-clock time.
    pub fn replay(&mut self, name: &str, trace: &Trace) -> RunResult {
        self.run(name, Source::Trace(trace.as_slice()), None)
            .expect(IN_MEMORY)
    }

    /// As [`ReplayEngine::replay`], over already-decoded `(addr, is_write)` references.
    ///
    /// The tuner decodes its trace once into a shared arena and every candidate replays
    /// from it: chunks of `refs` go to [`MemoryBackend::run_batch`] directly, with no
    /// staging copy. Batch boundaries are identical to the trace path, so for the same
    /// event stream the result is byte-identical.
    pub fn replay_refs(&mut self, name: &str, refs: &[(u64, bool)]) -> RunResult {
        self.run(name, Source::Refs(refs), None).expect(IN_MEMORY)
    }

    /// Replays a binary-format trace straight from a streaming [`TraceReader`], without
    /// materialising it in memory: events are decoded into the engine's staging buffer
    /// one batch at a time and fed to [`MemoryBackend::run_batch`], so a trace file
    /// larger than RAM replays in bounded memory.
    ///
    /// Statistics behave exactly like [`ReplayEngine::replay`], and for the same event
    /// stream the results are bit-identical (property-tested in
    /// `tests/trace_format.rs`).
    ///
    /// # Errors
    ///
    /// Propagates I/O and format errors from the reader; the replay stops at the first
    /// bad batch.
    pub fn replay_reader<R: std::io::BufRead>(
        &mut self,
        name: &str,
        reader: &mut TraceReader<R>,
    ) -> std::io::Result<RunResult> {
        self.run(name, Source::Reader(reader), None)
    }

    /// As [`ReplayEngine::replay`], with a streaming [`ReplayObserver`] receiving one
    /// [`WindowSample`](crate::observe::WindowSample) every `window` references (plus a
    /// final partial window).
    ///
    /// Window boundaries only shorten *batch* boundaries, and batch size never changes
    /// statistics, so the returned [`RunResult`] is byte-identical to an unobserved
    /// [`ReplayEngine::replay`] of the same trace (property-tested in
    /// `tests/observer_parity.rs`).
    pub fn replay_observed(
        &mut self,
        name: &str,
        trace: &Trace,
        window: u64,
        observer: &mut dyn ReplayObserver,
    ) -> RunResult {
        self.run(
            name,
            Source::Trace(trace.as_slice()),
            Some((window, observer)),
        )
        .expect(IN_MEMORY)
    }

    /// As [`ReplayEngine::replay_reader`], with a streaming [`ReplayObserver`] — the
    /// observed counterpart for traces replayed straight from disk. Statistics are
    /// identical to the unobserved streaming replay.
    ///
    /// # Errors
    ///
    /// Propagates I/O and format errors from the reader.
    pub fn replay_reader_observed<R: std::io::BufRead>(
        &mut self,
        name: &str,
        reader: &mut TraceReader<R>,
        window: u64,
        observer: &mut dyn ReplayObserver,
    ) -> std::io::Result<RunResult> {
        self.run(name, Source::Reader(reader), Some((window, observer)))
    }

    /// The replay loop behind every public replay method.
    ///
    /// Each batch holds at most the batch size ([`ReplayEngine::set_batch_size`])
    /// references and, when observed, never crosses a window boundary. After each batch
    /// the window tracker emits any completed window; once the source is exhausted it
    /// flushes the final partial window. Telemetry is fed from the backend's statistics
    /// after the loop.
    fn run(
        &mut self,
        name: &str,
        mut source: Source<'_>,
        observed: Option<(u64, &mut dyn ReplayObserver)>,
    ) -> std::io::Result<RunResult> {
        let control_before = self.backend.control_cycles();
        self.backend.reset_stats();
        let mut observed =
            observed.map(|(window, observer)| (window, WindowTracker::new(window), observer));
        let mut pos = 0usize;
        let mut batches = 0u64;
        loop {
            let cap = match &observed {
                Some((_, tracker, _)) => {
                    (tracker.until_boundary(pos as u64) as usize).min(self.batch)
                }
                None => self.batch,
            };
            self.buffer.clear();
            let chunk: &[(u64, bool)] = match &mut source {
                Source::Trace(events) => {
                    let end = (pos + cap).min(events.len());
                    self.buffer
                        .extend(events[pos..end].iter().map(|ev| (ev.addr, ev.is_write())));
                    &self.buffer
                }
                Source::Refs(refs) => &refs[pos..(pos + cap).min(refs.len())],
                Source::Reader(reader) => {
                    reader.read_chunk(&mut self.buffer, cap)?;
                    &self.buffer
                }
            };
            if chunk.is_empty() {
                break;
            }
            self.backend.run_batch(chunk);
            pos += chunk.len();
            batches += 1;
            if let Some((_, tracker, observer)) = &mut observed {
                tracker.observe(self.backend.as_ref(), &mut **observer, false);
            }
        }
        self.telemetry.record_replay(self.backend.as_ref(), batches);
        if let Some((window, mut tracker, observer)) = observed {
            tracker.observe(self.backend.as_ref(), observer, true);
            self.telemetry
                .record_observed_tail(self.backend.as_ref(), window);
        }
        Ok(crate::runner::collect_result(
            name,
            self.backend.as_ref(),
            control_before,
        ))
    }
}

impl std::fmt::Debug for ReplayEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayEngine")
            .field("backend", &self.backend.name())
            .field("batch", &self.batch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_on, RegionMapping};
    use ccache_sim::{ColumnMask, MemorySystem};
    use ccache_trace::synth::sequential_scan;

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
        m.map(0x8000, 256, RegionMapping::Uncached);
        m
    }

    fn trace() -> ccache_trace::Trace {
        let hot = sequential_scan(0x0, 512, 32, 4, 2, None);
        let stream = sequential_scan(0x10_0000, 16 * 1024, 32, 4, 1, None);
        let uncached = sequential_scan(0x8000, 256, 32, 4, 1, None);
        ccache_trace::Trace::concat([&hot, &stream, &uncached])
    }

    #[test]
    fn batched_replay_matches_per_reference_replay() {
        let t = trace();
        let m = mapping();

        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        engine.apply(&m).unwrap();
        let batched = engine.replay("x", &t);

        let mut system = MemorySystem::new(config()).unwrap();
        m.apply(&mut system).unwrap();
        let per_ref = run_on("x", &mut system, &t).unwrap();

        assert_eq!(batched, per_ref);
    }

    /// Every public replay entry point — `&Trace`, refs slice and `TraceReader`,
    /// unobserved and observed — over every batch size, including an empty trace:
    /// identical results, identical batch counts across sources, and identical window
    /// series between in-memory and streamed observation and across batch sizes.
    #[test]
    fn every_replay_source_agrees() {
        use crate::observe::SeriesRecorder;
        use ccache_trace::binfmt::write_trace;

        let engine = |batch: usize, registry: &Registry| {
            let mut e = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
            e.apply(&mapping()).unwrap();
            e.set_batch_size(batch);
            e.set_telemetry(registry);
            e
        };
        for t in [ccache_trace::Trace::new(), trace()] {
            let refs: Vec<(u64, bool)> = t
                .as_slice()
                .iter()
                .map(|ev| (ev.addr, ev.is_write()))
                .collect();
            let mut bytes = Vec::new();
            write_trace(&t, &mut bytes).unwrap();
            let oracle = engine(DEFAULT_BATCH, &Registry::new()).replay("x", &t);
            assert_eq!(oracle.references, t.len() as u64);
            let windows = [1, 7, 4097, t.len() as u64];
            let mut first_series = Vec::new();

            for batch in [1, 3, 4096] {
                let case = format!("len={} batch={batch}", t.len());
                let mut batches = Vec::new();
                for source in 0..3 {
                    let registry = Registry::new();
                    let mut e = engine(batch, &registry);
                    let result = match source {
                        0 => e.replay("x", &t),
                        1 => e.replay_refs("x", &refs),
                        _ => e
                            .replay_reader("x", &mut TraceReader::new(&bytes[..]).unwrap())
                            .unwrap(),
                    };
                    assert_eq!(result, oracle, "{case} source={source}");
                    batches.push(registry.counter_value("engine.batches"));
                }
                assert_eq!(batches, [t.len().div_ceil(batch) as u64; 3], "{case}");

                for (w, &window) in windows.iter().enumerate() {
                    let case = format!("{case} window={window}");
                    let (in_memory, streamed) = (Registry::new(), Registry::new());
                    let mut a = SeriesRecorder::new(window);
                    let from_trace =
                        engine(batch, &in_memory).replay_observed("x", &t, window, &mut a);
                    let mut b = SeriesRecorder::new(window);
                    let mut reader = TraceReader::new(&bytes[..]).unwrap();
                    let from_reader = engine(batch, &streamed)
                        .replay_reader_observed("x", &mut reader, window, &mut b)
                        .unwrap();
                    assert_eq!(from_trace, oracle, "{case}");
                    assert_eq!(from_reader, oracle, "{case}");
                    assert_eq!(a.series().samples, b.series().samples, "{case}");
                    if first_series.len() == w {
                        first_series.push(a.series().samples.clone());
                    }
                    assert_eq!(a.series().samples, first_series[w], "{case}");
                    assert_eq!(a.series().total_references(), t.len() as u64, "{case}");
                    assert_eq!(
                        in_memory.counter_value("engine.batches"),
                        streamed.counter_value("engine.batches"),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_drives_every_backend_kind() {
        let t = trace();
        for kind in BackendKind::ALL {
            let mut engine = ReplayEngine::new(kind, config()).unwrap();
            engine.apply(&mapping()).unwrap();
            let result = engine.replay("k", &t);
            assert_eq!(result.references, t.len() as u64);
            assert!(result.total_cycles() > 0);
        }
    }
}
