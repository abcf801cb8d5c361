//! Property tests of the observer contract: watching a replay never changes it.
//!
//! The streaming [`ReplayObserver`] API promises that (a) an observed replay produces
//! **byte-identical** statistics and artefacts to an unobserved one, and (b) the
//! windowed time series *reconciles*: its per-window deltas sum to the final
//! [`CacheStats`]-derived totals of the run. Both halves are stated here over random
//! traces, window sizes, backends and batch sizes.

use ccache_json::{Json, ToJson};
use column_caching::core::engine::ReplayEngine;
use column_caching::core::observe::{ReplayEvent, ReplayObserver, SeriesRecorder, WindowSample};
use column_caching::exp::exec::{ExecOptions, ObserveOptions};
use column_caching::exp::ExperimentSpec;
use column_caching::prelude::*;
use column_caching::sim::{BackendKind, SystemConfig};
use column_caching::trace::synth::sequential_scan;
use proptest::prelude::*;

fn config() -> SystemConfig {
    SystemConfig {
        page_size: 256,
        ..SystemConfig::default()
    }
}

/// A synthetic trace mixing a hot region, a stream and a revisit, sized by the inputs.
fn mixed_trace(hot_passes: usize, stream_kib: u64) -> Trace {
    let hot = sequential_scan(0x0, 512, 32, 4, hot_passes, None);
    let stream = sequential_scan(0x10_0000, stream_kib * 1024, 32, 4, 1, None);
    let again = sequential_scan(0x0, 512, 32, 4, 1, None);
    Trace::concat([&hot, &stream, &again])
}

/// An observer that counts callbacks but records nothing — attaching it must be free.
#[derive(Default)]
struct CountingObserver {
    windows: usize,
    events: usize,
}

impl ReplayObserver for CountingObserver {
    fn on_window(&mut self, _sample: &WindowSample) {
        self.windows += 1;
    }
    fn on_event(&mut self, _event: &ReplayEvent) {
        self.events += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observed and unobserved replays produce identical `RunResult`s for every
    /// backend, window size and batch size, and the window series reconciles with the
    /// final statistics.
    #[test]
    fn observed_replay_is_byte_identical_and_reconciles(
        hot_passes in 1usize..4,
        stream_kib in 1u64..24,
        window in 1u64..5000,
        batch in 1usize..3000,
        backend_idx in 0usize..BackendKind::ALL.len(),
    ) {
        let backend = BackendKind::ALL[backend_idx];
        let trace = mixed_trace(hot_passes, stream_kib);

        let mut plain = ReplayEngine::new(backend, config()).unwrap();
        plain.set_batch_size(batch);
        let expected = plain.replay("x", &trace);

        let mut observed = ReplayEngine::new(backend, config()).unwrap();
        observed.set_batch_size(batch);
        let mut recorder = SeriesRecorder::new(window);
        let result = observed.replay_observed("x", &trace, window, &mut recorder);
        prop_assert_eq!(&result, &expected);

        let series = recorder.into_series();
        prop_assert_eq!(series.total_references(), result.references);
        prop_assert_eq!(series.total_misses(), result.misses);
        prop_assert_eq!(series.total_hits(), result.hits);
        prop_assert_eq!(series.total_memory_cycles(), result.memory_cycles);
        prop_assert_eq!(series.samples.len() as u64, result.references.div_ceil(window));
        // every full window holds exactly `window` references; starts are contiguous
        for (i, s) in series.samples.iter().enumerate() {
            prop_assert_eq!(s.index, i as u64);
            prop_assert_eq!(s.start, i as u64 * window);
            if (i as u64) < result.references / window {
                prop_assert_eq!(s.references, window);
            }
        }
    }

    /// A counting observer sees exactly the promised callbacks and changes nothing —
    /// including through the streaming (reader-based) replay path.
    #[test]
    fn streaming_observation_matches_in_memory(
        stream_kib in 1u64..16,
        window in 1u64..2000,
    ) {
        let trace = mixed_trace(2, stream_kib);
        let mut bytes = Vec::new();
        column_caching::trace::binfmt::write_trace(&trace, &mut bytes).unwrap();

        let mut in_memory = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        let expected = in_memory.replay("x", &trace);

        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, config()).unwrap();
        let mut reader = column_caching::trace::binfmt::TraceReader::new(&bytes[..]).unwrap();
        let mut counter = CountingObserver::default();
        let streamed = engine
            .replay_reader_observed("x", &mut reader, window, &mut counter)
            .unwrap();
        prop_assert_eq!(&streamed, &expected);
        prop_assert_eq!(counter.windows as u64, expected.references.div_ceil(window));
        prop_assert_eq!(counter.events, 0);
    }
}

/// The dynamically remapped (multi-phase) path: `run_dynamic_observed` returns results
/// byte-identical to `run_dynamic`, emits phase/remap events in order with run-global
/// reference offsets, and the recorder's cross-phase rebasing keeps window starts
/// contiguous across the whole run.
#[test]
fn dynamic_observation_is_byte_identical_and_events_are_ordered() {
    use column_caching::core::dynamic::{run_dynamic, run_dynamic_observed};
    use column_caching::core::partition::PartitionConfig;
    use column_caching::workloads::mpeg::{run_phases, MpegConfig};

    let (phases, symbols) = run_phases(&MpegConfig::small());
    let cfg = PartitionConfig::default();
    let plain = run_dynamic(&phases, &symbols, &cfg).unwrap();

    let window = 1000u64;
    let mut recorder = SeriesRecorder::new(window);
    let observed = run_dynamic_observed(&phases, &symbols, &cfg, window, &mut recorder).unwrap();
    assert_eq!(
        observed, plain,
        "observation must not change the dynamic run"
    );

    let series = recorder.into_series();
    let total_refs: u64 = plain.phases.iter().map(|p| p.result.references).sum();
    assert_eq!(series.total_references(), total_refs);
    assert_eq!(
        series.total_misses(),
        plain.phases.iter().map(|p| p.result.misses).sum::<u64>()
    );

    // per phase: start, remap, end — anchored at the cumulative reference offsets
    assert_eq!(series.events.len(), 3 * plain.phases.len());
    let mut cumulative = 0u64;
    for (i, phase) in plain.phases.iter().enumerate() {
        let [start, remap, end] = &series.events[3 * i..3 * i + 3] else {
            unreachable!("three events per phase");
        };
        assert_eq!(
            start,
            &ReplayEvent::PhaseStart {
                name: phase.name.clone(),
                at_ref: cumulative
            }
        );
        assert!(matches!(remap, ReplayEvent::Remap { label, at_ref, .. }
                         if label == &phase.name && *at_ref == cumulative));
        cumulative += phase.result.references;
        assert_eq!(
            end,
            &ReplayEvent::PhaseEnd {
                name: phase.name.clone(),
                at_ref: cumulative,
                cycles: phase.result.total_cycles()
            }
        );
    }

    // windows tile the whole run contiguously despite per-phase engine resets
    let mut expected_start = 0u64;
    for (i, s) in series.samples.iter().enumerate() {
        assert_eq!(s.index, i as u64);
        assert_eq!(s.start, expected_start);
        expected_start += s.references;
    }
    assert_eq!(expected_start, total_refs);
}

/// Executing a spec with a counting/recording observer attached yields an artefact that
/// — after deleting the `time_series` blocks — is **byte-identical** to the unobserved
/// artefact of the same spec.
#[test]
fn observed_artefacts_are_byte_identical_modulo_time_series() {
    let spec = ExperimentSpec::parse_str(
        r#"{"name": "parity", "replay": [{
            "workloads": ["fir", "mpeg-dequant"],
            "backends": ["column", "set-assoc"],
            "policies": ["shared", "heuristic"],
            "label": "full"
        }]}"#,
    )
    .unwrap();
    let plain = column_caching::exp::run_spec(
        &spec,
        &ExecOptions {
            quick: true,
            ..ExecOptions::default()
        },
    )
    .unwrap();
    // Observation AND telemetry together must still leave the artefact byte-identical
    // (modulo the time_series blocks observation adds): metrics are quarantined in the
    // registry, never in result bytes.
    let registry = column_caching::telemetry::Registry::new();
    let observed = column_caching::exp::run_spec(
        &spec,
        &ExecOptions {
            quick: true,
            observe: Some(ObserveOptions { window: 777 }),
            telemetry: Some(registry.clone()),
        },
    )
    .unwrap();

    fn strip_time_series(doc: &mut Json) {
        match doc {
            Json::Obj(pairs) => {
                pairs.retain(|(key, _)| key != "time_series");
                for (_, value) in pairs {
                    strip_time_series(value);
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(strip_time_series),
            _ => {}
        }
    }
    let strip = |artefact: &column_caching::exp::Artefact| -> String {
        let mut doc = artefact.to_json();
        strip_time_series(&mut doc);
        doc.pretty()
    };
    assert_ne!(
        strip(&plain),
        observed.to_json().pretty(),
        "the observed artefact must actually contain time_series blocks"
    );
    assert_eq!(
        strip(&plain),
        strip(&observed),
        "observation must not change anything but the time_series blocks"
    );

    // the registry actually watched the run: every job timed, every replay counted
    let snapshot = registry.snapshot_deterministic();
    assert!(
        registry.counter_value("engine.replays") >= observed.outcomes.len() as u64,
        "each planned job replays at least once"
    );
    assert_eq!(
        snapshot
            .get("spans")
            .and_then(|s| s.get("exp.job"))
            .and_then(|s| s.get("count"))
            .and_then(ccache_json::Json::as_u64),
        Some(observed.outcomes.len() as u64),
        "the executor times every planned job once"
    );

    // and the series totals reconcile with each job's final statistics
    for outcome in &observed.outcomes {
        let column_caching::exp::JobOutcome::Replay { result, series, .. } = outcome else {
            panic!("parity spec plans plain replays only");
        };
        let series = series.as_ref().expect("observed runs carry series");
        assert_eq!(series.window, 777);
        assert_eq!(series.total_references(), result.references);
        assert_eq!(series.total_misses(), result.misses);
    }
}
