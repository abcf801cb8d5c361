//! Telemetry determinism: an observed tuning search must produce byte-identical
//! deterministic snapshots (`Registry::snapshot_deterministic`, i.e. the full
//! snapshot minus the quarantined `timing` block) across identical runs. This is the
//! contract that makes metrics diffable in CI: any snapshot change signals a
//! behaviour change, never host noise. (The serve-session half of the same contract
//! lives in `ccache-serve`'s telemetry suite, next to the server it exercises.)

use ccache_json::ToJson;
use column_caching::opt::{tune_observed, TuneRequest};
use column_caching::telemetry::Registry;

#[test]
fn observed_tuning_reports_identical_metrics_across_runs() {
    let run = || {
        let registry = Registry::new();
        let workload = column_caching::workloads::corpus("fir", true).expect("corpus");
        let request = TuneRequest {
            budget: 8,
            ..TuneRequest::default()
        };
        let outcome = tune_observed(
            &workload.trace,
            &workload.symbols,
            &request,
            &registry,
            None,
        )
        .expect("tune");
        let evaluations = registry.counter_value("opt.evaluations");
        let cache_misses = registry.counter_value("opt.fitness_cache.misses");
        (
            outcome.to_json().pretty(),
            registry.snapshot_deterministic().pretty(),
            (evaluations, cache_misses),
        )
    };
    let (outcome_a, snapshot_a, (evaluations, cache_misses)) = run();
    let (outcome_b, snapshot_b, _) = run();
    assert_eq!(outcome_a, outcome_b, "tuning itself is deterministic");
    assert_eq!(
        snapshot_a, snapshot_b,
        "and so is everything its telemetry reports (modulo timing)"
    );
    assert!(snapshot_a.contains("opt.generations"));
    assert!(snapshot_a.contains("opt.evaluations"));
    assert!(snapshot_a.contains("opt.best.misses"));
    // the fitness cache reports its activity: every miss is exactly one replay
    assert!(snapshot_a.contains("opt.fitness_cache.hits"));
    assert!(snapshot_a.contains("opt.fitness_cache.misses"));
    assert!(evaluations >= 1);
    assert_eq!(cache_misses, evaluations);
}
