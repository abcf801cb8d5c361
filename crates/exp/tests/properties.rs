//! Property tests of the planner's dedup guarantee (a satellite requirement of the
//! experiment-layer PR): expanding a spec and deduplicating by canonical key must
//! **never drop a distinct job and never reorder jobs** — the planned sequence is
//! exactly the expanded sequence with later duplicates removed, mirroring the
//! `ccache-opt` fitness-cache guarantee that the same configuration is evaluated once.

use ccache_exp::plan::{expand, plan};
use ccache_exp::spec::{
    ExperimentSpec, GeometrySpec, GzipJobSpec, LabelScheme, MtConfigSpec, MultitaskGrid,
    PolicySpec, ReplayGrid, WorkloadSel,
};
use ccache_sim::backend::BackendKind;
use proptest::prelude::*;

const WORKLOADS: [&str; 4] = ["fir", "triad", "mpeg-idct", "gzip"];

fn workload_pool() -> Vec<WorkloadSel> {
    WORKLOADS
        .iter()
        .map(|name| WorkloadSel::Corpus {
            name: (*name).to_owned(),
        })
        .chain([WorkloadSel::Trace {
            path: "traces/a.cct".to_owned(),
        }])
        .collect()
}

fn geometry_pool() -> Vec<GeometrySpec> {
    vec![
        GeometrySpec::default(),
        GeometrySpec {
            columns: 2,
            ..GeometrySpec::default()
        },
        GeometrySpec {
            capacity: 4096,
            columns: 8,
            ..GeometrySpec::default()
        },
    ]
}

fn policy_pool() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Shared,
        PolicySpec::Heuristic,
        PolicySpec::RoundRobin,
        PolicySpec::PartitionSweep,
        PolicySpec::Partition { cache_columns: 1 },
        PolicySpec::DynamicPhases,
        PolicySpec::Fixed {
            assignment: vec![("x".to_owned(), vec![0, 1])],
        },
        PolicySpec::Tuned {
            strategy: Default::default(),
            budget: 8,
            seed: 1,
        },
    ]
}

/// Builds a spec from index vectors (duplicates very likely): every axis draws with
/// replacement from a small pool.
fn spec_from_indices(
    wl: Vec<usize>,
    be: Vec<usize>,
    ge: Vec<usize>,
    po: Vec<usize>,
    grids: usize,
    mt_quanta: Vec<usize>,
) -> ExperimentSpec {
    let wl_pool = workload_pool();
    let ge_pool = geometry_pool();
    let po_pool = policy_pool();
    let grid = ReplayGrid {
        workloads: wl
            .iter()
            .map(|&i| wl_pool[i % wl_pool.len()].clone())
            .collect(),
        backends: be
            .iter()
            .map(|&i| BackendKind::ALL[i % BackendKind::ALL.len()])
            .collect(),
        geometries: ge.iter().map(|&i| ge_pool[i % ge_pool.len()]).collect(),
        policies: po
            .iter()
            .map(|&i| po_pool[i % po_pool.len()].clone())
            .collect(),
        label: LabelScheme::Full,
    };
    let multitask = if mt_quanta.is_empty() {
        Vec::new()
    } else {
        vec![MultitaskGrid {
            jobs: vec![
                GzipJobSpec {
                    name: "a".into(),
                    seed: 1,
                    base: 0x100_0000,
                },
                GzipJobSpec {
                    name: "b".into(),
                    seed: 2,
                    base: 0x200_0000,
                },
            ],
            configs: vec![MtConfigSpec {
                label: "m".into(),
                capacity: 8 * 1024,
                columns: 8,
                line: 32,
                page: 1024,
                critical_columns: 4,
                latency: Default::default(),
            }],
            policies: vec![
                ccache_core::multitask::SharingPolicy::Shared,
                ccache_core::multitask::SharingPolicy::Mapped,
            ],
            quanta: mt_quanta.iter().map(|&q| 1 + (q % 64)).collect(),
        }]
    };
    ExperimentSpec {
        name: "prop".into(),
        // Repeating the same grid `grids` times multiplies duplicates across grids.
        replay: std::iter::repeat_n(grid, grids).collect(),
        multitask,
    }
}

/// The reference dedup: first occurrence wins, order preserved.
fn naive_dedup(keys: &[String]) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    keys.iter()
        .filter(|k| seen.insert((*k).clone()))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planner_dedup_never_drops_or_reorders(
        wl in prop::collection::vec(0usize..16, 1..5),
        be in prop::collection::vec(0usize..16, 1..4),
        ge in prop::collection::vec(0usize..16, 1..4),
        po in prop::collection::vec(0usize..16, 1..5),
        grids in 1usize..=3,
        quanta in prop::collection::vec(0usize..256, 0..5),
    ) {
        let spec = spec_from_indices(wl, be, ge, po, grids, quanta);
        let expanded = expand(&spec);
        let expanded_keys: Vec<String> = expanded.iter().map(|j| j.key()).collect();
        let planned = plan(&spec);
        let planned_keys: Vec<String> = planned.jobs.iter().map(|j| j.key()).collect();

        // Accounting: the plan reports the true expansion size.
        prop_assert_eq!(planned.expanded, expanded.len());
        prop_assert_eq!(spec.job_count(), expanded.len() as u64);

        // No duplicates survive planning.
        let unique: std::collections::HashSet<&String> = planned_keys.iter().collect();
        prop_assert_eq!(unique.len(), planned_keys.len());

        // Nothing is dropped and nothing is reordered: the plan is exactly the naive
        // first-occurrence dedup of the expansion.
        prop_assert_eq!(&planned_keys, &naive_dedup(&expanded_keys));

        // Every planned job is literally one of the expanded jobs (same payload, not
        // just the same key).
        for job in &planned.jobs {
            prop_assert!(expanded.contains(job));
        }
    }

    #[test]
    fn planning_is_idempotent_and_duplication_invariant(
        wl in prop::collection::vec(0usize..16, 1..4),
        po in prop::collection::vec(0usize..16, 1..4),
        grids in 1usize..=3,
    ) {
        let once = spec_from_indices(wl.clone(), vec![0], vec![0], po.clone(), 1, vec![]);
        let many = spec_from_indices(wl, vec![0], vec![0], po, grids, vec![]);
        let plan_once = plan(&once);
        let plan_many = plan(&many);
        // Repeating the same grid any number of times cannot change the planned work.
        prop_assert_eq!(&plan_once.jobs, &plan_many.jobs);
        // Planning is deterministic.
        prop_assert_eq!(&plan(&once).jobs, &plan_once.jobs);
    }
}
