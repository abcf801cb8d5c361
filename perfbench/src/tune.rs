//! `tune-evolve`: serial evolutionary tuning runs of Paper-scale `mpeg-combined`.
//!
//! The opt evaluator runs many short replays across the standard geometry search;
//! layout only runs inside `SearchSpace::build`. One op is one `tune_observed` call
//! with its own search seed.

use crate::harness::{digest_of, Counts, Ledger, OpOut, SerialWorkload, TracedPhase};
use crate::layers::{common, complete, counter_deltas, read_counters, Layers, ENGINE_COUNTERS};
use crate::stats::{median, ratio};
use crate::tracer::Tracer;
use ccache_core::{run_trace, CacheMapping, PartitionConfig};
use ccache_json::ToJson;
use ccache_layout::{assign_columns, conflict_graph_from_trace, LayoutOptions, WeightOptions};
use ccache_opt::strategy::{GenerationPoint, StrategyKind, TuneProgress};
use ccache_opt::{tune_observed, Fitness, GeometrySearch, SearchSpace, TuneOutcome, TuneRequest};
use ccache_sim::SystemConfig;
use ccache_telemetry::Registry;
use ccache_workloads::mpeg::run_combined;
use ccache_workloads::{MpegConfig, WorkloadRun};
use std::time::Instant;

/// Search seeds per pass; op `k` tunes with the `k`-th.
const SEARCHES: usize = 16;
/// Replay budget of one tuning run.
const BUDGET: usize = 192;

/// Counters of the opt layer an op reads back from its registry.
const OPT_COUNTERS: &[&str] = &[
    "opt.evaluations",
    "opt.generations",
    "opt.fitness_cache.hits",
    "opt.fitness_cache.misses",
    "opt.engine_pool.hits",
    "opt.engine_pool.builds",
    "opt.warmup.reused",
    "opt.warmup.full",
];

/// The seeded workload, the per-op search seeds and the first outcome of every op.
pub struct Tune {
    workload: WorkloadRun,
    template: SystemConfig,
    seeds: Vec<u64>,
    first: Vec<Option<TuneOutcome>>,
}

/// Records the instant of every completed generation.
struct Marks(Vec<Instant>);

impl TuneProgress for Marks {
    fn on_generation(&mut self, _point: &GenerationPoint) {
        self.0.push(Instant::now());
    }
}

impl Tune {
    fn request(&self, op: usize) -> TuneRequest {
        TuneRequest {
            template: self.template,
            geometry: GeometrySearch::standard(),
            strategy: StrategyKind::Evolutionary,
            budget: BUDGET,
            seed: self.seeds[op],
            serial: true,
            ..TuneRequest::default()
        }
    }

    fn tune(
        &self,
        op: usize,
        registry: &Registry,
        progress: Option<&mut dyn TuneProgress>,
    ) -> Result<(TuneOutcome, Counts), String> {
        let before_opt = read_counters(registry, OPT_COUNTERS);
        let before_engine = read_counters(registry, ENGINE_COUNTERS);
        let outcome = tune_observed(
            &self.workload.trace,
            &self.workload.symbols,
            &self.request(op),
            registry,
            progress,
        )
        .map_err(|e| e.to_string())?;
        let mut counts = Counts::new();
        counter_deltas(registry, OPT_COUNTERS, &before_opt, &mut counts);
        counter_deltas(registry, ENGINE_COUNTERS, &before_engine, &mut counts);
        counts.insert("opt.replays", outcome.replays as u64);
        counts.insert("sim.references", outcome.best.fitness.references);
        counts.insert("sim.misses", outcome.best.fitness.misses);
        counts.insert("sim.total_cycles", outcome.best.fitness.cycles);
        Ok((outcome, counts))
    }

    fn output(&mut self, op: usize, outcome: TuneOutcome, counts: Counts) -> OpOut {
        let out = OpOut {
            digest: digest_of(&outcome.to_json().compact()),
            sim_refs: counts["engine.references"],
            counts,
        };
        if self.first[op].is_none() {
            self.first[op] = Some(outcome);
        }
        out
    }

    /// The paper's heuristic layout on the template geometry, scored by a plain
    /// `run_trace` replay instead of the tuner's pooled fitness datapath.
    fn heuristic_by_replay(&self) -> Result<(Fitness, u64), String> {
        let cache = self.template.cache;
        let weights = WeightOptions {
            column_bytes: cache.column_bytes(),
            ..WeightOptions::default()
        };
        let (graph, units) =
            conflict_graph_from_trace(&self.workload.trace, &self.workload.symbols, &weights);
        let options = LayoutOptions {
            columns: cache.columns(),
            column_bytes: cache.column_bytes(),
            ..LayoutOptions::default()
        };
        let assignment = assign_columns(&graph, &options).map_err(|e| e.to_string())?;
        let mapping =
            CacheMapping::from_assignment(&assignment, &units, &self.workload.symbols, &[]);
        let run = run_trace("heuristic", self.template, &mapping, &self.workload.trace)
            .map_err(|e| e.to_string())?;
        Ok((Fitness::from_run(&run), assignment.cost))
    }
}

impl SerialWorkload for Tune {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let workload = tracer.span("workloads.gen", || {
            run_combined(&MpegConfig::default().with_seed(seed))
        });
        let template = PartitionConfig::default()
            .system_config()
            .map_err(|e| e.to_string())?;
        let seeds = (0..SEARCHES as u64)
            .map(|k| seed.wrapping_mul(1_000_003).wrapping_add(k))
            .collect();
        Ok(Tune {
            workload,
            template,
            seeds,
            first: vec![None; SEARCHES],
        })
    }

    fn ops(&self) -> usize {
        self.seeds.len()
    }

    fn run(&mut self, op: usize) -> Result<OpOut, String> {
        let (outcome, counts) = self.tune(op, &Registry::new(), None)?;
        Ok(self.output(op, outcome, counts))
    }

    fn run_traced(
        &mut self,
        op: usize,
        t: &mut Tracer,
        registry: &Registry,
    ) -> Result<OpOut, String> {
        // Outside the op span: the space build alone, which tune_observed repeats inside.
        let space = t.span("opt.space_build", || {
            SearchSpace::build(
                &self.workload.trace,
                &self.workload.symbols,
                self.template,
                &GeometrySearch::standard(),
                &[],
            )
        });
        let geometries = space.map_err(|e| e.to_string())?.geometries.len();

        t.enter("op");
        let start = Instant::now();
        let mut marks = Marks(Vec::new());
        let result = self.tune(op, registry, Some(&mut marks));
        // Before the first generation: space build, reference points, first round.
        let mut prev = start;
        for (i, &mark) in marks.0.iter().enumerate() {
            t.record(
                if i == 0 {
                    "opt.prepare"
                } else {
                    "opt.generation"
                },
                prev,
                mark,
            );
            prev = mark;
        }
        t.exit();
        let (outcome, counts) = result?;
        if outcome.geometries != geometries {
            return Err(format!(
                "op {op}: tune searched {} geometries, the space has {geometries}",
                outcome.geometries
            ));
        }
        Ok(self.output(op, outcome, counts))
    }

    fn verify(&mut self) -> Result<Vec<(usize, String)>, String> {
        let (heuristic, cost) = self.heuristic_by_replay()?;
        let mut wrong = Vec::new();
        for (op, outcome) in self.first.iter().enumerate() {
            let Some(o) = outcome else { continue };
            if o.heuristic.fitness != heuristic || o.heuristic.cost != Some(cost) {
                wrong.push((op, "heuristic score differs from a run_trace replay".into()));
            } else if o.best.fitness.key() > o.heuristic.fitness.key() {
                // The tuner ranks by (misses, cycles) and promises only that order.
                wrong.push((op, "best candidate ranks below the heuristic".into()));
            }
        }
        // The winner is reported per variable, not per layout unit, so it cannot be
        // replayed from outside; a second run of the same seed must repeat it exactly.
        if let Some(Some(first)) = self.first.first() {
            let (again, _) = self.tune(0, &Registry::new(), None)?;
            if again.to_json().compact() != first.to_json().compact() {
                wrong.push((0, "the same search seed gave a different outcome".into()));
            }
        }
        Ok(wrong)
    }

    fn extra(&self, plain: &Ledger) -> Vec<(&'static str, f64, &'static str)> {
        let secs = plain.elapsed.as_secs_f64();
        let replays = plain.counts.get("opt.replays").copied().unwrap_or(0);
        let ratios: Vec<f64> = self
            .first
            .iter()
            .flatten()
            .map(|o| {
                ratio(
                    o.best.fitness.cycles as f64,
                    o.heuristic.fitness.cycles as f64,
                )
            })
            .collect();
        vec![
            ("evals_per_s", ratio(replays as f64, secs), "1/s"),
            ("tune_cycles_ratio", median(&ratios), "ratio"),
        ]
    }

    fn layers(&self, traced: &TracedPhase) -> Layers {
        let mut l = common(traced);
        let times = traced.tracer.self_times();
        let (gen_ns, gens) = times.get("opt.generation").copied().unwrap_or((0, 0));
        let (build_ns, builds) = times.get("opt.space_build").copied().unwrap_or((0, 0));
        l.insert(
            "opt.generation_ms".into(),
            ratio(gen_ns as f64 / 1e6, gens as f64),
        );
        l.insert(
            "opt.space_build_ms".into(),
            ratio(build_ns as f64 / 1e6, builds as f64),
        );
        // Replays run inside tune_observed; their host time is what the generations take.
        let search_ns = gen_ns + times.get("opt.prepare").map_or(0, |t| t.0);
        l.insert(
            "replay.refs_per_s".into(),
            ratio(traced.sim_refs as f64, search_ns as f64 / 1e9),
        );
        complete(l)
    }

    fn describe(&self) -> String {
        format!(
            "{} ops per pass: tune_observed on Paper-scale mpeg-combined, evolutionary, \
             standard geometry search, budget {BUDGET}, serial, search seeds {:?}",
            self.ops(),
            self.seeds
        )
    }
}
