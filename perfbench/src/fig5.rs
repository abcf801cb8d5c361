//! `fig5-multitask`: the Figure 5 grid — three gzip jobs round-robin at every quantum,
//! 16 KiB and 128 KiB caches, shared and mapped.
//!
//! No layout runs. The time goes to the materialised round-robin schedule and to the
//! replay, with a context switch (and, when mapped, tint control) every quantum.

use crate::harness::{digest_of, Counts, Ledger, OpOut, SerialWorkload, TracedPhase};
use crate::layers::{common, complete, Layers};
use crate::tracer::Tracer;
use ccache_core::multitask::{JobMetrics, MultitaskConfig, MultitaskRun, SharingPolicy};
use ccache_core::report::quantum_table;
use ccache_core::{run_multitasking, QuantumSeries};
use ccache_exp::spec::{figure5_job_specs, GzipJobSpec, MultitaskGrid};
use ccache_exp::{ExperimentSpec, JobOutcome, JobUnit};
use ccache_sim::backend::{build_backend, BackendKind};
use ccache_sim::{ColumnMask, Tint};
use ccache_telemetry::Registry;
use ccache_workloads::gzipsim::{run_gzip_job, GzipConfig};
use ccache_workloads::multitask::{figure5_quanta, round_robin, Job};
use column_caching::Session;
use std::collections::BTreeMap;

/// One grid point: (cache configuration index, policy, quantum).
type Point = (usize, SharingPolicy, usize);

/// The seeded gzip jobs, the grid, and the first result of every point.
pub struct Fig5 {
    specs: Vec<GzipJobSpec>,
    jobs: Vec<Job>,
    configs: Vec<(&'static str, MultitaskConfig)>,
    points: Vec<Point>,
    first: Vec<Option<MultitaskRun>>,
}

fn sim_counts(run: &MultitaskRun, config: &MultitaskConfig, counts: &mut Counts) {
    let refs: u64 = run.jobs.iter().map(|j| j.references).sum();
    let cycles: u64 = run
        .jobs
        .iter()
        .map(|j| j.instructions * config.latency.compute_cycles_per_instruction + j.memory_cycles)
        .sum();
    counts.insert("sim.references", refs);
    counts.insert("sim.total_cycles", cycles);
    counts.insert("schedule.context_switches", run.context_switches);
}

impl Fig5 {
    fn output(&mut self, op: usize, run: MultitaskRun, mut counts: Counts) -> OpOut {
        sim_counts(&run, &self.configs[self.points[op].0].1, &mut counts);
        let out = OpOut {
            digest: digest_of(&run),
            sim_refs: counts["sim.references"],
            counts,
        };
        if self.first[op].is_none() {
            self.first[op] = Some(run);
        }
        out
    }

    /// `run_multitasking`, stage by stage: backend build and tinting, the round-robin
    /// schedule, then one `run_batch` per owner run of the schedule.
    fn traced_run(
        &self,
        op: usize,
        t: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<MultitaskRun, String> {
        let (c, policy, quantum) = self.points[op];
        let config = &self.configs[c].1;
        let err = |e: &dyn std::fmt::Display| e.to_string();

        t.enter("engine.build");
        let system_config = config.system_config().map_err(|e| err(&e))?;
        let mut system =
            build_backend(BackendKind::ColumnCache, system_config).map_err(|e| err(&e))?;
        if policy == SharingPolicy::Mapped {
            let critical = ColumnMask::range(0, config.critical_job_columns);
            let others = ColumnMask::range(
                config.critical_job_columns,
                config.columns - config.critical_job_columns,
            );
            system.define_tint(Tint(1), critical).map_err(|e| err(&e))?;
            system.define_tint(Tint(2), others).map_err(|e| err(&e))?;
            system
                .define_tint(Tint::DEFAULT, others)
                .map_err(|e| err(&e))?;
            for (j, job) in self.jobs.iter().enumerate() {
                let stats = job.trace.stats();
                let tint = if j == 0 { Tint(1) } else { Tint(2) };
                system.tint_range(stats.min_addr..stats.max_addr + 1, tint);
            }
        }
        t.exit();

        let schedule = t.span("schedule.round_robin", || round_robin(&self.jobs, quantum));

        t.enter("replay");
        let mut cycles = vec![0u64; self.jobs.len()];
        let mut refs = vec![0u64; self.jobs.len()];
        let events = schedule.merged.as_slice();
        let mut batch: Vec<(u64, bool)> = Vec::with_capacity(quantum.min(events.len()).max(1));
        let mut start = 0;
        while start < events.len() {
            let owner = schedule.owner[start];
            let mut end = start + 1;
            while end < events.len() && schedule.owner[end] == owner {
                end += 1;
            }
            batch.clear();
            batch.extend(events[start..end].iter().map(|e| (e.addr, e.is_write())));
            cycles[owner] += system.run_batch(&batch);
            refs[owner] += (end - start) as u64;
            start = end;
        }
        t.exit();

        let cache = system.cache_stats();
        counts.insert("sim.hits", cache.hits);
        counts.insert("sim.misses", cache.misses + cache.bypasses);
        counts.insert("sim.writebacks", cache.writebacks);
        counts.insert("sim.control_cycles", system.control_cycles());

        let lat = config.latency;
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                let instructions = refs[j] * lat.instructions_per_reference;
                let total = instructions * lat.compute_cycles_per_instruction + cycles[j];
                JobMetrics {
                    name: job.name.clone(),
                    references: refs[j],
                    memory_cycles: cycles[j],
                    instructions,
                    cpi: if instructions == 0 {
                        0.0
                    } else {
                        total as f64 / instructions as f64
                    },
                }
            })
            .collect();
        Ok(MultitaskRun {
            quantum,
            policy,
            jobs,
            context_switches: schedule.context_switches,
        })
    }

    /// The Figure 5 series table of one pass of results.
    fn render_report(&self) -> usize {
        let mut series: BTreeMap<String, QuantumSeries> = BTreeMap::new();
        for (point, run) in self.points.iter().zip(&self.first) {
            let Some(run) = run else { continue };
            let label = format!("{} {:?}", self.configs[point.0].0, point.1);
            series
                .entry(label.clone())
                .or_insert_with(|| QuantumSeries {
                    label,
                    points: Vec::new(),
                })
                .points
                .push((run.quantum, run.critical_job().cpi));
        }
        quantum_table(&series.into_values().collect::<Vec<_>>()).len()
    }
}

impl SerialWorkload for Fig5 {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        // Seed 0 gives the paper's job seeds (41, 42, 43).
        let specs: Vec<GzipJobSpec> = figure5_job_specs()
            .into_iter()
            .map(|s| GzipJobSpec {
                seed: s.seed.wrapping_add(seed.wrapping_mul(3)),
                ..s
            })
            .collect();
        let jobs = tracer.span("workloads.gen", || {
            specs
                .iter()
                .map(|s| {
                    let run =
                        run_gzip_job(&GzipConfig::default().with_seed(s.seed), s.base, &s.name);
                    Job::new(run.name.clone(), run.trace)
                })
                .collect::<Vec<_>>()
        });
        let configs = vec![
            ("gzip.16k", MultitaskConfig::cache_16k()),
            ("gzip.128k", MultitaskConfig::cache_128k()),
        ];
        let mut points = Vec::new();
        for c in 0..configs.len() {
            for policy in [SharingPolicy::Shared, SharingPolicy::Mapped] {
                for q in figure5_quanta() {
                    points.push((c, policy, q));
                }
            }
        }
        Ok(Fig5 {
            specs,
            jobs,
            configs,
            first: vec![None; points.len()],
            points,
        })
    }

    fn ops(&self) -> usize {
        self.points.len()
    }

    fn run(&mut self, op: usize) -> Result<OpOut, String> {
        let (c, policy, quantum) = self.points[op];
        let run = run_multitasking(&self.jobs, quantum, &self.configs[c].1, policy)
            .map_err(|e| e.to_string())?;
        Ok(self.output(op, run, Counts::new()))
    }

    fn run_traced(
        &mut self,
        op: usize,
        t: &mut Tracer,
        _registry: &Registry,
    ) -> Result<OpOut, String> {
        let mut counts = Counts::new();
        t.enter("op");
        let run = self.traced_run(op, t, &mut counts);
        t.exit();
        let out = self.output(op, run?, counts);
        if op + 1 == self.ops() {
            t.span("report.render", || self.render_report());
        }
        Ok(out)
    }

    fn verify(&mut self) -> Result<Vec<(usize, String)>, String> {
        let spec = ExperimentSpec {
            name: "fig5".to_owned(),
            replay: Vec::new(),
            multitask: vec![MultitaskGrid {
                jobs: self.specs.clone(),
                quanta: figure5_quanta(),
                ..MultitaskGrid::default()
            }],
        };
        let session = Session::builder().build().map_err(|e| e.to_string())?;
        let artefact = session.run_spec(&spec).map_err(|e| e.to_string())?;
        let mut expected = BTreeMap::new();
        for (unit, outcome) in artefact.entries() {
            if let (JobUnit::Multitask(job), JobOutcome::Multitask { run, .. }) = (unit, outcome) {
                let key = (
                    job.config.capacity,
                    job.policy == SharingPolicy::Mapped,
                    job.quantum,
                );
                expected.insert(key, run.clone());
            }
        }
        let mut wrong = Vec::new();
        for (op, got) in self.first.iter().enumerate() {
            let Some(got) = got else { continue };
            let (c, policy, q) = self.points[op];
            let key = (
                self.configs[c].1.capacity_bytes,
                policy == SharingPolicy::Mapped,
                q,
            );
            if expected.get(&key) != Some(got) {
                wrong.push((
                    op,
                    format!("point {key:?} differs from the fig5 spec artefact"),
                ));
            }
        }
        Ok(wrong)
    }

    fn extra(&self, _plain: &Ledger) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }

    fn layers(&self, traced: &TracedPhase) -> Layers {
        // run_multitasking replays through MemoryBackend::run_batch, not ReplayEngine,
        // so the engine.* counters stay 0 on this workload.
        complete(common(traced))
    }

    fn describe(&self) -> String {
        format!(
            "{} ops per pass: run_multitasking at {{16K, 128K}} x {{shared, mapped}} x quanta \
             4^0..4^10; three Paper-scale gzip jobs (seeds {:?}), one thread",
            self.ops(),
            self.specs.iter().map(|s| s.seed).collect::<Vec<_>>()
        )
    }
}
