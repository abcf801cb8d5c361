//! The multitasking experiment of Figure 5.
//!
//! Three gzip jobs run round-robin on one processor. With a standard cache every job may
//! replace any line, so job A's hit rate — and therefore its CPI — depends strongly on how
//! often it is interrupted (the context-switch quantum). With a mapped column cache job A
//! owns a set of columns exclusively and the other jobs share the remainder, so job A's
//! CPI is both lower and nearly independent of the quantum.
//!
//! Replay is schedule-free ([`run_multitasking_on`]): one `run_batch` per quantum,
//! straight from the issuing job's trace. At small quanta that is a long run of tiny
//! batches, which stays cheap because the column cache's replay memo persists across
//! batches.

use crate::error::CoreError;
use crate::parallel::par_map;
use ccache_sim::backend::{build_backend, BackendKind, MemoryBackend};
use ccache_sim::{CacheConfig, ColumnMask, LatencyConfig, SystemConfig, Tint};
use ccache_trace::Trace;
use ccache_workloads::multitask::{quanta, Job};

/// Configuration of the multitasking experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultitaskConfig {
    /// Total cache capacity in bytes (the paper uses 16 KiB and 128 KiB).
    pub capacity_bytes: u64,
    /// Number of columns.
    pub columns: usize,
    /// Line size in bytes.
    pub line_size: u64,
    /// Page size of the TLB/page table.
    pub page_size: u64,
    /// Latency model.
    pub latency: LatencyConfig,
    /// Columns given exclusively to the critical job (job 0) in the mapped configuration.
    pub critical_job_columns: usize,
}

/// The latency model used by the Figure 5 experiment: a deeper memory hierarchy than
/// the 2 KiB on-chip memory of Figure 4, so misses are more expensive. Public so the
/// experiment layer (`ccache-exp`) can offer it as a named preset.
pub fn figure5_latency() -> LatencyConfig {
    LatencyConfig {
        miss_penalty: 60,
        writeback_penalty: 30,
        uncached_latency: 70,
        ..LatencyConfig::default()
    }
}

impl MultitaskConfig {
    /// The 16 KiB configuration of Figure 5 (8 columns of 2 KiB). The critical job is
    /// "exclusively assigned a large fraction of the cache" — 6 of the 8 columns — so its
    /// hot working set fits in its private columns.
    pub fn cache_16k() -> Self {
        MultitaskConfig {
            capacity_bytes: 16 * 1024,
            columns: 8,
            line_size: 32,
            page_size: 1024,
            latency: figure5_latency(),
            critical_job_columns: 6,
        }
    }

    /// The 128 KiB configuration of Figure 5.
    pub fn cache_128k() -> Self {
        MultitaskConfig {
            capacity_bytes: 128 * 1024,
            columns: 8,
            line_size: 32,
            page_size: 1024,
            latency: figure5_latency(),
            critical_job_columns: 4,
        }
    }

    /// The simulator configuration for this experiment.
    pub fn system_config(&self) -> Result<SystemConfig, CoreError> {
        let cache = CacheConfig::builder()
            .capacity_bytes(self.capacity_bytes)
            .columns(self.columns)
            .line_size(self.line_size)
            .build()?;
        Ok(SystemConfig {
            cache,
            latency: self.latency,
            page_size: self.page_size,
            tlb_entries: 128,
        })
    }
}

impl Default for MultitaskConfig {
    fn default() -> Self {
        MultitaskConfig::cache_16k()
    }
}

/// Whether the column cache is partitioned between jobs or shared as a standard cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Standard cache: every job may replace any line.
    Shared,
    /// Mapped column cache: job 0 owns `critical_job_columns` columns exclusively and the
    /// other jobs share the remaining columns.
    Mapped,
}

/// Per-job results of one multitasking run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Job name.
    pub name: String,
    /// References issued by the job.
    pub references: u64,
    /// Memory cycles attributed to the job.
    pub memory_cycles: u64,
    /// Instructions attributed to the job (references × instructions-per-reference).
    pub instructions: u64,
    /// Clocks per instruction of the job.
    pub cpi: f64,
}

/// Result of one multitasking run (one quantum, one sharing policy).
#[derive(Debug, Clone, PartialEq)]
pub struct MultitaskRun {
    /// The context-switch quantum in references.
    pub quantum: usize,
    /// The sharing policy used.
    pub policy: SharingPolicy,
    /// Per-job metrics, in job order.
    pub jobs: Vec<JobMetrics>,
    /// Number of context switches performed.
    pub context_switches: u64,
}

impl MultitaskRun {
    /// Metrics of the critical job (job 0, "job A" in the paper).
    pub fn critical_job(&self) -> &JobMetrics {
        &self.jobs[0]
    }
}

/// Address span `[min, max)` of a trace, for tinting a job's whole address space.
fn address_span(trace: &Trace) -> (u64, u64) {
    let stats = trace.stats();
    (stats.min_addr, stats.max_addr + 1)
}

/// Runs one multitasking experiment point on the column cache.
///
/// # Errors
///
/// Returns an error if the quantum is zero, the cache geometry is invalid or the mapped
/// configuration requests more exclusive columns than exist.
pub fn run_multitasking(
    jobs: &[Job],
    quantum: usize,
    config: &MultitaskConfig,
    policy: SharingPolicy,
) -> Result<MultitaskRun, CoreError> {
    run_multitasking_on(BackendKind::ColumnCache, jobs, quantum, config, policy)
}

/// Runs one multitasking experiment point on any backend kind.
///
/// With [`SharingPolicy::Mapped`] on a backend that ignores tint control (the baseline
/// kinds), the run degrades to the shared behaviour — useful for checking that the
/// benefit really comes from the mapping.
///
/// Replay is schedule-free: each quantum of the round-robin schedule ([`quanta`]) is
/// staged from the issuing job's own trace into one reused buffer and handed to the
/// backend as one batch, so cycles are attributed per job without building a merged
/// trace or an owner vector.
///
/// # Errors
///
/// Returns an error if the quantum is zero, the cache geometry is invalid or the mapped
/// configuration requests more exclusive columns than exist.
pub fn run_multitasking_on(
    kind: BackendKind,
    jobs: &[Job],
    quantum: usize,
    config: &MultitaskConfig,
    policy: SharingPolicy,
) -> Result<MultitaskRun, CoreError> {
    let mut system = prepare_backend(kind, jobs, quantum, config, policy)?;
    let totals = replay_quanta(system.as_mut(), jobs, quantum);
    Ok(totals.into_run(jobs, quantum, config, policy))
}

/// Validates a multitasking point and builds its backend, programmed for `policy`.
fn prepare_backend(
    kind: BackendKind,
    jobs: &[Job],
    quantum: usize,
    config: &MultitaskConfig,
    policy: SharingPolicy,
) -> Result<Box<dyn MemoryBackend>, CoreError> {
    if jobs.is_empty() {
        return Err(CoreError::BadExperiment {
            reason: "no jobs supplied".to_owned(),
        });
    }
    if quantum == 0 {
        return Err(CoreError::BadExperiment {
            reason: "quantum must be positive".to_owned(),
        });
    }
    if config.critical_job_columns >= config.columns {
        return Err(CoreError::BadExperiment {
            reason: format!("critical job cannot own all {} columns", config.columns),
        });
    }
    let mut system = build_backend(kind, config.system_config()?)?;

    if policy == SharingPolicy::Mapped {
        // Job 0 owns columns [0, critical_job_columns); the others share the rest.
        let critical_mask = ColumnMask::range(0, config.critical_job_columns);
        let other_mask = ColumnMask::range(
            config.critical_job_columns,
            config.columns - config.critical_job_columns,
        );
        system.define_tint(Tint(1), critical_mask)?;
        system.define_tint(Tint(2), other_mask)?;
        // Unmapped pages (there should be none) stay off the critical columns too.
        system.define_tint(Tint::DEFAULT, other_mask)?;
        for (j, job) in jobs.iter().enumerate() {
            let (lo, hi) = address_span(&job.trace);
            let tint = if j == 0 { Tint(1) } else { Tint(2) };
            system.tint_range(lo..hi, tint);
        }
    }
    Ok(system)
}

/// Per-job totals of a replayed round-robin schedule.
#[derive(Debug)]
struct JobTotals {
    cycles: Vec<u64>,
    references: Vec<u64>,
    context_switches: u64,
}

impl JobTotals {
    fn new(jobs: usize) -> Self {
        JobTotals {
            cycles: vec![0; jobs],
            references: vec![0; jobs],
            context_switches: 0,
        }
    }

    /// Per-job metrics of the totals under `config`'s latency model.
    fn into_run(
        self,
        jobs: &[Job],
        quantum: usize,
        config: &MultitaskConfig,
        policy: SharingPolicy,
    ) -> MultitaskRun {
        let lat = config.latency;
        let jobs = jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                let instructions = self.references[j] * lat.instructions_per_reference;
                let compute = instructions * lat.compute_cycles_per_instruction;
                let total = compute + self.cycles[j];
                JobMetrics {
                    name: job.name.clone(),
                    references: self.references[j],
                    memory_cycles: self.cycles[j],
                    instructions,
                    cpi: if instructions == 0 {
                        0.0
                    } else {
                        total as f64 / instructions as f64
                    },
                }
            })
            .collect();
        MultitaskRun {
            quantum,
            policy,
            jobs,
            context_switches: self.context_switches,
        }
    }
}

/// Replays the round-robin schedule straight from the job traces: each quantum is staged
/// into one reused buffer and handed to the backend as one batch.
fn replay_quanta(system: &mut dyn MemoryBackend, jobs: &[Job], quantum: usize) -> JobTotals {
    let mut totals = JobTotals::new(jobs.len());
    let mut last_job: Option<usize> = None;
    let longest = jobs.iter().map(|j| j.trace.len()).max().unwrap_or(0);
    let mut batch: Vec<(u64, bool)> = Vec::with_capacity(quantum.min(longest));
    for (j, range) in quanta(jobs, quantum) {
        if last_job.is_some_and(|last| last != j) {
            totals.context_switches += 1;
        }
        last_job = Some(j);
        totals.references[j] += range.len() as u64;
        batch.clear();
        batch.extend(
            jobs[j].trace.as_slice()[range]
                .iter()
                .map(|ev| (ev.addr, ev.is_write())),
        );
        totals.cycles[j] += system.run_batch(&batch);
    }
    totals
}

/// One series of Figure 5: the critical job's CPI at every quantum, for one cache size and
/// one sharing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumSeries {
    /// Label of the series (e.g. `"gzip.16k mapped"`).
    pub label: String,
    /// `(quantum, cpi)` points in increasing quantum order.
    pub points: Vec<(usize, f64)>,
}

impl QuantumSeries {
    /// Largest CPI in the series.
    pub fn max_cpi(&self) -> f64 {
        self.points.iter().map(|&(_, c)| c).fold(0.0, f64::max)
    }

    /// Smallest CPI in the series.
    pub fn min_cpi(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, c)| c)
            .fold(f64::INFINITY, f64::min)
    }

    /// Peak-to-trough CPI variation (the paper's "performance variation").
    pub fn variation(&self) -> f64 {
        self.max_cpi() - self.min_cpi()
    }
}

/// Sweeps the quantum for one configuration and policy, reporting the critical job's CPI.
///
/// Quanta are independent sweep points (each replays its own system), so with the
/// `parallel` feature they run on worker threads; points are collected in quantum order,
/// making the series deterministic either way.
pub fn quantum_sweep(
    jobs: &[Job],
    quanta: &[usize],
    config: &MultitaskConfig,
    policy: SharingPolicy,
    label: &str,
) -> Result<QuantumSeries, CoreError> {
    let points = par_map(quanta, |&q| {
        run_multitasking(jobs, q, config, policy).map(|run| (q, run.critical_job().cpi))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(QuantumSeries {
        label: label.to_owned(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_workloads::gzipsim::{run_gzip_job, GzipConfig};
    use ccache_workloads::multitask::round_robin;

    fn small_jobs() -> Vec<Job> {
        (0..3)
            .map(|j| {
                let cfg = GzipConfig {
                    input_len: 3000,
                    ..GzipConfig::small()
                }
                .with_seed(100 + j as u64);
                let run = run_gzip_job(&cfg, 0x100_0000 * (j as u64 + 1), &format!("gzip-{j}"));
                Job::new(run.name.clone(), run.trace)
            })
            .collect()
    }

    fn tiny_cache() -> MultitaskConfig {
        // deliberately tiny so the jobs interfere heavily and the test is fast
        MultitaskConfig {
            capacity_bytes: 4 * 1024,
            columns: 8,
            line_size: 32,
            page_size: 1024,
            latency: LatencyConfig::default(),
            critical_job_columns: 4,
        }
    }

    #[test]
    fn every_reference_is_attributed_to_its_job() {
        let jobs = small_jobs();
        let run = run_multitasking(&jobs, 64, &tiny_cache(), SharingPolicy::Shared).unwrap();
        for (j, job) in jobs.iter().enumerate() {
            assert_eq!(run.jobs[j].references, job.trace.len() as u64);
            assert!(run.jobs[j].cpi >= 1.0);
        }
        assert!(run.context_switches > 0);
        assert_eq!(run.critical_job().name, "gzip-0");
    }

    #[test]
    fn mapping_reduces_cpi_sensitivity_to_the_quantum() {
        let jobs = small_jobs();
        let cfg = tiny_cache();
        let quanta = [16usize, 256, 4096, 65536];
        let shared = quantum_sweep(&jobs, &quanta, &cfg, SharingPolicy::Shared, "shared").unwrap();
        let mapped = quantum_sweep(&jobs, &quanta, &cfg, SharingPolicy::Mapped, "mapped").unwrap();
        assert!(
            mapped.variation() < shared.variation(),
            "mapped variation {} should be below shared variation {}",
            mapped.variation(),
            shared.variation()
        );
        // at the smallest quantum, mapping must help the critical job
        assert!(mapped.points[0].1 <= shared.points[0].1);
    }

    #[test]
    fn shared_cpi_improves_with_larger_quanta() {
        let jobs = small_jobs();
        let cfg = tiny_cache();
        let small_q = run_multitasking(&jobs, 4, &cfg, SharingPolicy::Shared).unwrap();
        let large_q = run_multitasking(&jobs, 1 << 20, &cfg, SharingPolicy::Shared).unwrap();
        assert!(
            large_q.critical_job().cpi <= small_q.critical_job().cpi,
            "batch-style scheduling should not be slower ({} vs {})",
            large_q.critical_job().cpi,
            small_q.critical_job().cpi
        );
    }

    #[test]
    fn bad_configurations_are_rejected() {
        let jobs = small_jobs();
        let mut cfg = tiny_cache();
        cfg.critical_job_columns = 8;
        assert!(run_multitasking(&jobs, 16, &cfg, SharingPolicy::Mapped).is_err());
        assert!(run_multitasking(&[], 16, &tiny_cache(), SharingPolicy::Shared).is_err());
    }

    #[test]
    fn zero_quantum_is_a_typed_error() {
        let jobs = small_jobs();
        let err = run_multitasking(&jobs, 0, &tiny_cache(), SharingPolicy::Shared).unwrap_err();
        assert!(
            matches!(&err, CoreError::BadExperiment { reason } if reason.contains("quantum")),
            "unexpected error: {err}"
        );
    }

    /// Replays `round_robin`'s materialised schedule one reference at a time through
    /// `access`: the plain model the schedule-free batched replay must match.
    fn per_reference_oracle(
        jobs: &[Job],
        quantum: usize,
        config: &MultitaskConfig,
        policy: SharingPolicy,
    ) -> MultitaskRun {
        let mut system =
            prepare_backend(BackendKind::ColumnCache, jobs, quantum, config, policy).unwrap();
        let schedule = round_robin(jobs, quantum);
        let mut totals = JobTotals::new(jobs.len());
        for (j, ev) in schedule.iter() {
            totals.cycles[j] += system.access(ev.addr, ev.is_write());
            totals.references[j] += 1;
        }
        totals.context_switches = schedule.context_switches;
        totals.into_run(jobs, quantum, config, policy)
    }

    #[test]
    fn replay_matches_the_per_reference_schedule_oracle() {
        // Unequal lengths, so jobs drop out of the rotation at different quanta.
        let jobs: Vec<Job> = [600usize, 1500, 2400]
            .iter()
            .enumerate()
            .map(|(j, &input_len)| {
                let cfg = GzipConfig {
                    input_len,
                    ..GzipConfig::small()
                }
                .with_seed(7 + j as u64);
                let run = run_gzip_job(&cfg, 0x100_0000 * (j as u64 + 1), &format!("gzip-{j}"));
                Job::new(run.name, run.trace)
            })
            .collect();
        assert!(jobs[0].trace.len() < jobs[1].trace.len());
        assert!(jobs[1].trace.len() < jobs[2].trace.len());
        let cfg = tiny_cache();
        for quantum in [1usize, 2, 3, 7, 64, 1 << 20] {
            for policy in [SharingPolicy::Shared, SharingPolicy::Mapped] {
                let got = run_multitasking(&jobs, quantum, &cfg, policy).unwrap();
                let want = per_reference_oracle(&jobs, quantum, &cfg, policy);
                assert_eq!(got, want, "quantum {quantum}, {policy:?}");
            }
        }
    }

    /// Machine-independent work gate: at quantum 1 every batch holds one reference, so
    /// only a memo that persists across batches can absorb the TLB scans. The jobs are
    /// Figure 5's (seed 41 + j, base 0x100_0000 * (j + 1)) at a small input length.
    #[test]
    fn quantum_one_replay_hits_the_persistent_translation_memo() {
        let jobs: Vec<Job> = (0..3u64)
            .map(|j| {
                let cfg = GzipConfig {
                    input_len: 3000,
                    ..GzipConfig::small()
                }
                .with_seed(41 + j);
                let run = run_gzip_job(&cfg, 0x100_0000 * (j + 1), "gzip");
                Job::new(run.name, run.trace)
            })
            .collect();
        let cfg = MultitaskConfig::cache_16k();
        let mut system = prepare_backend(
            BackendKind::ColumnCache,
            &jobs,
            1,
            &cfg,
            SharingPolicy::Shared,
        )
        .unwrap();
        replay_quanta(system.as_mut(), &jobs, 1);
        let references = system.stats().references;
        let hits = system.memo_stats().translation_hits;
        assert_eq!(
            references,
            jobs.iter().map(|j| j.trace.len() as u64).sum::<u64>()
        );
        let ratio = hits as f64 / references as f64;
        assert!(
            ratio >= 0.95,
            "translation memo hit ratio {ratio:.3} < 0.95"
        );
    }

    #[test]
    fn series_statistics() {
        let s = QuantumSeries {
            label: "x".into(),
            points: vec![(1, 2.5), (4, 2.0), (16, 1.5)],
        };
        assert_eq!(s.max_cpi(), 2.5);
        assert_eq!(s.min_cpi(), 1.5);
        assert!((s.variation() - 1.0).abs() < 1e-12);
    }
}
