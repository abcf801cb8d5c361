//! The op loop shared by the serial workloads, and the bookkeeping every workload
//! reports through: timing samples, attempted/failed ops, and the output checks.

use crate::layers::Layers;
use crate::stats::{fastest_tenth, median};
use crate::tracer::Tracer;
use ccache_telemetry::Registry;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 12;
/// Timed ops the untraced phase always completes, so that `op_p50_ms` has ten samples
/// beyond it even when ops are slow.
const MIN_SAMPLES: usize = 20;

/// Deterministic work counts of one op (simulated statistics, graph sizes, counters).
pub type Counts = BTreeMap<&'static str, u64>;

/// What one op produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOut {
    /// Hash of the op's full result; equal for every execution of the same op.
    pub digest: u64,
    /// Deterministic counts; equal for every execution of the same op.
    pub counts: Counts,
    /// Simulated references the op replayed.
    pub sim_refs: u64,
}

/// Hash of a result's `Debug` rendering — a cheap identity for "same output".
pub fn digest_of<T: Debug>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{value:?}").hash(&mut h);
    h.finish()
}

/// Adds `b` into `a`, key by key.
pub fn add_counts(a: &mut Counts, b: &Counts) {
    for (k, v) in b {
        *a.entry(k).or_default() += v;
    }
}

/// Timing samples and check results of one phase of a run.
#[derive(Default)]
pub struct Ledger {
    /// Op latencies in milliseconds, in completion order.
    pub samples_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or gave a wrong output.
    pub failed: u64,
    /// Simulated references replayed by the phase's ops.
    pub sim_refs: u64,
    /// Counts summed over every op of the phase.
    pub counts: Counts,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Ops per second of each pass of the op list (serve: of each chunk of requests).
    pub op_rates: Vec<f64>,
    /// Throughput reported as `ops_per_s`, estimated from `op_rates`.
    pub ops_per_s: f64,
    /// Simulated references per second, estimated like `ops_per_s`.
    pub sim_refs_per_s: f64,
    /// One line per failure, for the report.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Ops per second over the whole phase.
    pub fn mean_ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.elapsed.as_secs_f64()
    }

    /// Records a failure that is not tied to one timed op.
    pub fn problem(&mut self, text: String) {
        if self.problems.len() < 20 {
            self.problems.push(text);
        }
    }
}

/// Everything a run measured, before it is printed.
pub struct Outcome {
    /// Duration of every set-up round (set-up plus warm-up op), in seconds.
    pub setup_s: Vec<f64>,
    /// The untimed-by-trace phase: end-to-end numbers come from here.
    pub plain: Ledger,
    /// The traced phase (only with `--trace 1`).
    pub traced: Option<Ledger>,
    /// Peak resident set of the process after the measured phases, in MiB.
    pub peak_rss_mb: f64,
    /// Ops whose outputs an oracle rejected, counted per execution.
    pub oracle_failures: u64,
    /// Workload-specific end-to-end figures (name, value, unit).
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (only with `--trace 1`).
    pub layers: Layers,
    /// Op definitions and counts for the report header.
    pub description: String,
}

impl Outcome {
    /// Median set-up time in seconds.
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Ops attempted over every phase.
    pub fn attempted(&self) -> u64 {
        self.plain.attempted + self.traced.as_ref().map_or(0, |l| l.attempted)
    }

    /// Ops failed over every phase, oracle rejections included.
    pub fn failed(&self) -> u64 {
        let failed = self.plain.failed + self.traced.as_ref().map_or(0, |l| l.failed);
        (failed + self.oracle_failures).min(self.attempted())
    }

    /// Every problem line of every phase.
    pub fn problems(&self) -> Vec<String> {
        let mut all = self.plain.problems.clone();
        if let Some(t) = &self.traced {
            all.extend(t.problems.iter().cloned());
        }
        all
    }
}

/// A workload whose ops are driven one at a time on one thread.
pub trait SerialWorkload: Sized {
    /// Builds the seeded inputs. Generation and encoding are recorded on `tracer`.
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String>;
    /// Ops in one pass; a run cycles through them in order.
    fn ops(&self) -> usize;
    /// Runs op `op` through the library's public entry point.
    fn run(&mut self, op: usize) -> Result<OpOut, String>;
    /// Runs op `op` stage by stage through the public layer functions, with a span
    /// around each layer call; the stitched result must equal [`SerialWorkload::run`]'s.
    fn run_traced(
        &mut self,
        op: usize,
        tracer: &mut Tracer,
        registry: &Registry,
    ) -> Result<OpOut, String>;
    /// Checks the outputs of every op that ran against the oracle, after the timed
    /// phases; returns the rejected ops.
    fn verify(&mut self) -> Result<Vec<(usize, String)>, String>;
    /// Workload-specific end-to-end figures from the untraced phase.
    fn extra(&self, plain: &Ledger) -> Vec<(&'static str, f64, &'static str)>;
    /// Per-layer metrics from the traced phase.
    fn layers(&self, traced: &TracedPhase) -> Layers;
    /// One line defining the op set.
    fn describe(&self) -> String;
}

/// What the traced phase leaves for the per-layer report.
pub struct TracedPhase {
    /// Every span of the traced ops and of the set-up rounds.
    pub tracer: Tracer,
    /// Set-up spans (one op id per round).
    pub setup: Tracer,
    /// Ops traced.
    pub ops: u64,
    /// Sum of the traced op spans, in seconds (excludes probes outside the op spans).
    pub op_seconds: f64,
    /// Deterministic counts summed over one pass of the op list.
    pub pass_counts: Counts,
    /// Simulated references replayed by the traced ops.
    pub sim_refs: u64,
    /// Untraced ops per second over the whole untraced phase, for the overhead ratio.
    pub plain_ops_per_s: f64,
}

/// First outputs of each op, and the comparison every later execution must pass.
struct Checks {
    plain: Vec<Option<OpOut>>,
    traced: Vec<Option<OpOut>>,
    runs: Vec<u64>,
}

impl Checks {
    fn new(ops: usize) -> Self {
        Checks {
            plain: vec![None; ops],
            traced: vec![None; ops],
            runs: vec![0; ops],
        }
    }

    /// Compares `out` with earlier outputs of the same op; `Err` describes a drift.
    fn check(&mut self, op: usize, out: &OpOut, traced: bool) -> Result<(), String> {
        self.runs[op] += 1;
        if let Some(first) = &self.plain[op] {
            if first.digest != out.digest || first.sim_refs != out.sim_refs {
                return Err(format!(
                    "op {op}: output differs from its first untraced execution"
                ));
            }
            for (k, v) in &first.counts {
                if out.counts.get(k) != Some(v) {
                    return Err(format!("op {op}: count {k} drifted"));
                }
            }
        }
        let slot = if traced {
            &mut self.traced[op]
        } else {
            &mut self.plain[op]
        };
        match slot {
            Some(first) if first != out => Err(format!("op {op}: counts drifted between runs")),
            Some(_) => Ok(()),
            None => {
                *slot = Some(out.clone());
                Ok(())
            }
        }
    }
}

fn time_op(
    ledger: &mut Ledger,
    checks: &mut Checks,
    op: usize,
    traced: bool,
    f: impl FnOnce() -> Result<OpOut, String>,
) {
    let t0 = Instant::now();
    let result = f();
    ledger.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    ledger.attempted += 1;
    match result.and_then(|out| checks.check(op, &out, traced).map(|()| out)) {
        Ok(out) => {
            ledger.sim_refs += out.sim_refs;
            add_counts(&mut ledger.counts, &out.counts);
        }
        Err(e) => {
            ledger.failed += 1;
            ledger.problem(e);
        }
    }
}

/// Reads the process's peak resident set from `/proc/self/status`, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up round of a serial workload: its inputs and the warm-up op, timed.
fn setup_round<W: SerialWorkload>(
    seed: u64,
    round: usize,
    tracer: &mut Tracer,
) -> Result<(W, f64), String> {
    tracer.set_op(round as u64);
    let t0 = Instant::now();
    let mut w = W::setup(seed, tracer)?;
    w.run(0)?; // the warm-up op
    Ok((w, t0.elapsed().as_secs_f64()))
}

/// Runs a serial workload: set-up rounds, the untraced timed phase, the traced phase
/// when asked, then the oracle checks.
pub fn drive<W: SerialWorkload>(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut setup_tracer = Tracer::new();
    let (mut w, first_setup) = setup_round::<W>(seed, 0, &mut setup_tracer)?;
    let mut setup_s = vec![first_setup];
    let ops = w.ops();
    let mut checks = Checks::new(ops);

    // With tracing on, the run is split in two halves; the untraced half still covers
    // every op once so each traced op has an untraced result to equal.
    let plain_budget = if trace { seconds / 2.0 } else { seconds };
    let mut plain = Ledger::default();
    let start = Instant::now();
    // Time spent in the set-up rounds spread over the phase; it is not op time.
    let mut paused = Duration::ZERO;
    let active = |paused: Duration| (start.elapsed() - paused).as_secs_f64();
    let mut i = 0usize;
    let (mut pass_start, mut pass_refs) = (start, 0u64);
    let mut ref_rates = Vec::new();
    while active(paused) < plain_budget || i < MIN_SAMPLES || (trace && i < ops) {
        // The other set-up rounds run at even intervals through the phase, so that
        // `setup_s` samples the host over the whole run, as the passes do, rather than
        // over its first seconds only. Their time is kept out of the pass rates.
        let due = plain_budget * setup_s.len() as f64 / SETUP_ROUNDS as f64;
        if setup_s.len() < SETUP_ROUNDS && active(paused) >= due {
            let t0 = Instant::now();
            let (_, secs) = setup_round::<W>(seed, setup_s.len(), &mut setup_tracer)?;
            setup_s.push(secs);
            let pause = t0.elapsed();
            paused += pause;
            pass_start += pause;
        }
        let op = i % ops;
        let refs = plain.sim_refs;
        time_op(&mut plain, &mut checks, op, false, || w.run(op));
        pass_refs += plain.sim_refs - refs;
        i += 1;
        if i.is_multiple_of(ops) {
            let secs = pass_start.elapsed().as_secs_f64();
            plain.op_rates.push(ops as f64 / secs);
            ref_rates.push(pass_refs as f64 / secs);
            (pass_start, pass_refs) = (Instant::now(), 0);
        }
    }
    plain.elapsed = start.elapsed() - paused;
    while setup_s.len() < SETUP_ROUNDS {
        setup_s.push(setup_round::<W>(seed, setup_s.len(), &mut setup_tracer)?.1);
    }
    if plain.op_rates.is_empty() {
        plain.op_rates.push(plain.mean_ops_per_s());
        ref_rates.push(plain.sim_refs as f64 / plain.elapsed.as_secs_f64());
    }
    // Every pass does the same work and contention from the host only ever slows a
    // pass down, so the fastest passes estimate the program's own speed. On a shared
    // two-vCPU VM this spread across runs two to three times less than the median
    // pass rate did.
    plain.ops_per_s = fastest_tenth(&plain.op_rates);
    plain.sim_refs_per_s = fastest_tenth(&ref_rates);

    let mut traced_phase = None;
    let mut traced = None;
    if trace {
        let registry = Registry::new();
        let mut tracer = Tracer::new();
        let mut ledger = Ledger::default();
        let mut pass_counts = Counts::new();
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed().as_secs_f64() < seconds / 2.0 || i < ops {
            let op = i % ops;
            tracer.set_op(i as u64);
            let mut pass_out = None;
            time_op(&mut ledger, &mut checks, op, true, || {
                let out = w.run_traced(op, &mut tracer, &registry)?;
                pass_out = Some(out.counts.clone());
                Ok(out)
            });
            if i < ops {
                if let Some(c) = pass_out {
                    add_counts(&mut pass_counts, &c);
                }
            }
            i += 1;
        }
        ledger.elapsed = start.elapsed();
        let op_seconds = tracer.total_ns("op") as f64 / 1e9;
        traced_phase = Some(TracedPhase {
            tracer,
            setup: setup_tracer,
            ops: ledger.attempted,
            op_seconds,
            pass_counts,
            sim_refs: ledger.sim_refs,
            plain_ops_per_s: plain.mean_ops_per_s(),
        });
        traced = Some(ledger);
    }
    let peak_rss_mb = peak_rss_mb();

    let mut oracle_failures = 0;
    for (op, reason) in w.verify()? {
        oracle_failures += checks.runs.get(op).copied().unwrap_or(1).max(1);
        plain.problem(format!("op {op}: {reason}"));
    }
    let extra = w.extra(&plain);
    let layers = traced_phase
        .as_ref()
        .map(|t| w.layers(t))
        .unwrap_or_default();
    if let Some(t) = &traced_phase {
        t.tracer
            .write_jsonl(&crate::out_dir().join(format!("spans-{name}-seed{seed}.jsonl")))
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        peak_rss_mb,
        oracle_failures,
        extra,
        layers,
        description: w.describe(),
    })
}
