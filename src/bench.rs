//! The replay throughput harness behind [`Session::bench`](crate::Session::bench) and
//! the `ccache bench` CLI command.
//!
//! The harness replays one calibrated corpus workload through every replay datapath the
//! engine offers — per-reference, batched, and streamed from the binary trace format —
//! and reports references/second for each, plus a scaling curve over batch size.
//! Numbers from *different machines* are not comparable; what is comparable, and what
//! CI gates on, are the **ratios** between modes on the same machine (batched vs
//! per-reference, streamed vs per-reference), which measure the datapath overheads
//! this crate controls rather than host speed.
//!
//! Every mode must produce an identical [`RunResult`] — the harness asserts this on
//! every run, so a benchmark can never get faster by silently computing something
//! else. All timing-dependent values are confined to [`BenchTiming`] and
//! [`BenchRatios`]; everything else in a [`BenchReport`] is deterministic, which is
//! what lets CI `cmp` two artefacts modulo the timing fields.

use crate::session::{Session, SessionError};
use ccache_core::runner::run_on;
use ccache_core::RunResult;
use std::time::Instant;

/// What [`Session::bench`](crate::Session::bench) should measure.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRequest {
    /// Corpus workload to replay (see [`ccache_workloads::CORPUS_NAMES`]).
    pub workload: String,
    /// Timed repetitions per mode; the fastest wins (reduces scheduler noise).
    pub iterations: usize,
    /// Batch sizes for the batched-replay scaling curve.
    pub batch_sweep: Vec<usize>,
}

impl Default for BenchRequest {
    /// The calibrated default: the combined MPEG trace (the paper's Figure 4 workload),
    /// three timed repetitions, and a small power-of-four batch sweep.
    fn default() -> Self {
        BenchRequest {
            workload: "mpeg-combined".to_owned(),
            iterations: 3,
            batch_sweep: vec![64, 256, 1024, 4096, 16384],
        }
    }
}

/// Where a benchmark ran: enough metadata to judge whether two artefacts are
/// comparable, not enough to identify a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEnvironment {
    /// Operating system (`std::env::consts::OS`).
    pub os: &'static str,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
    /// Available parallelism reported by the host.
    pub threads: usize,
    /// Whether the binary was compiled with debug assertions (a debug-profile bench is
    /// not comparable to a release one).
    pub debug_assertions: bool,
    /// Whether the `parallel` feature was compiled in.
    pub parallel: bool,
}

impl BenchEnvironment {
    /// Captures the current process's environment.
    pub fn capture() -> Self {
        BenchEnvironment {
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            debug_assertions: cfg!(debug_assertions),
            parallel: cfg!(feature = "parallel"),
        }
    }
}

/// Wall-clock measurement of one replay mode. These are the only host-dependent
/// numbers in a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchTiming {
    /// Best (minimum) wall-clock seconds over the timed repetitions.
    pub elapsed_s: f64,
    /// References per second at the best repetition (0 for an empty trace).
    pub refs_per_sec: f64,
}

impl BenchTiming {
    fn from_best(best: std::time::Duration, references: u64) -> Self {
        let elapsed_s = best.as_secs_f64();
        BenchTiming {
            elapsed_s,
            refs_per_sec: if elapsed_s > 0.0 {
                references as f64 / elapsed_s
            } else {
                0.0
            },
        }
    }
}

/// One replay mode's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMode {
    /// Mode name: `per_reference`, `batched` or `streamed`.
    pub mode: &'static str,
    /// Timed repetitions the measurement took the minimum over.
    pub iterations: usize,
    /// The wall-clock measurement.
    pub timing: BenchTiming,
}

/// One point of the batch-size scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSweepPoint {
    /// The swept batch size.
    pub value: u64,
    /// The wall-clock measurement at this point.
    pub timing: BenchTiming,
}

/// Throughput ratios between modes — the machine-independent numbers CI gates on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchRatios {
    /// Batched replay speedup over per-reference replay.
    pub batched_vs_per_reference: f64,
    /// Streamed (binary-format) replay speedup over per-reference replay.
    pub streamed_vs_per_reference: f64,
}

/// The result of one [`Session::bench`](crate::Session::bench) run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The workload that was replayed.
    pub workload: String,
    /// Whether the workload was built at quick scale.
    pub quick: bool,
    /// The backend every mode replayed on.
    pub backend: String,
    /// References in the replayed trace.
    pub references: u64,
    /// Where the benchmark ran.
    pub environment: BenchEnvironment,
    /// The replay statistics every mode produced (asserted identical across modes).
    pub result: RunResult,
    /// Per-mode measurements, in a fixed order.
    pub modes: Vec<BenchMode>,
    /// Batched-replay throughput over the requested batch sizes.
    pub batch_sweep: Vec<BenchSweepPoint>,
    /// Mode-vs-mode throughput ratios.
    pub ratios: BenchRatios,
}

impl BenchReport {
    /// The measurement for `mode`, if it was run.
    pub fn mode(&self, mode: &str) -> Option<&BenchMode> {
        self.modes.iter().find(|m| m.mode == mode)
    }
}

/// Runs `body` `iterations` times and keeps the best duration it reports. The body
/// times itself (via [`Instant`]) so untimed preparation — engine and reader
/// construction — stays outside the measured region.
fn time_mode<T>(
    iterations: usize,
    references: u64,
    mut body: impl FnMut() -> Result<(T, std::time::Duration), SessionError>,
) -> Result<(T, BenchTiming), SessionError> {
    let mut best = std::time::Duration::MAX;
    let mut last = None;
    for _ in 0..iterations.max(1) {
        let (value, elapsed) = body()?;
        best = best.min(elapsed);
        last = Some(value);
    }
    Ok((
        last.expect("at least one iteration ran"),
        BenchTiming::from_best(best, references),
    ))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the harness for a session. Called through [`Session::bench`](crate::Session::bench).
pub(crate) fn run(session: &Session, request: &BenchRequest) -> Result<BenchReport, SessionError> {
    let run = ccache_workloads::corpus(&request.workload, session.quick()).ok_or_else(|| {
        SessionError::BadRequest(format!(
            "unknown workload '{}' (expected one of: {})",
            request.workload,
            ccache_workloads::CORPUS_NAMES.join(", ")
        ))
    })?;
    let trace = &run.trace;
    let references = trace.len() as u64;
    let iterations = request.iterations.max(1);

    // Per-reference replay: the seed's loop, one `access` call per event.
    let (per_ref_result, per_ref) = time_mode(iterations, references, || {
        let mut engine = session.engine()?;
        let start = Instant::now();
        let result = run_on("bench", engine.backend_mut(), trace).expect("per-reference replay");
        Ok((result, start.elapsed()))
    })?;

    // Batched replay: the default engine datapath.
    let (batched_result, batched) = time_mode(iterations, references, || {
        let mut engine = session.engine()?;
        let start = Instant::now();
        let result = engine.replay("bench", trace);
        Ok((result, start.elapsed()))
    })?;

    // Streamed replay: decode the binary trace format batch by batch.
    let mut encoded = Vec::new();
    ccache_trace::binfmt::write_trace(trace, &mut encoded)
        .map_err(|e| SessionError::BadRequest(format!("failed to encode trace: {e}")))?;
    let (streamed_result, streamed) = time_mode(iterations, references, || {
        let mut engine = session.engine()?;
        let mut reader =
            ccache_trace::binfmt::TraceReader::new(&encoded[..]).expect("in-memory header");
        let start = Instant::now();
        let result = engine
            .replay_reader("bench", &mut reader)
            .expect("in-memory stream");
        Ok((result, start.elapsed()))
    })?;

    for (mode, result) in [("batched", &batched_result), ("streamed", &streamed_result)] {
        if *result != per_ref_result {
            return Err(SessionError::BadRequest(format!(
                "bench self-check failed: {mode} replay disagreed with per-reference replay"
            )));
        }
    }

    let mut batch_sweep = Vec::with_capacity(request.batch_sweep.len());
    for &batch in &request.batch_sweep {
        let (_, timing) = time_mode(1, references, || {
            let mut engine = session.engine()?;
            engine.set_batch_size(batch);
            let start = Instant::now();
            let result = engine.replay("bench", trace);
            Ok((result, start.elapsed()))
        })?;
        batch_sweep.push(BenchSweepPoint {
            value: batch as u64,
            timing,
        });
    }

    Ok(BenchReport {
        workload: run.name.clone(),
        quick: session.quick(),
        backend: session.backend().to_owned(),
        references,
        environment: BenchEnvironment::capture(),
        result: per_ref_result,
        modes: vec![
            BenchMode {
                mode: "per_reference",
                iterations,
                timing: per_ref,
            },
            BenchMode {
                mode: "batched",
                iterations,
                timing: batched,
            },
            BenchMode {
                mode: "streamed",
                iterations,
                timing: streamed,
            },
        ],
        batch_sweep,
        ratios: BenchRatios {
            batched_vs_per_reference: ratio(batched.refs_per_sec, per_ref.refs_per_sec),
            streamed_vs_per_reference: ratio(streamed.refs_per_sec, per_ref.refs_per_sec),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_every_mode_and_results_agree() {
        let session = Session::builder().quick(true).build().unwrap();
        let request = BenchRequest {
            workload: "fir".to_owned(),
            iterations: 1,
            batch_sweep: vec![64, 4096],
        };
        let report = session.bench(&request).unwrap();
        assert_eq!(report.workload, "fir");
        assert!(report.quick);
        assert_eq!(report.backend, "column-cache");
        assert!(report.references > 0);
        assert_eq!(report.result.references, report.references);
        let modes: Vec<&str> = report.modes.iter().map(|m| m.mode).collect();
        assert_eq!(modes, ["per_reference", "batched", "streamed"]);
        for mode in &report.modes {
            assert!(
                mode.timing.refs_per_sec > 0.0,
                "{} must be timed",
                mode.mode
            );
        }
        assert_eq!(report.batch_sweep.len(), 2);
        assert!(report.ratios.batched_vs_per_reference > 0.0);
        assert!(report.environment.threads >= 1);
    }

    #[test]
    fn bench_rejects_unknown_workloads() {
        let session = Session::builder().quick(true).build().unwrap();
        let request = BenchRequest {
            workload: "nope".to_owned(),
            ..BenchRequest::default()
        };
        let err = session.bench(&request).err().unwrap();
        assert!(err.to_string().contains("unknown workload 'nope'"));
    }
}
