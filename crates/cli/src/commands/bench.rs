//! `ccache bench` — measure replay throughput and gate against a committed baseline.
//!
//! The command is a thin client of [`Session::bench`]: it replays one calibrated
//! corpus workload through every engine datapath (per-reference, batched, streamed),
//! renders the versioned `ccache-bench` artefact, and — with `--baseline` — compares
//! the machine-independent mode *ratios* against a committed artefact with a
//! tolerance band. CI runs the gate on every push, so a change that slows the batched
//! or streamed datapath relative to per-reference replay fails the build rather than
//! landing silently.
//!
//! # Artefact schema (version 3)
//!
//! All host-dependent numbers live under `timing` keys, in `ratios` and in
//! `environment` — strip those (`jq 'del(.modes[].timing, .batch_sweep[].timing,
//! .ratios, .environment)'`) and the rest of the artefact is byte-deterministic for a
//! given workload and scale. The gate reads version-3 baselines only. See DESIGN.md
//! ("Bench artefact & datapath") for the full schema.

use crate::args::ArgParser;
use crate::error::CliError;
use crate::output::{markdown_table, Render, ReportArgs};
use ccache_json::{Json, ToJson};
use column_caching::bench::{BenchReport, BenchRequest};
use column_caching::Session;
use std::fmt::Write as _;

/// Artefact type tag, checked by the comparator before diffing anything.
const ARTEFACT: &str = "ccache-bench";
/// Artefact schema version, bumped on any breaking schema change. Version 3 dropped
/// the checkpoint-parallel mode, the segment sweep and the `tune` section.
const VERSION: u64 = 3;
/// Default allowed fractional regression of a gated ratio.
const DEFAULT_TOLERANCE: f64 = 0.4;
/// The ratios the gate checks: machine-independent mode-vs-mode speedups.
const GATED_RATIOS: [&str; 2] = ["batched_vs_per_reference", "streamed_vs_per_reference"];

/// Help text for `ccache bench`.
pub const USAGE: &str = "\
usage: ccache bench [options]

Measures replay throughput (references/second) for every engine datapath --
per-reference, batched, and streamed from the binary trace format -- on one
calibrated corpus workload, plus a batch-size scaling curve. Every mode is
asserted to produce identical replay statistics, so the datapaths can only
differ in speed, never results.

Absolute refs/sec are host-dependent; the mode-vs-mode ratios are not, and
--baseline gates on those: the build fails if a gated ratio drops more than
--tolerance below the committed artefact's value.

options:
  --quick, -q       reduced working sets for smoke tests
  --workload NAME   corpus workload to replay (default: mpeg-combined)
  --iterations N    timed repetitions per mode, best wins (default: 3)
  --baseline FILE   gate mode: compare ratios against a committed artefact
  --tolerance T     allowed fractional ratio regression (default: 0.4)
  --format FMT      json | csv | markdown (default: json)
  --out FILE        write the artefact in FMT to FILE instead of stdout
  --help, -h        show this help
";

/// The rendered artefact: the facade's report plus the schema tag and version.
struct BenchArtefact {
    report: BenchReport,
}

fn timing_json(timing: &column_caching::bench::BenchTiming) -> Json {
    Json::obj([
        ("elapsed_s", timing.elapsed_s.to_json()),
        ("refs_per_sec", timing.refs_per_sec.to_json()),
    ])
}

impl ToJson for BenchArtefact {
    fn to_json(&self) -> Json {
        let r = &self.report;
        Json::obj([
            ("artefact", ARTEFACT.to_json()),
            ("version", VERSION.to_json()),
            ("workload", r.workload.to_json()),
            ("quick", r.quick.to_json()),
            ("backend", r.backend.to_json()),
            ("references", r.references.to_json()),
            (
                "environment",
                Json::obj([
                    ("os", r.environment.os.to_json()),
                    ("arch", r.environment.arch.to_json()),
                    ("threads", (r.environment.threads as u64).to_json()),
                    ("debug_assertions", r.environment.debug_assertions.to_json()),
                    ("parallel", r.environment.parallel.to_json()),
                ]),
            ),
            (
                "result",
                Json::obj([
                    ("references", r.result.references.to_json()),
                    ("total_cycles", r.result.total_cycles().to_json()),
                    ("hits", r.result.hits.to_json()),
                    ("misses", r.result.misses.to_json()),
                    ("writebacks", r.result.writebacks.to_json()),
                    ("miss_rate", r.result.miss_rate().to_json()),
                ]),
            ),
            (
                "modes",
                Json::arr(r.modes.iter().map(|m| {
                    Json::obj([
                        ("mode", m.mode.to_json()),
                        ("iterations", (m.iterations as u64).to_json()),
                        ("timing", timing_json(&m.timing)),
                    ])
                })),
            ),
            (
                "batch_sweep",
                Json::arr(r.batch_sweep.iter().map(|p| {
                    Json::obj([
                        ("batch", p.value.to_json()),
                        ("timing", timing_json(&p.timing)),
                    ])
                })),
            ),
            (
                "ratios",
                Json::obj([
                    (
                        "batched_vs_per_reference",
                        r.ratios.batched_vs_per_reference.to_json(),
                    ),
                    (
                        "streamed_vs_per_reference",
                        r.ratios.streamed_vs_per_reference.to_json(),
                    ),
                ]),
            ),
        ])
    }
}

impl BenchArtefact {
    fn rows(&self) -> Vec<Vec<String>> {
        self.report
            .modes
            .iter()
            .map(|m| {
                vec![
                    m.mode.to_owned(),
                    self.report.references.to_string(),
                    format!("{:.6}", m.timing.elapsed_s),
                    format!("{:.0}", m.timing.refs_per_sec),
                ]
            })
            .collect()
    }
}

impl Render for BenchArtefact {
    fn to_json_text(&self) -> String {
        self.to_json().pretty()
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("mode,references,elapsed_s,refs_per_sec\n");
        for row in self.rows() {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    fn to_markdown(&self) -> String {
        let r = &self.report;
        let mut out = format!(
            "### Replay bench — `{}` ({} references, {})\n\n",
            r.workload,
            r.references,
            if r.quick { "quick scale" } else { "full scale" },
        );
        out.push_str(&markdown_table(
            &["mode", "references", "elapsed (s)", "refs/sec"],
            &self.rows(),
        ));
        let _ = write!(
            out,
            "\nbatched vs per-reference: {:.2}x · streamed vs per-reference: {:.2}x\n",
            r.ratios.batched_vs_per_reference, r.ratios.streamed_vs_per_reference,
        );
        out
    }
}

/// A ratio read out of a baseline artefact, by the names in [`GATED_RATIOS`].
fn current_ratio(report: &BenchReport, name: &str) -> f64 {
    match name {
        "batched_vs_per_reference" => report.ratios.batched_vs_per_reference,
        "streamed_vs_per_reference" => report.ratios.streamed_vs_per_reference,
        _ => unreachable!("unknown gated ratio {name}"),
    }
}

/// Compares the run's gated ratios against a committed baseline artefact.
///
/// The gate passes when every gated ratio is at least `baseline * (1 - tolerance)`;
/// improvements always pass. Identity fields (artefact tag, version, workload, scale)
/// must match, otherwise the comparison would be between different measurements.
fn gate(report: &BenchReport, baseline: &Json, tolerance: f64) -> Result<(), CliError> {
    let field = |name: &str| {
        baseline
            .get(name)
            .cloned()
            .ok_or_else(|| io_error(format!("baseline artefact is missing '{name}'")))
    };
    let tag = field("artefact")?;
    if tag.as_str() != Some(ARTEFACT) {
        return Err(io_error(format!(
            "baseline is not a {ARTEFACT} artefact (artefact = {})",
            tag.compact()
        )));
    }
    let version = field("version")?;
    if version.as_u64() != Some(VERSION) {
        return Err(io_error(format!(
            "baseline schema version {} is not readable by this binary (reads version \
             {VERSION} only)",
            version.compact()
        )));
    }
    let workload = field("workload")?;
    if workload.as_str() != Some(&report.workload) {
        return Err(io_error(format!(
            "baseline was recorded for workload {}, this run replayed '{}'",
            workload.compact(),
            report.workload
        )));
    }
    let quick = field("quick")?;
    if quick.as_bool() != Some(report.quick) {
        return Err(io_error(
            "baseline and this run were recorded at different scales (quick flag differs)",
        ));
    }

    let mut regressions = Vec::new();
    let ratios = field("ratios")?;
    for name in GATED_RATIOS {
        let recorded = ratios
            .get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| io_error(format!("baseline artefact is missing ratios.{name}")))?;
        let current = current_ratio(report, name);
        let floor = recorded * (1.0 - tolerance);
        if current < floor {
            regressions.push(format!(
                "{name}: {current:.3} < {floor:.3} (baseline {recorded:.3}, \
                 tolerance {tolerance})"
            ));
        } else {
            eprintln!("bench gate: {name} {current:.3} vs baseline {recorded:.3} — ok");
        }
    }

    if regressions.is_empty() {
        Ok(())
    } else {
        Err(io_error(format!(
            "bench regression beyond tolerance:\n  {}",
            regressions.join("\n  ")
        )))
    }
}

fn io_error(msg: impl Into<String>) -> CliError {
    CliError::Io(std::io::Error::other(msg.into()))
}

fn parse_usize(p: &ArgParser, name: &str, raw: &str, min: usize) -> Result<usize, CliError> {
    match raw.parse::<usize>() {
        Ok(v) if v >= min => Ok(v),
        _ => Err(p.usage(format!(
            "invalid value '{raw}' for '{name}' (expected an integer >= {min})"
        ))),
    }
}

/// Runs the subcommand.
///
/// # Errors
///
/// Fails on usage errors, unknown workloads, unreadable baselines, and — in gate
/// mode — on a ratio regression beyond the tolerance band.
pub fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("bench", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let report_args = ReportArgs::from_parser(&mut p)?;
    let mut request = BenchRequest::default();
    if let Some(workload) = p.value("--workload")? {
        request.workload = workload;
    }
    if let Some(raw) = p.value("--iterations")? {
        request.iterations = parse_usize(&p, "--iterations", &raw, 1)?;
    }
    let baseline_path = p.value("--baseline")?;
    let tolerance = match p.value("--tolerance")? {
        None => DEFAULT_TOLERANCE,
        Some(raw) => match raw.parse::<f64>() {
            Ok(t) if (0.0..1.0).contains(&t) => t,
            _ => {
                return Err(p.usage(format!(
                    "invalid value '{raw}' for '--tolerance' (expected a fraction in [0, 1))"
                )))
            }
        },
    };
    p.finish()?;

    let session = Session::builder().quick(report_args.quick()).build()?;
    eprintln!(
        "bench: replaying '{}' at {:?} scale, {} iteration(s) per mode",
        request.workload, report_args.scale, request.iterations
    );
    let report = session.bench(&request)?;
    let artefact = BenchArtefact { report };
    report_args.emit(&artefact)?;

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)?;
        let baseline = Json::parse(&text)
            .map_err(|e| io_error(format!("baseline '{path}' is not valid JSON: {e}")))?;
        gate(&artefact.report, &baseline, tolerance)?;
        eprintln!("bench gate: all gated ratios within tolerance of '{path}'");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One real quick bench run, reused by every gate test.
    fn measured_report() -> BenchReport {
        let session = Session::builder().quick(true).build().unwrap();
        session
            .bench(&BenchRequest {
                workload: "fir".to_owned(),
                iterations: 1,
                batch_sweep: vec![],
            })
            .unwrap()
    }

    /// A baseline carrying only the fields the gate reads, at a chosen schema version,
    /// with ratios `scale` times the report's own (so the gate passes at 1.0).
    fn baseline(version: u64, r: &BenchReport, scale: f64) -> Json {
        Json::obj([
            ("artefact", ARTEFACT.to_json()),
            ("version", version.to_json()),
            ("workload", r.workload.to_json()),
            ("quick", r.quick.to_json()),
            (
                "ratios",
                Json::obj([
                    (
                        "batched_vs_per_reference",
                        (r.ratios.batched_vs_per_reference * scale).to_json(),
                    ),
                    (
                        "streamed_vs_per_reference",
                        (r.ratios.streamed_vs_per_reference * scale).to_json(),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn gate_reads_version_3_baselines_only() {
        let report = measured_report();
        gate(&report, &baseline(3, &report, 1.0), 0.4).unwrap();
        for version in [1, 2, 4] {
            let err = gate(&report, &baseline(version, &report, 1.0), 0.4).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("schema version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn gate_flags_ratio_regressions() {
        let report = measured_report();
        // the baseline claims 10x better ratios than this run measured
        let err = gate(&report, &baseline(3, &report, 10.0), 0.4).unwrap_err();
        assert!(
            err.to_string().contains("batched_vs_per_reference"),
            "{err}"
        );
    }
}
