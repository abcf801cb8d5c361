//! `ccache fig5` — the Figure 5 multitasking CPI-versus-quantum sweep.
//!
//! A preset over the experiment layer: the command compiles to
//! [`ccache_exp::presets::fig5_spec`] (the default multitask grid with this scale's
//! quanta), runs through the shared pipeline and reassembles the outcomes into the
//! legacy [`Fig5Report`] — byte-identical JSON to the pre-refactor command
//! (golden-tested).

use crate::args::ArgParser;
use crate::error::CliError;
use crate::output::{csv_field, markdown_table, Render, ReportArgs};
use ccache_core::multitask::QuantumSeries;
use ccache_core::report::quantum_table;
use ccache_exp::exec::JobOutcome;
use ccache_exp::presets::fig5_spec;
use ccache_exp::scale::Scale;
use ccache_json::{Json, ToJson};
use std::fmt::Write as _;

/// Help text for `ccache fig5`.
pub const USAGE: &str = "\
usage: ccache fig5 [options]

Reproduces Figure 5: CPI of gzip job A versus the context-switch quantum under
round-robin multitasking with three gzip jobs, for a standard cache and a mapped column
cache, at 16 KiB and 128 KiB.

options:
  --quick, -q       reduced working sets for smoke tests
  --json FILE       write the JSON artefact (same as --format json --out FILE)
  --format FMT      json | csv | markdown (default: json)
  --out FILE        write the report in FMT to FILE instead of stdout
  --help, -h        show this help
";

/// The Figure 5 report: every (configuration × sharing policy) series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Report {
    /// The CPI-versus-quantum series, in run order.
    pub series: Vec<QuantumSeries>,
}

impl Fig5Report {
    /// The JSON document (layout identical to the legacy `fig5 --json` artefact).
    pub fn to_json(&self) -> Json {
        Json::obj([("figure", "5".to_json()), ("series", self.series.to_json())])
    }
}

impl Render for Fig5Report {
    fn to_json_text(&self) -> String {
        self.to_json().pretty()
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("series,quantum,cpi\n");
        for s in &self.series {
            for &(q, cpi) in &s.points {
                let _ = writeln!(out, "{},{},{:.6}", csv_field(&s.label), q, cpi);
            }
        }
        out
    }

    fn to_markdown(&self) -> String {
        let mut out = String::from("## Figure 5 — CPI of job A vs. context-switch quantum\n\n");
        let quanta: Vec<usize> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(q, _)| q).collect())
            .unwrap_or_default();
        let mut header: Vec<&str> = vec!["quantum"];
        header.extend(self.series.iter().map(|s| s.label.as_str()));
        let rows: Vec<Vec<String>> = quanta
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut row = vec![q.to_string()];
                for s in &self.series {
                    row.push(match s.points.get(i) {
                        Some(&(_, cpi)) => format!("{cpi:.3}"),
                        None => "-".to_owned(),
                    });
                }
                row
            })
            .collect();
        out.push_str(&markdown_table(&header, &rows));
        out
    }
}

/// Runs the fig5 preset through the experiment pipeline and reassembles the series,
/// plus the `(name, references)` of each scheduled job (for the header, so the job
/// traces are only ever generated once, inside the executor).
///
/// # Errors
///
/// Fails on invalid configurations or execution failures.
pub fn compute(scale: Scale) -> Result<(Fig5Report, Vec<(String, u64)>), CliError> {
    let spec = fig5_spec(scale.quanta());
    let session = column_caching::Session::builder()
        .quick(scale.is_quick())
        .build()?;
    let artefact = session.run_spec(&spec)?;
    // Every run attributes each job's full reference stream to it, so any outcome
    // reports the per-job trace lengths.
    let jobs: Vec<(String, u64)> = match artefact.outcomes.first() {
        Some(JobOutcome::Multitask { run, .. }) => run
            .jobs
            .iter()
            .map(|j| (j.name.clone(), j.references))
            .collect(),
        _ => Vec::new(),
    };
    let mut series: Vec<QuantumSeries> = Vec::new();
    for outcome in &artefact.outcomes {
        let JobOutcome::Multitask {
            series: label,
            quantum,
            run,
        } = outcome
        else {
            unreachable!("fig5 plans multitask jobs only");
        };
        if series.last().map(|s| s.label.as_str()) != Some(label.as_str()) {
            series.push(QuantumSeries {
                label: label.clone(),
                points: Vec::new(),
            });
        }
        series
            .last_mut()
            .expect("series pushed above")
            .points
            .push((*quantum, run.critical_job().cpi));
    }
    Ok((Fig5Report { series }, jobs))
}

/// Runs the subcommand.
///
/// # Errors
///
/// Fails on usage errors, invalid configurations or file-write failures.
pub fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("fig5", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let report_args = ReportArgs::from_parser_with_legacy_json(&mut p)?;
    p.finish()?;
    let scale = report_args.scale;

    let (report, jobs) = compute(scale)?;
    println!("Figure 5 — three gzip jobs, round-robin, {:?} scale", scale);
    for (name, references) in &jobs {
        println!("  {name}: {references} references");
    }
    println!();
    println!("{}", quantum_table(&report.series));
    report_args.emit_if_requested(&report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fig5Report {
        Fig5Report {
            series: vec![
                QuantumSeries {
                    label: "gzip.16k".into(),
                    points: vec![(1, 2.8), (4, 2.5)],
                },
                QuantumSeries {
                    label: "gzip.16k mapped".into(),
                    points: vec![(1, 1.9), (4, 1.9)],
                },
            ],
        }
    }

    #[test]
    fn json_layout_matches_the_legacy_artefact() {
        let r = sample();
        let legacy = Json::obj([("figure", "5".to_json()), ("series", r.series.to_json())]);
        assert_eq!(r.to_json_text(), legacy.pretty());
    }

    #[test]
    fn csv_is_long_format_and_markdown_is_wide() {
        let r = sample();
        let csv = r.to_csv();
        assert!(csv.contains("gzip.16k,1,2.800000"));
        assert!(csv.contains("gzip.16k mapped,4,1.900000"));
        let md = r.to_markdown();
        assert!(md.contains("| quantum | gzip.16k | gzip.16k mapped |"));
        assert!(md.contains("| 1 | 2.800 | 1.900 |"));
    }
}
