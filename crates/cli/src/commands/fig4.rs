//! `ccache fig4` — the Figure 4 partition sweep (and Figure 4(d) dynamic comparison).
//!
//! The command is a preset over the experiment layer: it compiles to the
//! [`ccache_exp::presets::fig4_spec`] spec, runs through the shared plan → execute
//! pipeline, and reassembles the outcomes into the legacy [`SweepReport`] — whose JSON
//! artefact is byte-identical to the pre-refactor command (golden-tested).

use crate::args::ArgParser;
use crate::error::CliError;
use crate::output::{csv_field, markdown_table, Render, ReportArgs};
use ccache_core::dynamic::Figure4dResult;
use ccache_core::partition::PartitionSweep;
use ccache_core::report::{figure4d_table, partition_table, SweepReport};
use ccache_exp::exec::JobOutcome;
use ccache_exp::presets::fig4_spec;
use ccache_exp::scale::figure4_config;
use std::fmt::Write as _;

/// Help text for `ccache fig4`.
pub const USAGE: &str = "\
usage: ccache fig4 [options]

Reproduces Figure 4: cycle count of the MPEG routines versus the scratchpad/cache
partition of a 2 KB, 4-column on-chip memory, plus the combined-application comparison
against a dynamically remapped column cache.

options:
  --routine NAME    dequant | plus | idct | combined | all (default: all)
  --quick, -q       reduced working sets for smoke tests
  --json FILE       write the JSON artefact (same as --format json --out FILE)
  --format FMT      json | csv | markdown (default: json)
  --out FILE        write the report in FMT to FILE instead of stdout
  --help, -h        show this help
";

const ROUTINES: [&str; 5] = ["dequant", "plus", "idct", "combined", "all"];

/// The partition sweeps and dynamic comparison of one Figure 4 run, reassembled from
/// the pipeline's outcomes in presentation order.
pub struct Fig4Results {
    /// One sweep per routine, combined last.
    pub sweeps: Vec<PartitionSweep>,
    /// The dynamic run's comparison, when the combined application ran.
    pub figure4d: Option<Figure4dResult>,
}

/// Runs the fig4 preset through the experiment pipeline and reassembles the sweeps.
///
/// # Errors
///
/// Fails on invalid configurations or execution failures.
pub fn compute(routine: &str, quick: bool) -> Result<Fig4Results, CliError> {
    let spec = fig4_spec(routine);
    let session = column_caching::Session::builder().quick(quick).build()?;
    let artefact = session.run_spec(&spec)?;
    let by_key = artefact.by_key();

    let mut sweeps: Vec<PartitionSweep> = Vec::new();
    let mut dynamic: Option<&ccache_core::dynamic::DynamicRunResult> = None;
    for job in ccache_exp::plan::expand(&spec) {
        match by_key.get(&job.key()) {
            Some(JobOutcome::Partition {
                workload, point, ..
            }) => {
                if sweeps.last().map(|s| s.name.as_str()) != Some(workload.as_str()) {
                    sweeps.push(PartitionSweep {
                        name: workload.clone(),
                        points: Vec::new(),
                    });
                }
                sweeps
                    .last_mut()
                    .expect("sweep pushed above")
                    .points
                    .push(point.clone());
            }
            Some(JobOutcome::Dynamic { run, .. }) => dynamic = Some(run),
            _ => unreachable!("fig4 plans partition and dynamic jobs only"),
        }
    }

    let figure4d = dynamic.map(|run| {
        let static_sweep = sweeps.last().expect("combined sweep precedes dynamic");
        Figure4dResult {
            static_cycles: static_sweep
                .points
                .iter()
                .map(|p| (p.cache_columns, p.cycles))
                .collect(),
            column_cache_cycles: run.cycles,
            column_cache_control_cycles: run.control_cycles,
        }
    });
    Ok(Fig4Results { sweeps, figure4d })
}

/// Runs the subcommand.
///
/// # Errors
///
/// Fails on usage errors, invalid configurations or file-write failures.
pub fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("fig4", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let report_args = ReportArgs::from_parser_with_legacy_json(&mut p)?;
    let routine = p.value("--routine")?.unwrap_or_else(|| "all".to_owned());
    if !ROUTINES.contains(&routine.as_str()) {
        return Err(p.usage(format!(
            "invalid value '{routine}' for '--routine' (expected dequant, plus, idct, combined or all)"
        )));
    }
    p.finish()?;

    let config = figure4_config();
    println!(
        "Figure 4 — on-chip memory: {} bytes, {} columns, {}-byte lines, {:?} scale\n",
        config.capacity_bytes, config.columns, config.line_size, report_args.scale
    );

    let results = compute(&routine, report_args.quick())?;

    // Presentation: per-routine tables with their optimum first, then the combined
    // application's table and the static-vs-dynamic comparison.
    let combined = routine == "all" || routine == "combined";
    let routine_sweeps = results.sweeps.len() - usize::from(combined);
    for sweep in &results.sweeps[..routine_sweeps] {
        println!("{}", partition_table(sweep));
        println!(
            "-> optimum for {}: {} cache columns / {} scratchpad columns\n",
            sweep.name,
            sweep.best().cache_columns,
            sweep.best().scratchpad_columns
        );
    }
    if combined {
        let static_sweep = results.sweeps.last().expect("combined sweep planned");
        println!("{}", partition_table(static_sweep));
        println!(
            "{}",
            figure4d_table(results.figure4d.as_ref().expect("dynamic job planned"))
        );
    }

    let payload = SweepReport {
        figure: "4".to_owned(),
        config,
        sweeps: results.sweeps,
        figure4d: results.figure4d,
    };
    report_args.emit_if_requested(&payload)
}

impl Render for SweepReport {
    fn to_json_text(&self) -> String {
        self.to_json_string()
    }

    fn to_csv(&self) -> String {
        let mut out =
            String::from("series,cache_columns,scratchpad_columns,cycles,misses,hit_rate\n");
        for sweep in &self.sweeps {
            for p in &sweep.points {
                let hit_rate = if p.result.references == 0 {
                    0.0
                } else {
                    p.result.hits as f64 / p.result.references as f64
                };
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{:.6}",
                    csv_field(&sweep.name),
                    p.cache_columns,
                    p.scratchpad_columns,
                    p.cycles,
                    p.result.misses,
                    hit_rate
                );
            }
        }
        if let Some(d) = &self.figure4d {
            let _ = writeln!(out, "column-cache-dynamic,,,{},,", d.column_cache_cycles);
            let _ = writeln!(
                out,
                "column-cache-dynamic+control,,,{},,",
                d.column_cache_cycles + d.column_cache_control_cycles
            );
        }
        out
    }

    fn to_markdown(&self) -> String {
        let mut out = format!(
            "## Figure {} — {} B, {} columns, {} B lines\n\n",
            self.figure, self.config.capacity_bytes, self.config.columns, self.config.line_size
        );
        for sweep in &self.sweeps {
            let _ = writeln!(out, "### {}\n", sweep.name);
            let rows: Vec<Vec<String>> = sweep
                .points
                .iter()
                .map(|p| {
                    let hit_rate = if p.result.references == 0 {
                        0.0
                    } else {
                        p.result.hits as f64 / p.result.references as f64
                    };
                    vec![
                        p.cache_columns.to_string(),
                        p.scratchpad_columns.to_string(),
                        p.cycles.to_string(),
                        p.result.misses.to_string(),
                        format!("{:.1}%", hit_rate * 100.0),
                    ]
                })
                .collect();
            out.push_str(&markdown_table(
                &[
                    "cache columns",
                    "scratchpad columns",
                    "cycles",
                    "misses",
                    "hit rate",
                ],
                &rows,
            ));
            out.push('\n');
        }
        if let Some(d) = &self.figure4d {
            out.push_str("### Static partitions vs. dynamically remapped column cache\n\n");
            let mut rows: Vec<Vec<String>> = d
                .static_cycles
                .iter()
                .map(|(cols, cycles)| vec![format!("static cache={cols}"), cycles.to_string()])
                .collect();
            rows.push(vec![
                "column cache (dynamic)".to_owned(),
                d.column_cache_cycles.to_string(),
            ]);
            rows.push(vec![
                "column cache + remap overhead".to_owned(),
                (d.column_cache_cycles + d.column_cache_control_cycles).to_string(),
            ]);
            out.push_str(&markdown_table(&["configuration", "cycles"], &rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_core::partition::PartitionConfig;

    fn sample_report() -> SweepReport {
        SweepReport {
            figure: "4".to_owned(),
            config: PartitionConfig::default(),
            sweeps: Vec::new(),
            figure4d: Some(Figure4dResult {
                static_cycles: vec![(0, 1000), (4, 800)],
                column_cache_cycles: 700,
                column_cache_control_cycles: 50,
            }),
        }
    }

    #[test]
    fn csv_and_markdown_cover_the_dynamic_comparison() {
        let r = sample_report();
        let csv = r.to_csv();
        assert!(csv.starts_with("series,cache_columns"));
        assert!(csv.contains("column-cache-dynamic,,,700"));
        let md = r.to_markdown();
        assert!(md.contains("| configuration | cycles |"));
        assert!(md.contains("column cache (dynamic)"));
    }

    #[test]
    fn json_text_matches_the_legacy_artefact() {
        let r = sample_report();
        assert_eq!(r.to_json_text(), r.to_json_string());
    }

    #[test]
    fn unknown_routines_are_usage_errors() {
        let err = run(vec!["--routine".to_owned(), "mp3".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("invalid value 'mp3'"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn compute_assembles_sweeps_in_presentation_order() {
        let results = compute("idct", true).unwrap();
        assert_eq!(results.sweeps.len(), 1);
        assert_eq!(results.sweeps[0].name, "idct");
        assert_eq!(results.sweeps[0].points.len(), 5);
        assert!(results.figure4d.is_none());
    }
}
