//! `ccache ablation` — sensitivity studies beyond the paper's figures.
//!
//! Studies 1–3 (replacement policy, column count, layout vs. naive) are presets over
//! the experiment layer ([`ccache_exp::presets::ablation_spec`]); the printed tables
//! are reassembled from the pipeline's outcomes and are byte-identical to the
//! pre-refactor output (golden-tested). Study 4 — remapping a tint versus re-tinting
//! pages — is a control-plane micro-benchmark with no reference stream, so it runs
//! directly against a [`MemorySystem`]. With `--format`/`--out` the command also emits
//! the unified experiment artefact for studies 1–3.

use crate::args::ArgParser;
use crate::error::CliError;
use crate::output::{Render, ReportArgs};
use ccache_exp::exec::JobOutcome;
use ccache_exp::plan::expand;
use ccache_exp::presets::ablation_spec;
use ccache_exp::scale::Scale;
use ccache_exp::Artefact;
use ccache_sim::{ColumnMask, MemorySystem, ReplacementPolicy, Tint};
use std::fmt::Write as _;

/// Help text for `ccache ablation`.
pub const USAGE: &str = "\
usage: ccache ablation [options]

Ablation studies beyond the paper's figures:
  1. replacement-policy sensitivity of the column cache;
  2. column-count sensitivity (2/4/8/16 columns at fixed capacity);
  3. the layout algorithm versus a naive round-robin variable assignment;
  4. the cost of re-tinting pages versus remapping tints (the Figure 3 motivation).

options:
  --quick, -q       reduced working sets for smoke tests
  --format FMT      json | csv | markdown: also emit the experiment artefact of
                    studies 1-3 (study 4 is a control-plane micro-benchmark and
                    appears in the printed tables only)
  --out FILE        write the artefact in FMT to FILE instead of stdout
  --help, -h        show this help
";

/// Runs studies 1–3 through the experiment pipeline and renders all four studies as
/// the legacy report text. Returns the text and the pipeline artefact.
///
/// # Errors
///
/// Fails on invalid configurations or execution failures.
pub fn compute(scale: Scale) -> Result<(String, Artefact), CliError> {
    let spec = ablation_spec();
    let session = column_caching::Session::builder()
        .quick(scale.is_quick())
        .build()?;
    let artefact = session.run_spec(&spec)?;
    let by_key = artefact.by_key();
    let expanded = expand(&spec);
    let mut jobs = expanded.iter();
    let mut next = || {
        let job = jobs.next().expect("ablation plan covers every study");
        *by_key.get(&job.key()).expect("every job has an outcome")
    };
    let mut out = String::new();

    // ----------------------------------------------------------------- replacement policy
    let _ = writeln!(
        out,
        "## Ablation 1: replacement-policy sensitivity (idct, 2 KB / 4 columns)\n"
    );
    let _ = writeln!(out, "{:>12} {:>12} {:>10}", "policy", "cycles", "miss rate");
    for policy in ReplacementPolicy::ALL {
        let JobOutcome::Replay { result, .. } = next() else {
            unreachable!("study 1 plans plain replays");
        };
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>9.1}%",
            policy.to_string(),
            result.total_cycles(),
            result.miss_rate() * 100.0
        );
    }

    // --------------------------------------------------------------------- column count
    let _ = writeln!(
        out,
        "\n## Ablation 2: column-count sensitivity (combined MPEG app, 2 KB total)\n"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>12}",
        "columns", "best partition", "cycles"
    );
    for columns in [2usize, 4, 8, 16] {
        let mut best: Option<(usize, u64)> = None;
        for _ in 0..=columns {
            let JobOutcome::Partition { point, .. } = next() else {
                unreachable!("study 2 plans partition sweeps");
            };
            if best.is_none() || point.cycles < best.expect("checked").1 {
                best = Some((point.cache_columns, point.cycles));
            }
        }
        let (best_cache, best_cycles) = best.expect("sweep has points");
        let _ = writeln!(
            out,
            "{:>8} {:>14} {:>12}",
            columns,
            format!("{best_cache} cache cols"),
            best_cycles
        );
    }

    // ------------------------------------------------------------- layout vs naive layout
    let _ = writeln!(
        out,
        "\n## Ablation 3: conflict-graph layout vs. naive round-robin assignment (idct)\n"
    );
    let _ = writeln!(
        out,
        "{:>22} {:>12} {:>10}",
        "assignment", "cycles", "misses"
    );
    let mut layout_info = None;
    for display in ["shared", "naive", "layout"] {
        let JobOutcome::Replay { result, layout, .. } = next() else {
            unreachable!("study 3 plans plain replays");
        };
        if layout.is_some() {
            layout_info = *layout;
        }
        let _ = writeln!(
            out,
            "{:>22} {:>12} {:>10}",
            display,
            result.total_cycles(),
            result.misses
        );
    }
    let info = layout_info.expect("the heuristic job reports layout statistics");
    let _ = writeln!(
        out,
        "layout cost W = {} ({} merges, optimal = {})",
        info.cost, info.merges, info.optimal
    );

    // --------------------------------------------------- tint remap vs page re-tint cost
    let _ = writeln!(
        out,
        "\n## Ablation 4: remapping a tint vs. re-tinting pages (Figure 3 motivation)\n"
    );
    let mut system = MemorySystem::with_default_cache();
    // 64 pages of 1 KiB mapped to the default tint.
    for p in 0..64u64 {
        system.access(p * 1024, false);
    }
    let before_writes = system.page_table().entry_writes;
    let before_flushes = system.stats().tlb_flushes;
    // (a) remap one tint: a single tint-table write, no page-table or TLB activity.
    system.define_tint(Tint::DEFAULT, ColumnMask::from_columns([0, 1, 2]))?;
    let remap_writes = system.page_table().entry_writes - before_writes;
    let remap_flushes = system.stats().tlb_flushes - before_flushes;
    // (b) re-tint the same 64 pages: one page-table write and one TLB flush per page.
    system.define_tint(Tint(5), ColumnMask::single(3))?;
    let retinted = system.tint_range(0..64 * 1024, Tint(5));
    let retint_writes = system.page_table().entry_writes - before_writes - remap_writes;
    let retint_flushes = system.stats().tlb_flushes - before_flushes - remap_flushes;
    let _ = writeln!(
        out,
        "{:>24} {:>18} {:>12}",
        "operation", "page-table writes", "TLB flushes"
    );
    let _ = writeln!(
        out,
        "{:>24} {:>18} {:>12}",
        "remap tint", remap_writes, remap_flushes
    );
    let _ = writeln!(
        out,
        "{:>24} {:>18} {:>12}",
        format!("re-tint {retinted} pages"),
        retint_writes,
        retint_flushes
    );
    Ok((out, artefact))
}

/// Runs the subcommand.
///
/// # Errors
///
/// Fails on usage errors or invalid configurations.
pub fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut p = ArgParser::new("ablation", args);
    if p.flag(&["--help", "-h"]) {
        print!("{USAGE}");
        return Ok(());
    }
    let report_args = ReportArgs::from_parser(&mut p)?;
    p.finish()?;
    let (text, artefact) = compute(report_args.scale)?;
    print!("{text}");
    report_args.emit_if_requested(&artefact as &dyn Render)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_flags_are_usage_errors() {
        let err = run(vec!["--policy".to_owned(), "lru".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("unknown flag '--policy'"));
        assert_eq!(err.exit_code(), 2);
    }
}
