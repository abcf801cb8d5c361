//! The unified `ccache` command-line driver.
//!
//! The paper's pitch is that *software* decides memory policy — which makes the
//! experiment driver part of the artifact. This crate turns the former trio of one-off
//! figure binaries into one scriptable tool:
//!
//! ```text
//! ccache fig4 [--routine R] [--quick] [--json F | --format FMT --out F]
//! ccache fig5 [--quick] [--json F | --format FMT --out F]
//! ccache ablation [--quick] [--format FMT --out F]
//! ccache sweep --trace FILE [--backend KIND] [--capacity N] ...
//! ccache run SPEC.json [--quick] [--format FMT --out F]
//! ccache trace record --gen KIND --out FILE
//! ccache trace info FILE
//! ccache trace convert IN OUT
//! ccache tune [--workload NAME | --trace FILE] [--strategy S] [--budget N] [--seed N]
//! ccache serve [--port N] [--workers N] [--queue N]
//! ccache serve --connect ADDR --request JSON
//! ```
//!
//! `ccache` is the only front door to the figures: `cargo run -p ccache-cli -- fig4
//! --quick` reproduces Figure 4, and likewise `fig5` and `ablation`. The experiment
//! commands — `fig4`, `fig5`, `ablation`,
//! `sweep` — are presets over the declarative pipeline in `ccache-exp`: they compile to
//! an `ExperimentSpec`, run through the shared planner/executor and reassemble their
//! legacy reports byte-identically (golden-tested in `tests/golden_parity.rs`);
//! `ccache run` executes any spec file through the same pipeline. Shared behaviour
//! lives here once: `--quick`/`--format`/`--out` handling ([`output::ReportArgs`]) and
//! flag parsing with uniform unknown-flag errors ([`args`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod args;
pub mod backend;
pub mod commands;
pub mod error;
pub mod output;
pub mod scale;

pub use error::CliError;
pub use output::{OutputFormat, ReportArgs};

/// Top-level help text.
pub const USAGE: &str = "\
usage: ccache <command> [options]

commands:
  fig4      Figure 4: cycle count vs. scratchpad/cache partition (MPEG routines)
  fig5      Figure 5: CPI vs. context-switch quantum (gzip multitasking)
  ablation  sensitivity studies beyond the paper's figures
  sweep     replay a trace file across memory backends
  run       execute a declarative experiment spec (examples/specs/*.json)
  trace     record, inspect and convert trace files
  tune      autotune cache geometry and column assignments for a workload
  bench     measure replay throughput; gate against a committed baseline
  serve     run the concurrent cache-advisory service (NDJSON over TCP)
  help      show this help

Run 'ccache <command> --help' for command-specific options.
";

/// Dispatches a full argument vector (not including the program name).
///
/// # Errors
///
/// Returns usage errors for unknown commands/flags and propagates experiment and I/O
/// errors from the subcommands.
pub fn run<I: IntoIterator<Item = String>>(args: I) -> Result<(), CliError> {
    let mut args: Vec<String> = args.into_iter().collect();
    if args.is_empty() {
        print!("{USAGE}");
        return Ok(());
    }
    let command = args.remove(0);
    match command.as_str() {
        "fig4" => commands::fig4::run(args),
        "fig5" => commands::fig5::run(args),
        "ablation" => commands::ablation::run(args),
        "sweep" => commands::sweep::run(args),
        "run" => commands::run::run(args),
        "trace" => commands::trace::run(args),
        "tune" => commands::tune::run(args),
        "bench" => commands::bench::run(args),
        "serve" => commands::serve::run(args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command 'ccache {other}' (try 'ccache --help')"
        ))),
    }
}

/// Entry point of the `ccache` binary: runs the process arguments, prints errors to
/// stderr and returns the exit code.
pub fn main() -> std::process::ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_commands_are_usage_errors() {
        let err = run(vec!["fig6".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("unknown command 'ccache fig6'"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn help_succeeds() {
        run(vec!["help".to_owned()]).unwrap();
        run(Vec::new()).unwrap();
    }
}
