//! Shared output handling: `--format json|csv|markdown`, `--out FILE`, `--quick` and
//! the legacy `--json FILE`, parsed once through [`ReportArgs`].
//!
//! Every subcommand that produces a machine-readable artefact renders it through
//! [`Render`]: JSON comes from the deterministic `ccache-json` document model (so two
//! equal reports serialize byte-identically), CSV is a flat long-format table, and
//! markdown is a pipe table for pasting into notes. [`emit`] routes the rendered text to
//! stdout or to the `--out` file. The flag boilerplate that used to be repeated across
//! every command — scale, format, output path, uniform exit-2 usage errors — lives in
//! [`ReportArgs`] exactly once.

use crate::args::ArgParser;
use crate::error::CliError;
use crate::scale::scale_from_parser;
use ccache_exp::scale::Scale;
use ccache_json::ToJson;
use std::fmt::Write as _;

/// The machine-readable output formats of `ccache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Pretty JSON from the deterministic document model (the default).
    #[default]
    Json,
    /// A flat comma-separated table (long format: one row per data point).
    Csv,
    /// A GitHub-flavoured markdown pipe table.
    Markdown,
}

impl OutputFormat {
    /// Parses `--format` values.
    ///
    /// # Errors
    ///
    /// Fails on anything other than `json`, `csv` or `markdown`.
    pub fn parse(s: &str, parser: &ArgParser) -> Result<Self, CliError> {
        match s {
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            "markdown" | "md" => Ok(OutputFormat::Markdown),
            other => Err(parser.usage(format!(
                "invalid value '{other}' for '--format' (expected json, csv or markdown)"
            ))),
        }
    }

    /// Consumes `--format` from a parser, defaulting to JSON.
    ///
    /// # Errors
    ///
    /// Fails if the value is missing or not a known format.
    pub fn from_parser(parser: &mut ArgParser) -> Result<Self, CliError> {
        match parser.value("--format")? {
            Some(raw) => OutputFormat::parse(&raw, parser),
            None => Ok(OutputFormat::Json),
        }
    }
}

/// The shared report arguments of every reporting subcommand: `--quick`/`-q` (the
/// experiment [`Scale`]), `--format FMT`, `--out FILE` and — for the figure commands
/// that keep their original flag — the legacy `--json FILE`.
///
/// All values are consumed from the [`ArgParser`] with the uniform exit-2 usage-error
/// shape, so no command can drift in how it reports a bad `--format` value.
#[derive(Debug, Clone)]
pub struct ReportArgs {
    /// The experiment scale (`--quick` selects [`Scale::Quick`]).
    pub scale: Scale,
    /// The requested output format (default JSON).
    pub format: OutputFormat,
    /// The `--out` path, when given.
    pub out: Option<String>,
    /// Whether `--format` was given explicitly (drives conditional emission).
    format_given: bool,
    /// The legacy `--json FILE` path, when the command accepts it and it was given.
    json_path: Option<String>,
}

impl ReportArgs {
    /// Parses `--quick`, `--format` and `--out` (no legacy `--json` flag).
    ///
    /// # Errors
    ///
    /// Returns exit-2 usage errors for unknown formats or missing values.
    pub fn from_parser(parser: &mut ArgParser) -> Result<Self, CliError> {
        Self::parse(parser, false)
    }

    /// Parses `--quick`, `--json FILE`, `--format` and `--out` (the figure commands).
    ///
    /// # Errors
    ///
    /// Returns exit-2 usage errors for unknown formats or missing values.
    pub fn from_parser_with_legacy_json(parser: &mut ArgParser) -> Result<Self, CliError> {
        Self::parse(parser, true)
    }

    fn parse(parser: &mut ArgParser, legacy_json: bool) -> Result<Self, CliError> {
        let scale = scale_from_parser(parser);
        let json_path = if legacy_json {
            parser.value("--json")?
        } else {
            None
        };
        let format_raw = parser.value("--format")?;
        let out = parser.value("--out")?;
        let format = match &format_raw {
            Some(raw) => OutputFormat::parse(raw, parser)?,
            None => OutputFormat::Json,
        };
        Ok(ReportArgs {
            scale,
            format,
            out,
            format_given: format_raw.is_some(),
            json_path,
        })
    }

    /// Whether the quick scale was selected.
    pub fn quick(&self) -> bool {
        self.scale.is_quick()
    }

    /// Emits the report unconditionally (stdout, or `--out FILE`), in the requested
    /// format — the behaviour of `sweep`, `tune` and `run`.
    ///
    /// # Errors
    ///
    /// Propagates file-write errors.
    pub fn emit(&self, report: &dyn Render) -> Result<(), CliError> {
        emit(report, self.format, self.out.as_deref())
    }

    /// The figure-command behaviour: writes the legacy `--json FILE` artefact when that
    /// flag was given, and renders via `--format`/`--out` only when one of those flags
    /// appeared — so a bare `ccache fig4` still prints tables only.
    ///
    /// # Errors
    ///
    /// Propagates file-write errors.
    pub fn emit_if_requested(&self, report: &dyn Render) -> Result<(), CliError> {
        if let Some(path) = &self.json_path {
            std::fs::write(path, report.to_json_text())?;
            println!("wrote {path}");
        }
        if self.format_given || self.out.is_some() {
            self.emit(report)?;
        }
        Ok(())
    }
}

/// A report that can be rendered in every output format.
pub trait Render {
    /// The JSON rendering (pretty, deterministic).
    fn to_json_text(&self) -> String;
    /// The CSV rendering (header row + one row per data point).
    fn to_csv(&self) -> String;
    /// The markdown rendering (pipe tables).
    fn to_markdown(&self) -> String;

    /// Renders in the requested format.
    fn render(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Json => self.to_json_text(),
            OutputFormat::Csv => self.to_csv(),
            OutputFormat::Markdown => self.to_markdown(),
        }
    }
}

/// Blanket rendering for anything with a JSON document model: CSV and markdown are
/// derived from the JSON structure only when a report does not provide richer tables.
impl Render for ccache_json::Json {
    fn to_json_text(&self) -> String {
        self.pretty()
    }

    fn to_csv(&self) -> String {
        self.compact()
    }

    fn to_markdown(&self) -> String {
        format!("```json\n{}\n```\n", self.pretty())
    }
}

/// Writes rendered output to `--out FILE` (announcing the path) or to stdout.
///
/// # Errors
///
/// Propagates file-write errors.
pub fn emit(report: &dyn Render, format: OutputFormat, out: Option<&str>) -> Result<(), CliError> {
    let text = report.render(format);
    match out {
        Some(path) => {
            std::fs::write(path, &text)?;
            println!("wrote {path}");
        }
        None => {
            // Write directly so a closed pipe (e.g. `ccache sweep ... | head`) ends the
            // output quietly instead of panicking in `print!`.
            use std::io::Write as _;
            let mut stdout = std::io::stdout().lock();
            let result = stdout.write_all(text.as_bytes()).and_then(|()| {
                if text.ends_with('\n') {
                    Ok(())
                } else {
                    stdout.write_all(b"\n")
                }
            });
            match result {
                Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => return Err(e.into()),
                _ => {}
            }
        }
    }
    Ok(())
}

/// Escapes one CSV field (quotes fields containing commas, quotes or newlines).
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Builds a markdown pipe table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| " --- ").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// The report of a generic `ccache sweep` run: one replay per backend kind.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSweepReport {
    /// The trace the sweep replayed.
    pub trace: String,
    /// Events replayed per backend.
    pub events: u64,
    /// One result per backend, in run order.
    pub runs: Vec<ccache_core::RunResult>,
}

impl ToJson for BackendSweepReport {
    fn to_json(&self) -> ccache_json::Json {
        ccache_json::Json::obj([
            ("trace", self.trace.to_json()),
            ("events", self.events.to_json()),
            (
                "runs",
                ccache_json::Json::arr(self.runs.iter().map(|r| {
                    ccache_json::Json::obj([
                        ("backend", r.name.to_json()),
                        ("total_cycles", r.total_cycles().to_json()),
                        ("cpi", r.cpi().to_json()),
                        ("references", r.references.to_json()),
                        ("hits", r.hits.to_json()),
                        ("misses", r.misses.to_json()),
                        ("miss_rate", r.miss_rate().to_json()),
                        ("writebacks", r.writebacks.to_json()),
                        ("uncached", r.uncached.to_json()),
                        ("control_cycles", r.control_cycles.to_json()),
                    ])
                })),
            ),
        ])
    }
}

impl BackendSweepReport {
    fn rows(&self) -> Vec<Vec<String>> {
        self.runs
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.total_cycles().to_string(),
                    format!("{:.3}", r.cpi()),
                    r.references.to_string(),
                    r.misses.to_string(),
                    format!("{:.1}%", r.miss_rate() * 100.0),
                ]
            })
            .collect()
    }
}

impl Render for BackendSweepReport {
    fn to_json_text(&self) -> String {
        self.to_json().pretty()
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("backend,total_cycles,cpi,references,misses,miss_rate\n");
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{},{},{:.6},{},{},{:.6}",
                csv_field(&r.name),
                r.total_cycles(),
                r.cpi(),
                r.references,
                r.misses,
                r.miss_rate()
            );
        }
        out
    }

    fn to_markdown(&self) -> String {
        let mut out = format!(
            "### Backend sweep — `{}` ({} events)\n\n",
            self.trace, self.events
        );
        out.push_str(&markdown_table(
            &[
                "backend",
                "cycles",
                "CPI",
                "references",
                "misses",
                "miss rate",
            ],
            &self.rows(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parsing_accepts_known_names_only() {
        let p = ArgParser::new("sweep", Vec::new());
        assert_eq!(OutputFormat::parse("json", &p).unwrap(), OutputFormat::Json);
        assert_eq!(OutputFormat::parse("csv", &p).unwrap(), OutputFormat::Csv);
        assert_eq!(
            OutputFormat::parse("md", &p).unwrap(),
            OutputFormat::Markdown
        );
        let err = OutputFormat::parse("yaml", &p).unwrap_err();
        assert!(err.to_string().contains("invalid value 'yaml'"));
    }

    #[test]
    fn csv_fields_are_escaped() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn report_args_parse_the_shared_flags() {
        let mut p = ArgParser::new(
            "fig4",
            [
                "--quick", "--json", "a.json", "--format", "csv", "--out", "b.csv",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        let args = ReportArgs::from_parser_with_legacy_json(&mut p).unwrap();
        p.finish().unwrap();
        assert!(args.quick());
        assert_eq!(args.format, OutputFormat::Csv);
        assert_eq!(args.out.as_deref(), Some("b.csv"));
        assert_eq!(args.json_path.as_deref(), Some("a.json"));

        // Without the legacy flag, --json stays unconsumed and is an unknown flag.
        let mut p = ArgParser::new(
            "sweep",
            ["--json", "a.json"].iter().map(|s| s.to_string()).collect(),
        );
        let args = ReportArgs::from_parser(&mut p).unwrap();
        assert!(args.json_path.is_none());
        assert!(p.finish().is_err());
    }

    #[test]
    fn report_args_reject_bad_formats_with_exit_2() {
        let mut p = ArgParser::new(
            "run",
            ["--format", "yaml"].iter().map(|s| s.to_string()).collect(),
        );
        let err = ReportArgs::from_parser(&mut p).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("invalid value 'yaml'"));
        assert!(err.to_string().contains("try 'ccache run --help'"));
    }

    #[test]
    fn markdown_tables_have_separator_rows() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "| --- | --- |");
        assert_eq!(lines[2], "| 1 | 2 |");
    }
}
