//! The repository benchmark: seeded workloads driven through the public library API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4-partition --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics of its workload; with
//! `--trace 1` it also drives every op stage by stage under spans and reports the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `perfbench/README.md`.

mod fig4;
mod fig5;
mod harness;
mod layers;
mod serve;
mod stats;
mod tracer;
mod tune;

use ccache_json::{Json, ToJson};
use harness::{drive, Outcome};
use layers::PER_LAYER;
use stats::{percentile, quantile, ratio};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in report order.
const WORKLOADS: [&str; 4] = [
    "fig4-partition",
    "fig5-multitask",
    "tune-evolve",
    "serve-mix",
];

/// Where runs leave their files (trace inputs, span dumps), relative to the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics every workload reports, as `(name, value, unit)`; percentiles
/// only where ten samples lie beyond them.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let p = &o.plain;
    let mut m = vec![("setup_s", o.setup_median(), "s")];
    for (name, q) in [("op_p50_ms", 0.5), ("op_p90_ms", 0.9), ("op_p99_ms", 0.99)] {
        if let Some(v) = percentile(&p.samples_ms, q) {
            m.push((name, v, "ms"));
        }
    }
    m.push(("ops_per_s", p.ops_per_s, "1/s"));
    m.push(("sim_refs_per_s", p.sim_refs_per_s, "1/s"));
    m.push(("peak_rss_mb", o.peak_rss_mb, "MiB"));
    m.extend(o.extra.iter().copied());
    m.push((
        "failed_ops_ratio",
        ratio(o.failed() as f64, o.attempted() as f64),
        "ratio",
    ));
    m
}

/// The end-to-end metrics of the result line (`BENCHMARK.json`'s `end_to_end`). The
/// others are printed but not gated: on a noisy host the latency percentiles spread
/// across runs by about the largest permitted bound, `sim_refs_per_s` follows
/// `ops_per_s`, and the rest are not defined on every workload.
const GATED: [&str; 3] = ["setup_s", "ops_per_s", "peak_rss_mb"];

fn report(args: &Args, o: &Outcome) -> Json {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("ops: {}", o.description);
    println!(
        "samples: {} timed ops (attempted {}, failed {})",
        o.plain.samples_ms.len(),
        o.attempted(),
        o.failed()
    );
    let rates = &o.plain.op_rates;
    println!(
        "ops/s over {} passes: p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}",
        rates.len(),
        quantile(rates, 0.25),
        quantile(rates, 0.5),
        quantile(rates, 0.75),
        quantile(rates, 1.0)
    );
    let rounds: Vec<String> = o.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-up rounds (s): {}", rounds.join(" "));
    let e2e = end_to_end(o);
    for (name, value, unit) in &e2e {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    for problem in o.problems() {
        println!("problem: {problem}");
    }
    let metric =
        |v: f64, unit: &str| Json::obj([("value", Json::Float(v)), ("unit", unit.to_json())]);
    let metrics: Vec<(String, Json)> = if args.trace {
        println!("per-layer:");
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = o.layers.get(*name).copied().unwrap_or(0.0);
                println!("  {name:<34} {v:>16.6} {unit}");
                ((*name).to_owned(), metric(v, unit))
            })
            .collect()
    } else {
        GATED
            .iter()
            .map(|g| {
                let (name, v, unit) = e2e
                    .iter()
                    .find(|(n, _, _)| n == g)
                    .copied()
                    .expect("every gated metric is always measured");
                (name.to_owned(), metric(v, unit))
            })
            .collect()
    };
    let correct = o.failed() == 0 && o.problems().is_empty() && !o.plain.samples_ms.is_empty();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", o.attempted().to_json()),
        ("failed", o.failed().to_json()),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "fig4-partition" => drive::<fig4::Fig4>("fig4-partition", seed, secs, trace),
        "fig5-multitask" => drive::<fig5::Fig5>("fig5-multitask", seed, secs, trace),
        "tune-evolve" => drive::<tune::Tune>("tune-evolve", seed, secs, trace),
        _ => serve::run(seed, secs, trace),
    };
    match outcome {
        Ok(o) => {
            let line = report(&args, &o);
            println!("{}", line.compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
