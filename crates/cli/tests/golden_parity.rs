//! Legacy-command parity: golden tests asserting that the refactored commands —
//! now presets over the `ccache-exp` spec → plan → execute pipeline — produce
//! **byte-identical** artefacts to the pre-refactor binary.
//!
//! The goldens under `tests/golden/` were recorded from the pre-refactor `ccache`
//! binary (commit 60edaf9) with exactly the flags named in each test. If a golden ever
//! needs regenerating on purpose, rebuild at that commit and re-run the commands — the
//! artefacts are deterministic, so any machine records the same bytes.

use std::path::{Path, PathBuf};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path:?}: {e}"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ccache-golden-parity");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn run_cli(args: &[&str]) {
    ccache_cli::run(args.iter().map(|s| s.to_string())).expect("command succeeds");
}

#[test]
fn fig4_quick_json_artefact_is_byte_identical() {
    let out = tmp("fig4-quick.json");
    run_cli(&[
        "fig4",
        "--quick",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        golden("fig4-quick.json"),
        "fig4 --quick JSON artefact drifted from the pre-refactor output"
    );
}

#[test]
fn fig4_legacy_json_flag_matches_the_same_artefact() {
    let out = tmp("fig4-quick-legacy.json");
    run_cli(&["fig4", "--quick", "--json", out.to_str().unwrap()]);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        golden("fig4-quick.json"),
        "fig4 --json must write the same artefact as --format json --out"
    );
}

#[test]
fn fig5_quick_json_artefact_is_byte_identical() {
    let out = tmp("fig5-quick.json");
    run_cli(&[
        "fig5",
        "--quick",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        golden("fig5-quick.json"),
        "fig5 --quick JSON artefact drifted from the pre-refactor output"
    );
}

#[test]
fn ablation_quick_text_is_byte_identical() {
    // The pre-refactor ablation had no --format flag; its artefact is the printed
    // report, golden-recorded from the binary's stdout.
    let (text, _) = ccache_cli::commands::ablation::compute(ccache_exp::Scale::Quick)
        .expect("ablation computes");
    assert_eq!(
        text,
        golden("ablation-quick.txt"),
        "ablation --quick report drifted from the pre-refactor output"
    );
}

#[test]
fn bench_artefact_is_deterministic_modulo_timing() {
    // The bench artefact mixes deterministic simulation results with host-dependent
    // timing. Everything outside the timing-derived keys (`timing`, `ratios`,
    // `environment`) must be byte-identical across runs — the same projection the CI
    // bench job checks with jq.
    let out_a = tmp("bench-quick-a.json");
    let out_b = tmp("bench-quick-b.json");
    for out in [&out_a, &out_b] {
        run_cli(&["bench", "--quick", "--out", out.to_str().unwrap()]);
    }
    let a = strip_timing(parse(&out_a));
    let b = strip_timing(parse(&out_b));
    assert_eq!(
        a.pretty(),
        b.pretty(),
        "bench artefact's deterministic fields drifted between identical runs"
    );
    // Schema spot checks on the surviving projection.
    assert_eq!(
        a.get("artefact").and_then(|v| v.as_str()),
        Some("ccache-bench")
    );
    assert_eq!(a.get("version").and_then(|v| v.as_u64()), Some(3));
    let modes: Vec<&str> = a
        .get("modes")
        .and_then(|m| m.as_arr())
        .expect("modes array")
        .iter()
        .filter_map(|m| m.get("mode").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(
        modes,
        ["per_reference", "batched", "streamed"],
        "bench artefact must report every replay mode"
    );
    let ccache_json::Json::Obj(pairs) = &a else {
        panic!("bench artefact is an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "artefact",
            "version",
            "workload",
            "quick",
            "backend",
            "references",
            "result",
            "modes",
            "batch_sweep"
        ],
        "version-3 artefact sections (host-dependent keys stripped)"
    );
}

fn parse(path: &Path) -> ccache_json::Json {
    let text = std::fs::read_to_string(path).expect("bench artefact readable");
    ccache_json::Json::parse(&text).expect("bench artefact is valid JSON")
}

/// Drops every host-dependent key: `timing` objects wherever they appear, plus the
/// top-level `ratios` and `environment`.
fn strip_timing(doc: ccache_json::Json) -> ccache_json::Json {
    match doc {
        ccache_json::Json::Obj(pairs) => ccache_json::Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "timing" && k != "ratios" && k != "environment")
                .map(|(k, v)| (k, strip_timing(v)))
                .collect(),
        ),
        ccache_json::Json::Arr(items) => {
            ccache_json::Json::Arr(items.into_iter().map(strip_timing).collect())
        }
        other => other,
    }
}

#[test]
fn sweep_json_artefact_is_byte_identical() {
    // The golden was recorded against a deterministic synthetic trace written to this
    // exact path (the path is embedded in the artefact); regenerate it the same way.
    let trace_path = "/tmp/ccache-golden-sweep.cct";
    run_cli(&[
        "trace", "record", "--gen", "random", "--count", "20000", "--len", "65536", "--seed", "7",
        "--out", trace_path, "--format", "binary",
    ]);
    let out = tmp("sweep-quick.json");
    run_cli(&[
        "sweep",
        "--trace",
        trace_path,
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        golden("sweep-quick.json"),
        "sweep JSON artefact drifted from the pre-refactor output"
    );
}
