//! Invalid experiment specs must fail `ccache run` with a message and a non-zero exit,
//! never a panic (exit 101).

use std::process::Command;

/// Runs `ccache run --quick` on `spec` and returns its stderr, asserting exit code 1.
fn run_fails_with_exit_1(file: &str, spec: &str) -> String {
    let dir = std::env::temp_dir().join("ccache-bad-specs");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(file);
    std::fs::write(&path, spec).expect("write spec");

    let out = Command::new(env!("CARGO_BIN_EXE_ccache"))
        .args(["run", "--quick"])
        .arg(&path)
        .output()
        .expect("run ccache");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "exit {:?}", out.status);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    stderr
}

#[test]
fn run_rejects_a_zero_quantum_with_a_message() {
    let stderr = run_fails_with_exit_1("q0.json", r#"{"name":"q0","multitask":[{"quanta":[0]}]}"#);
    assert!(stderr.contains("'quanta'"), "{stderr}");
}

#[test]
fn run_rejects_an_oversized_geometry_with_a_message() {
    // 2^63 bytes in one column: its tag vector alone would need 2^61 bytes
    let stderr = run_fails_with_exit_1(
        "huge-geometry.json",
        r#"{"name":"g","replay":[{"workloads":["fir"],"geometries":[
            {"capacity":9223372036854775808,"columns":1,"line":32,"page":1024}]}]}"#,
    );
    assert!(stderr.contains("lines"), "{stderr}");
}

#[test]
fn run_rejects_an_oversized_partition_sweep_with_a_message() {
    // a sweep over a billion columns would plan a billion and one jobs before any
    // geometry is validated
    let stderr = run_fails_with_exit_1(
        "huge-sweep.json",
        r#"{"name":"huge","replay":[{"workloads":["fir"],"backends":["column"],
            "geometries":[{"capacity":2048,"columns":1000000000,"line":32,"page":128}],
            "policies":["partition-sweep"]}]}"#,
    );
    assert!(stderr.contains("1000000001 jobs"), "{stderr}");
}

#[test]
fn run_rejects_a_trace_that_is_not_a_regular_file() {
    // an endless device would otherwise be read as one unbounded text line
    for policy in ["shared", "heuristic"] {
        let stderr = run_fails_with_exit_1(
            &format!("dev-zero-{policy}.json"),
            &format!(
                r#"{{"name":"z","replay":[{{"workloads":[{{"trace":"/dev/zero"}}],
                    "policies":["{policy}"]}}]}}"#
            ),
        );
        assert!(
            stderr.contains("/dev/zero is not a regular file"),
            "{stderr}"
        );
    }
}
