//! Invalid experiment specs must fail `ccache run` with a message and a non-zero exit,
//! never a panic (exit 101).

use std::process::Command;

#[test]
fn run_rejects_a_zero_quantum_with_a_message() {
    let dir = std::env::temp_dir().join("ccache-bad-specs");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("q0.json");
    std::fs::write(&path, r#"{"name":"q0","multitask":[{"quanta":[0]}]}"#).expect("write spec");

    let out = Command::new(env!("CARGO_BIN_EXE_ccache"))
        .args(["run", "--quick"])
        .arg(&path)
        .output()
        .expect("run ccache");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}", out.status);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("'quanta'"), "{stderr}");
}
