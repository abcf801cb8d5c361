//! Untrusted trace headers: a `.cct` file whose header declares far more events than
//! its body holds must fail `ccache tune --trace` with a message and a non-zero exit,
//! never abort the process on a giant up-front allocation. Paths that are not regular
//! files (devices such as `/dev/zero`) are refused before anything is read.

use ccache_trace::binfmt::write_trace;
use ccache_trace::synth::sequential_scan;
use std::process::Command;

#[test]
fn tune_rejects_a_trace_declaring_too_many_events() {
    let dir = std::env::temp_dir().join("ccache-crafted-trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut bytes = Vec::new();
    write_trace(&sequential_scan(0, 512, 32, 4, 1, None), &mut bytes).expect("encode");
    for declared in [1u64 << 40, 1u64 << 62] {
        bytes[8..16].copy_from_slice(&declared.to_le_bytes());
        let path = dir.join(format!("declares-{declared}.cct"));
        std::fs::write(&path, &bytes).expect("write crafted trace");

        let out = Command::new(env!("CARGO_BIN_EXE_ccache"))
            .args(["tune", "--quick", "--trace"])
            .arg(&path)
            .output()
            .expect("run ccache");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{declared}: exit {:?}", out.status);
        assert_eq!(out.status.code(), Some(1), "{declared}: {stderr}");
        assert!(stderr.contains("error:"), "{declared}: {stderr}");
        assert!(stderr.contains("declares"), "{declared}: {stderr}");
    }
}

#[test]
fn trace_commands_refuse_what_is_not_a_regular_file() {
    let out_path = std::env::temp_dir().join("ccache-crafted-trace-out.trace");
    let _ = std::fs::remove_file(&out_path);
    let out_arg = out_path.to_string_lossy().into_owned();
    let commands: [&[&str]; 3] = [
        &["tune", "--quick", "--trace", "/dev/zero"],
        &["trace", "info", "/dev/zero"],
        &["trace", "convert", "/dev/zero", &out_arg],
    ];
    for args in commands {
        let out = Command::new(env!("CARGO_BIN_EXE_ccache"))
            .args(args)
            .output()
            .expect("run ccache");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("/dev/zero is not a regular file"),
            "{args:?}: {stderr}"
        );
    }
    assert!(
        !out_path.exists(),
        "convert must fail before creating its output"
    );
}
