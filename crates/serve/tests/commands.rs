//! End-to-end command round trips over a loopback server: inline `run` specs, trace
//! upload + replay-by-name, and the `subscribe` observer stream.

use ccache_json::{Json, ToJson};
use ccache_serve::{spawn_test_server, Client};
use std::fmt::Write as _;

#[test]
fn run_executes_inline_specs() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = Json::parse(
        r#"{"name": "inline", "replay": [{"workloads": ["fir"],
            "policies": ["shared", "heuristic"], "label": "policy"}]}"#,
    )
    .unwrap();
    let reply = client
        .request(&Json::obj([
            ("cmd", "run".to_json()),
            ("id", 1u64.to_json()),
            ("spec", spec),
        ]))
        .expect("run reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let result = reply.get("result").unwrap();
    assert_eq!(
        result.get("artefact").and_then(Json::as_str),
        Some("ccache-exp")
    );
    assert_eq!(result.get("version").and_then(Json::as_u64), Some(1));
    assert_eq!(
        result
            .get("results")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );
    server.shutdown();
}

#[test]
fn replaying_a_trace_that_declares_too_many_events_is_an_error_frame() {
    use ccache_trace::binfmt::write_trace;
    use ccache_trace::synth::sequential_scan;

    let dir = std::env::temp_dir().join("ccache-serve-crafted-trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut bytes = Vec::new();
    write_trace(&sequential_scan(0, 512, 32, 4, 1, None), &mut bytes).expect("encode");
    bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let path = dir.join("declares-2^40.cct");
    std::fs::write(&path, &bytes).expect("write crafted trace");

    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    // `shared` streams the file; `heuristic` decodes it into memory first.
    for policy in ["shared", "heuristic"] {
        let reply = client
            .request(&Json::obj([
                ("cmd", "replay".to_json()),
                ("trace", path.to_string_lossy().into_owned().to_json()),
                ("policy", policy.to_json()),
            ]))
            .expect("replay reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let message = reply
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("error message");
        assert!(message.contains("declares"), "{policy}: {message}");
    }
    // the server keeps serving
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

/// Sends `replay` requests naming `trace` under every policy path (`shared` streams,
/// `heuristic` decodes into memory) and returns their error messages, then checks that
/// the server still answers `status`.
fn failed_replay_messages(trace: &str) -> Vec<String> {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut messages = Vec::new();
    for policy in ["shared", "heuristic"] {
        let reply = client
            .request(&Json::obj([
                ("cmd", "replay".to_json()),
                ("trace", trace.to_json()),
                ("policy", policy.to_json()),
            ]))
            .expect("replay reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let message = reply
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("error message");
        messages.push(message.to_owned());
    }
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
    messages
}

#[test]
fn replaying_something_that_is_not_a_regular_file_is_an_error_frame() {
    let dir = std::env::temp_dir().join("ccache-serve-not-a-file");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for trace in ["/dev/zero".to_owned(), dir.to_string_lossy().into_owned()] {
        for message in failed_replay_messages(&trace) {
            assert!(
                message.contains("is not a regular file"),
                "{trace}: {message}"
            );
        }
    }
}

#[test]
fn trace_errors_do_not_echo_the_file_contents() {
    let dir = std::env::temp_dir().join("ccache-serve-echo");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("marker.trace");
    std::fs::write(&path, "secret-marker-7f3a\n").expect("write marker file");
    for message in failed_replay_messages(&path.to_string_lossy()) {
        assert!(message.contains("line 1"), "{message}");
        assert!(!message.contains("secret-marker"), "{message}");
    }
}

#[test]
fn running_a_spec_with_an_oversized_geometry_is_an_error_frame() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    // 2^63 bytes in one column: 2^58 lines, whose tag vector alone would need 2^61 bytes
    let spec = Json::parse(
        r#"{"name": "g", "replay": [{"workloads": ["fir"], "geometries": [
            {"capacity": 9223372036854775808, "columns": 1, "line": 32, "page": 1024}]}]}"#,
    )
    .unwrap();
    let reply = client
        .request(&Json::obj([("cmd", "run".to_json()), ("spec", spec)]))
        .expect("run reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let message = reply
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(message.contains("lines"), "{message}");
    // the server keeps serving
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn running_a_spec_that_plans_too_many_jobs_is_an_error_frame() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = Json::parse(
        r#"{"name": "huge", "replay": [{"workloads": ["fir"], "backends": ["column"],
            "geometries": [{"capacity": 2048, "columns": 1000000000, "line": 32, "page": 128}],
            "policies": ["partition-sweep"]}]}"#,
    )
    .unwrap();
    let reply = client
        .request(&Json::obj([("cmd", "run".to_json()), ("spec", spec)]))
        .expect("run reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let message = reply
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(message.contains("1000000001 jobs"), "{message}");
    // the server keeps serving
    let status = client
        .request(&Json::obj([("cmd", "status".to_json())]))
        .expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn uploaded_traces_replay_by_name_everywhere() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A small strided read/write pattern in the text trace format.
    let mut text = String::from("# synthetic upload\n");
    for i in 0..256u64 {
        writeln!(text, "R {:#x} 4", 0x1000 + (i % 64) * 16).unwrap();
        writeln!(text, "W {:#x} 4", 0x8000 + i * 4).unwrap();
    }
    let upload = client
        .request(&Json::obj([
            ("cmd", "upload".to_json()),
            ("name", "synthetic".to_json()),
            ("text", text.to_json()),
        ]))
        .expect("upload reply");
    assert_eq!(upload.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        upload
            .get("result")
            .and_then(|r| r.get("events"))
            .and_then(Json::as_u64),
        Some(512)
    );

    // The name now works as a workload selector in the grid commands...
    let replay = client
        .request(&Json::obj([
            ("cmd", "replay".to_json()),
            ("trace", "synthetic".to_json()),
        ]))
        .expect("replay reply");
    assert_eq!(replay.get("ok").and_then(Json::as_bool), Some(true));

    // ... in inline run specs ...
    let spec =
        Json::parse(r#"{"name": "uploaded", "replay": [{"workloads": [{"trace": "synthetic"}]}]}"#)
            .unwrap();
    let run = client
        .request(&Json::obj([("cmd", "run".to_json()), ("spec", spec)]))
        .expect("run reply");
    assert_eq!(run.get("ok").and_then(Json::as_bool), Some(true));

    // ... and in subscribe streams.
    let (events, done) = client
        .request_streaming(&Json::obj([
            ("cmd", "subscribe".to_json()),
            ("trace", "synthetic".to_json()),
            ("window", 128u64.to_json()),
        ]))
        .expect("subscribe");
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));
    assert!(!events.is_empty(), "subscribe must stream window events");

    // Bad names are refused before touching the filesystem.
    let bad = client
        .request(&Json::obj([
            ("cmd", "upload".to_json()),
            ("name", "../escape".to_json()),
            ("text", "R 0x0 4\n".to_json()),
        ]))
        .expect("bad-name reply");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    server.shutdown();
}

#[test]
fn subscribe_streams_windows_then_the_final_statistics() {
    let mut server = spawn_test_server(|_| {}).expect("bind test server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (events, done) = client
        .request_streaming(&Json::obj([
            ("cmd", "subscribe".to_json()),
            ("id", "sub-1".to_json()),
            ("workload", "fir".to_json()),
            ("window", 256u64.to_json()),
        ]))
        .expect("subscribe");
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));
    let result = done.get("result").unwrap();
    let windows = result.get("windows").and_then(Json::as_u64).unwrap();
    let window_events: Vec<_> = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("window"))
        .collect();
    assert_eq!(window_events.len() as u64, windows);
    assert!(windows > 0);
    // Every event frame carries the request id and a well-formed sample.
    let mut references = 0;
    for event in &window_events {
        assert_eq!(event.get("id").and_then(Json::as_str), Some("sub-1"));
        let sample = event.get("sample").expect("window sample");
        references += sample.get("references").and_then(Json::as_u64).unwrap();
    }
    // The streamed windows tile the replay exactly.
    assert_eq!(
        Some(references),
        result
            .get("result")
            .and_then(|r| r.get("references"))
            .and_then(Json::as_u64)
    );
    server.shutdown();
}
