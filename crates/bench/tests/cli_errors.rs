//! Malformed input to the bench binaries ends in an `error:` line and a
//! nonzero exit, never a panic, a hang or an abort: flags and profiles
//! exit 2, replayed dumps exit 1.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .expect("utf-8 path")
        .to_string()
}

/// Run `bin` with `args`; return its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let start = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn bench binary");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "{bin} {args:?} took {:?}",
        start.elapsed()
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
    (out.status.code(), stderr)
}

#[test]
fn replay_rejects_causal_cycles() {
    for name in ["replay_self_parent.jsonl", "replay_two_cycle.jsonl"] {
        let path = fixture(name);
        let (code, stderr) = run(env!("CARGO_BIN_EXE_why-slow"), &["--replay", &path]);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {path}:1: ")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn figure_flags_reject_malformed_values() {
    let huge = format!("profile={}", fixture("profile_huge_components.json"));
    for (args, says) in [
        (
            &["--quick", "--shards", "abc"][..],
            "positive integer, got abc",
        ),
        (&["--quick", "--shards", "0"], "positive integer, got 0"),
        (&["--quick", "--shards"], "--shards needs a value"),
        (&["--quick", "--engine", "warp"], "--engine must be"),
        (&["--quick", "--partition", "zigzag"], "contiguous|profile="),
        (
            &["--quick", "--partition", "profile=/nonexistent.json"],
            "not a readable",
        ),
        (
            &["--quick", "--partition", &huge],
            "at most 16777215 components",
        ),
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_fig7"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
}

#[test]
fn flight_rejects_malformed_flags() {
    for (args, says) in [
        (&["--nodes", "abc"][..], "integer >= 2, got abc"),
        (&["--nodes", "0"], "integer >= 2, got 0"),
        (&["--nodes", "1"], "integer >= 2, got 1"),
        (&["--chrome"], "--chrome needs an output path"),
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_flight"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
}

#[test]
fn flight_rejects_malformed_engine_and_shards() {
    for (args, says) in [
        (
            &["--engine", "warp"][..],
            "--engine must be auto|sequential|parallel",
        ),
        (&["--engine"], "--engine needs a value"),
        (
            &["--shards", "0"],
            "--shards must be a positive integer, got 0",
        ),
        (
            &["--shards", "x"],
            "--shards must be a positive integer, got x",
        ),
        (&["--bogus"], "unknown option --bogus"),
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_flight"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
}

#[test]
fn why_slow_rejects_malformed_flags() {
    for (args, says) in [
        (
            &["--nodes", "0"][..],
            "--nodes must be an integer >= 2, got 0",
        ),
        (&["--nodes", "1"], "--nodes must be an integer >= 2, got 1"),
        (
            &["--nodes", "abc"],
            "--nodes must be an integer >= 2, got abc",
        ),
        (&["--nodes"], "--nodes needs a value"),
        (
            &["--drop", "1.5"],
            "--drop must be a probability in [0, 1], got 1.5",
        ),
        (
            &["--drop", "-0.5"],
            "--drop must be a probability in [0, 1], got -0.5",
        ),
        (
            &["--drop", "nan"],
            "--drop must be a probability in [0, 1], got nan",
        ),
        (
            &["--substrate", "ib"],
            "--substrate must be gm|elan, got ib",
        ),
        (
            &["--seed", "-1"],
            "--seed must be an unsigned integer, got -1",
        ),
        (
            &["--iters", "many"],
            "--iters must be an unsigned integer, got many",
        ),
        (
            &["--engine", "warp"],
            "--engine must be auto|sequential|parallel",
        ),
        (
            &["--shards", "0"],
            "--shards must be a positive integer, got 0",
        ),
        (&["--jsonl"], "--jsonl needs a value"),
        (&["--replay"], "--replay needs a value"),
        (&["--bogus"], "unknown option --bogus"),
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_why-slow"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
}
