//! Malformed input to the bench binaries ends in an `error:` line and a
//! nonzero exit, never a panic, a hang or an abort: flags and unwritable
//! output paths exit 2, replayed dumps exit 1. A rejected
//! command line runs nothing and writes nothing.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Every bench binary.
const BINS: [&str; 16] = [
    env!("CARGO_BIN_EXE_ablation"),
    env!("CARGO_BIN_EXE_algo_compare"),
    env!("CARGO_BIN_EXE_contend"),
    env!("CARGO_BIN_EXE_engine_prof"),
    env!("CARGO_BIN_EXE_engine_sweep"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_fig6"),
    env!("CARGO_BIN_EXE_fig7"),
    env!("CARGO_BIN_EXE_fig8"),
    env!("CARGO_BIN_EXE_fig_scale"),
    env!("CARGO_BIN_EXE_flight"),
    env!("CARGO_BIN_EXE_interference"),
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_topology_sensitivity"),
    env!("CARGO_BIN_EXE_variance"),
    env!("CARGO_BIN_EXE_why-slow"),
];

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .expect("utf-8 path")
        .to_string()
}

/// Run `bin` with `args` in a fresh empty directory; return its exit code
/// and stderr. A run still going after 5 s is killed and fails the test
/// (an accepted flag would start a full job), and the directory must
/// still be empty afterwards.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "nicbar_cli_errors_{}_{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create run directory");
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bench binary");
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut timed_out = false;
    while child.try_wait().expect("poll bench binary").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill bench binary");
            timed_out = true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect bench binary");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read run directory")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove run directory");
    assert!(!timed_out, "{bin} {args:?} still running after 5 s");
    assert!(written.is_empty(), "{bin} {args:?} wrote {written:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
    (out.status.code(), stderr)
}

/// `bin args` must exit 2 with an `error:` line that contains `says`.
fn rejects(bin: &str, args: &[&str], says: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(says), "{bin} {args:?}: {stderr}");
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
fn replay_rejects_node_ids_wider_than_32_bits() {
    let path = fixture("replay_wide_node.jsonl");
    let (code, stderr) = run(env!("CARGO_BIN_EXE_why-slow"), &["--replay", &path]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: {path}:1: unparseable record")),
        "{stderr}"
    );
}

#[test]
fn figure_flags_reject_malformed_values() {
    for (args, says) in [
        (
            &["--quick", "--shards", "abc"][..],
            "positive integer, got abc",
        ),
        (&["--quick", "--shards", "0"], "positive integer, got 0"),
        (&["--quick", "--shards"], "--shards needs a value"),
    ] {
        rejects(env!("CARGO_BIN_EXE_fig7"), args, says);
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
        rejects(env!("CARGO_BIN_EXE_flight"), args, says);
    }
}

#[test]
fn flight_rejects_malformed_shards() {
    for (args, says) in [
        (
            &["--shards", "0"][..],
            "--shards must be a positive integer, got 0",
        ),
        (
            &["--shards", "x"],
            "--shards must be a positive integer, got x",
        ),
    ] {
        rejects(env!("CARGO_BIN_EXE_flight"), args, says);
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
            &["--shards", "0"],
            "--shards must be a positive integer, got 0",
        ),
        (&["--jsonl"], "--jsonl needs a value"),
        (&["--replay"], "--replay needs a value"),
        (
            &[
                "--substrate",
                "elan",
                "--drop",
                "0.5",
                "--jsonl",
                "out.jsonl",
            ],
            "--drop 0.5 is gm only",
        ),
        (
            &[
                "--drop",
                "0.5",
                "--jsonl",
                "out.jsonl",
                "--substrate",
                "elan",
            ],
            "--drop 0.5 is gm only",
        ),
    ] {
        rejects(env!("CARGO_BIN_EXE_why-slow"), args, says);
    }
}

/// The shard count is the one parallel-execution setting: the engine and
/// partition selectors it replaced are unknown options.
#[test]
fn engine_and_partition_selectors_are_unknown_options() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig7"), &["--engine", "parallel"][..]),
        (env!("CARGO_BIN_EXE_flight"), &["--engine", "parallel"]),
        (env!("CARGO_BIN_EXE_why-slow"), &["--engine", "parallel"]),
        (env!("CARGO_BIN_EXE_fig7"), &["--partition", "contiguous"]),
        (
            env!("CARGO_BIN_EXE_engine_prof"),
            &["--partition", "contiguous"],
        ),
    ] {
        rejects(bin, args, &format!("unknown option {}", args[0]));
    }
}

/// One shard runs the sequential engine, which has no shard profile:
/// `engine_prof` refuses one shard, and one node (shards clamp to nodes),
/// before anything runs.
#[test]
fn engine_prof_refuses_one_shard_profiles() {
    for flag in ["--shards", "--nodes"] {
        rejects(
            env!("CARGO_BIN_EXE_engine_prof"),
            &["--quick", flag, "1"],
            &format!("{flag} must be an integer >= 2"),
        );
    }
}

#[test]
fn unwritable_output_paths_fail_before_the_run() {
    let path = "/nonexistent/dir/x.json";
    let says = format!("could not write {path}: ");
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_flight"), &["--chrome", path][..]),
        (
            env!("CARGO_BIN_EXE_engine_prof"),
            &["--quick", "--chrome", path],
        ),
        (env!("CARGO_BIN_EXE_why-slow"), &["--jsonl", path]),
    ] {
        rejects(bin, args, &says);
    }
}

#[test]
fn every_binary_rejects_unknown_arguments() {
    for bin in BINS {
        rejects(bin, &["--bogus"], "unknown option --bogus");
    }
}

#[test]
fn binaries_reject_flags_they_do_not_read() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_fig5"), "--flight"),
        (env!("CARGO_BIN_EXE_fig6"), "--flight"),
        (env!("CARGO_BIN_EXE_fig7"), "--prof"),
        (env!("CARGO_BIN_EXE_fig8"), "--prof"),
        (env!("CARGO_BIN_EXE_fig_scale"), "--prof"),
        (env!("CARGO_BIN_EXE_contend"), "--flight"),
        (env!("CARGO_BIN_EXE_engine_sweep"), "--prof"),
        (env!("CARGO_BIN_EXE_engine_sweep"), "--quik"),
    ] {
        rejects(bin, &[flag], &format!("unknown option {flag}"));
    }
}

#[test]
fn engine_sweep_rejects_bad_baselines_and_mixed_modes() {
    let no_rows = fixture("profile_huge_components.json");
    for (args, says) in [
        (
            &["--quick", "--baseline", "/nonexistent.json"][..],
            "--baseline /nonexistent.json: ",
        ),
        (
            &["--quick", "--baseline", &no_rows],
            "no indexed4 micro rows",
        ),
        (&["--quick", "--baseline"], "--baseline needs a value"),
        (&["--baseline", &no_rows], "--baseline belongs to --quick"),
        (&["--quick", "--prof"], "unknown option --prof"),
    ] {
        rejects(env!("CARGO_BIN_EXE_engine_sweep"), args, says);
    }
}
