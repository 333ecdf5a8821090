//! `engine_prof` — the parallel engine profiling itself.
//!
//! Arms the shard self-profiler ([`nicbar_sim::ShardProf`]) on a parallel
//! figure-scale barrier run and renders the three views of the capture:
//! the human `engine-prof` report (imbalance factor, cross-shard traffic,
//! window-efficiency percentiles, idle-time attribution), the Chrome-trace
//! shard-lane timeline (`--chrome PATH`), and the manifest-stamped
//! `results/engine_prof.json`.
//!
//! Flags:
//!
//! * `--quick` — CI smoke: 2 shards × 64 nodes instead of the full
//!   8 shards × 4096; never writes `results/`.
//! * `--check` — gate mode: assert the profile accounts for ≥95% of worker
//!   wall time and (full mode only) that the bottleneck the committed
//!   `results/engine_prof_pr7.json` capture named has a strictly smaller
//!   share of lost time today. On failure the report's top bottleneck
//!   attribution is printed before exiting non-zero.
//! * `--shards K`, `--nodes N` — override the run shape (shards clamp to
//!   the node count — excess shards would sit empty yet pay every window
//!   barrier). Both must be at least 2: one shard runs the sequential
//!   engine, which has no shard profile, so `--shards 1` or `--nodes 1`
//!   exits 2 before anything runs.
//! * `--chrome PATH` — write the shard-lane timeline as Chrome trace JSON.
//!
//! Run with `cargo run --release -p nicbar-bench --bin engine_prof`.

use nicbar_bench::json::Manifest;
use nicbar_bench::{engineprof, exit_usage, next_value, OutputFile};
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_gm::GmParams;
use nicbar_sim::EngineProf;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

/// The profile must explain at least this fraction of worker wall time.
const ACCOUNTING_GATE: f64 = 0.95;

/// Capture a profiled parallel run: build the cluster, arm the profiler,
/// drain, snapshot. Returns the profile and wall seconds.
fn capture(nodes: usize, shards: usize, cfg: &RunCfg) -> (EngineProf, f64) {
    let mut sim = Scenario::gm(GmParams::lanai_xp(), nodes, DS).build(cfg);
    let (prof, wall_s) =
        engineprof::profile_run(&mut sim).expect("parallel engine was built, profiler was armed");
    assert_eq!(
        prof.shards,
        shards.min(nodes),
        "builder clamps shards to nodes"
    );
    (prof, wall_s)
}

/// Bottleneck-delta gate: the bottleneck the committed PR-7 capture named
/// must hold a strictly smaller share of lost time in today's profile —
/// the check that the adaptive lookahead and lock-free mailboxes actually
/// moved the number the profiler blamed.
fn bottleneck_delta_gate(prof: &EngineProf) -> Result<(), String> {
    const BASELINE: &str = "results/engine_prof_pr7.json";
    let Some((name, base_share)) = engineprof::baseline_bottleneck(BASELINE) else {
        println!("no {BASELINE} baseline; skipping bottleneck-delta gate");
        return Ok(());
    };
    let today = engineprof::bottleneck_share(prof, &name);
    println!(
        "'{name}' share of lost time: {:.1}% (committed baseline {:.1}%)",
        today * 100.0,
        base_share * 100.0
    );
    if today >= base_share {
        return Err(format!(
            "'{name}' still holds {:.1}% of lost time (baseline {:.1}%) — the \
             named bottleneck did not shrink",
            today * 100.0,
            base_share * 100.0
        ));
    }
    println!("named bottleneck's share shrank vs baseline ✓");
    Ok(())
}

/// Print the top idle-time attribution — the failure diagnosis `--check`
/// leaves behind so a red gate names its suspect.
fn print_attribution(prof: &EngineProf) {
    let att = prof.attribution();
    let (name, share) = att.dominant();
    eprintln!(
        "top bottleneck attribution: {name} ({:.1}% of lost time; \
         imbalance {} ns, lookahead stall {} ns, mailbox {} ns)",
        share * 100.0,
        att.imbalance_ns,
        att.stall_ns,
        att.mailbox_ns
    );
}

fn main() {
    let (mut quick, mut check) = (false, false);
    let (mut nodes, mut shards, mut chrome) = (None, None, None);
    // One shard (and so one node, as shards clamp to nodes) builds the
    // sequential engine, which has no shard profile to capture.
    let at_least_two = |flag: &str, v: String| -> usize {
        match v.parse() {
            Ok(n) if n >= 2 => n,
            _ => exit_usage(&format!(
                "{flag} must be an integer >= 2 (one shard runs the sequential \
                 engine, which has no shard profile), got {v}"
            )),
        }
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--nodes" => nodes = Some(at_least_two("--nodes", next_value(&mut args, "--nodes"))),
            "--shards" => {
                shards = Some(at_least_two("--shards", next_value(&mut args, "--shards")));
            }
            "--chrome" => chrome = Some(next_value(&mut args, "--chrome")),
            other => exit_usage(&format!("unknown option {other}")),
        }
    }
    let chrome = chrome.map(OutputFile::create);
    let (default_nodes, default_shards) = if quick { (64, 2) } else { (4096, 8) };
    let nodes = nodes.unwrap_or(default_nodes);
    // Excess shards would sit empty yet still pay every window barrier.
    let shards = shards.unwrap_or(default_shards).min(nodes);

    // Figure-scale iteration counts: at 4096 nodes a handful of barrier
    // iterations already runs millions of events per shard, which is what
    // the profiler needs — statistics over windows, not over iterations.
    let cfg = RunCfg {
        warmup: 2,
        iters: if quick { 30 } else { 8 },
        shards,
        ..RunCfg::default()
    };
    let label = format!("gm NIC-DS, {nodes} nodes");
    println!("== engine_prof: profiling {label}, {shards} shards ==\n");
    let (prof, wall_s) = capture(nodes, shards, &cfg);
    print!("{}", engineprof::report(&prof, &label, wall_s));

    if let Some(out) = chrome {
        let path = out.write(&engineprof::chrome_trace(&prof));
        println!("\n[saved {path}]");
    }

    if !quick {
        let manifest = Manifest::new(
            cfg.seed,
            format!("engine_prof: {label}, {shards} shards, {} iters", cfg.iters),
        );
        std::fs::create_dir_all("results").expect("create results/");
        let path = "results/engine_prof.json";
        std::fs::write(path, engineprof::to_json(&prof, &label, wall_s, &manifest))
            .expect("write engine_prof.json");
        println!("\n[saved {path}]");
    }

    if !check {
        return;
    }

    println!("\n== engine_prof --check ==\n");
    let accounted = prof.accounted_fraction();
    println!(
        "wall accounting: {:.1}% of worker wall time (gate: >= {:.0}%)",
        accounted * 100.0,
        ACCOUNTING_GATE * 100.0
    );
    if accounted < ACCOUNTING_GATE {
        eprintln!(
            "engine_prof --check: profile accounts for only {:.1}% of worker wall time",
            accounted * 100.0
        );
        print_attribution(&prof);
        std::process::exit(1);
    }
    let (dom, dom_share) = prof.attribution().dominant();
    println!(
        "dominant bottleneck: {dom} ({:.1}% of lost time)",
        dom_share * 100.0
    );

    if !quick {
        if let Err(msg) = bottleneck_delta_gate(&prof) {
            eprintln!("engine_prof --check: {msg}");
            print_attribution(&prof);
            std::process::exit(1);
        }
    }
    println!("\nengine_prof --check: all gates passed ✓");
}
