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
//!   wall time and (full mode only) that the *disabled* profiler keeps the
//!   one-shard engine overhead within 2 percentage points of the committed
//!   `results/engine_sweep.json` baseline, and that the bottleneck the
//!   committed `results/engine_prof_pr7.json` capture named has a strictly
//!   smaller share of lost time today. On failure the report's top
//!   bottleneck attribution is printed before exiting non-zero.
//! * `--shards K`, `--nodes N` — override the run shape (shards clamp to
//!   the node count — excess shards would sit empty yet pay every window
//!   barrier).
//! * `--partition contiguous|profile=PATH` — partition strategy; `profile=`
//!   closes the loop by feeding a prior capture back into the partitioner.
//! * `--chrome PATH` — write the shard-lane timeline as Chrome trace JSON.
//!
//! Run with `cargo run --release -p nicbar-bench --bin engine_prof`.

use nicbar_bench::json::Manifest;
use nicbar_bench::{engineprof, exit_usage, next_value, parse_partition, OutputFile};
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_gm::GmParams;
use nicbar_sim::{EngineProf, EngineSel, PartitionSel};
use std::time::Instant;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

/// The profile must explain at least this fraction of worker wall time.
const ACCOUNTING_GATE: f64 = 0.95;
/// Allowed drift of the disabled-profiler one-shard overhead vs baseline.
const OVERHEAD_SLACK: f64 = 0.02;

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

/// The fig5 figure point (n=16, gm, dissemination) under an explicit
/// engine, with the profiler left DISABLED — the same workload
/// `engine_sweep` committed its one-shard baseline from.
fn fig5_disabled_run(engine: EngineSel, shards: usize) -> f64 {
    let cfg = RunCfg {
        warmup: 50,
        iters: 5000,
        engine,
        shards,
        ..RunCfg::default()
    };
    let start = Instant::now();
    Scenario::gm(GmParams::lanai_9_1(), 16, DS).run(&cfg);
    start.elapsed().as_secs_f64()
}

/// Disabled-path overhead gate: with the profiler never armed, the
/// parallel engine at one shard must stay within [`OVERHEAD_SLACK`] of the
/// committed baseline overhead. Paired back-to-back repeats with
/// alternating order, best pair wins — the same noise discipline as
/// `engine_sweep`'s gate.
fn disabled_overhead_gate() -> Result<(), String> {
    let baseline = engineprof::baseline_one_shard_overhead("results/engine_sweep.json");
    let Some(baseline) = baseline else {
        println!("no results/engine_sweep.json baseline; skipping overhead gate");
        return Ok(());
    };
    const GATE_REPEATS: usize = 7;
    let mut best: Option<(f64, f64)> = None;
    for r in 0..GATE_REPEATS {
        let (seq, par) = if r % 2 == 0 {
            let s = fig5_disabled_run(EngineSel::Sequential, 1);
            let p = fig5_disabled_run(EngineSel::Parallel, 1);
            (s, p)
        } else {
            let p = fig5_disabled_run(EngineSel::Parallel, 1);
            let s = fig5_disabled_run(EngineSel::Sequential, 1);
            (s, p)
        };
        if best.is_none_or(|(bs, bp)| par / seq < bp / bs) {
            best = Some((seq, par));
        }
    }
    let (seq_s, par_s) = best.expect("at least one repeat");
    let overhead = par_s / seq_s - 1.0;
    // The gate is against the committed baseline, floored at zero: a
    // baseline that happened to measure the parallel wrapper as *faster*
    // must not tighten the budget below "no regression + slack".
    let budget = baseline.max(0.0) + OVERHEAD_SLACK;
    println!(
        "profiler-disabled 1-shard overhead: {:+.2}% (baseline {:+.2}%, budget {:+.2}%)",
        overhead * 100.0,
        baseline * 100.0,
        budget * 100.0
    );
    if overhead > budget {
        return Err(format!(
            "disabled-profiler overhead {:+.2}% exceeds budget {:+.2}% — the \
             profiler hooks are not free when off",
            overhead * 100.0,
            budget * 100.0
        ));
    }
    println!(
        "profiler-disabled path within {:.0}% of baseline ✓",
        OVERHEAD_SLACK * 100.0
    );
    Ok(())
}

/// Bottleneck-delta gate: the bottleneck the committed PR-7 capture named
/// must hold a strictly smaller share of lost time in today's profile —
/// the check that this PR's adaptive lookahead / lock-free mailboxes /
/// profile-guided partition actually moved the number the profiler blamed.
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
             profile-guided loop did not shrink the named bottleneck",
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
    let mut partition = PartitionSel::default();
    let positive = |flag: &str, v: String| -> usize {
        match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => exit_usage(&format!("{flag} must be a positive integer, got {v}")),
        }
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--nodes" => nodes = Some(positive("--nodes", next_value(&mut args, "--nodes"))),
            "--shards" => shards = Some(positive("--shards", next_value(&mut args, "--shards"))),
            "--chrome" => chrome = Some(next_value(&mut args, "--chrome")),
            "--partition" => {
                partition = parse_partition(&next_value(&mut args, "--partition"))
                    .unwrap_or_else(|e| exit_usage(&e));
            }
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
        engine: EngineSel::Parallel,
        shards,
        partition,
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
        if let Err(msg) = disabled_overhead_gate() {
            eprintln!("engine_prof --check: {msg}");
            print_attribution(&prof);
            std::process::exit(1);
        }
    }
    println!("\nengine_prof --check: all gates passed ✓");
}
