//! Beyond the paper: scalability of the NIC-based barrier to 65,536 nodes.
//!
//! Sweeps N ∈ {16 .. 65,536} for NIC-DS and NIC-PE on both substrates
//! (Myrinet LANai-XP, Quadrics Elan3), with per-point engine throughput
//! (events per wall-clock second) and process peak RSS — the evidence that
//! the protocol's steady state is allocation-free and the simulator's
//! memory stays O(N), flat enough to host a 65,536-node cluster.
//!
//! The dissemination sweep is checked against the paper's analytical form
//! `T = A + (⌈log₂N⌉−1)·T_trig` (EXPERIMENTS.md refit): the binary exits
//! nonzero unless each substrate's DS curve fits the staircase at every
//! measured N. A full run appends one run to the `BENCH_scale.json`
//! trajectory at the repo root.
//!
//! Flags (see [`nicbar_bench::fig_args`]):
//! * `--quick` sub-samples the grid for CI smoke runs while keeping the
//!   65,536-node gm NIC-DS point, and writes nothing.
//! * `--shards <K>` runs the main sweeps on the parallel engine with `K`
//!   shards (the sequential engine below 2).
//!
//! After the sweeps, a dedicated engine-comparison series re-runs the
//! 4096-node gm NIC-DS point sequentially and with the rank-sharded
//! parallel engine at several shard counts, recording wall-clock speedup
//! in the trajectory's `engine_series`. The ≥4.5× speedup expectation at
//! 8 shards (adaptive lookahead + lock-free mailboxes) is asserted only
//! when the host actually has ≥8 hardware threads; the series records
//! `"armed"`, whether that gate ran, next to `"host_threads"` and the
//! host's `"cpu_model"`. The engine self-profile of that point is
//! `engine_prof`'s.

use nicbar_bench::{fig_args, json::Writer, trajectory, Manifest};
use nicbar_core::{Algorithm, Barrier, BarrierStats, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;
use nicbar_model::fit;
use std::time::Instant;

/// One sweep point's full measurement.
struct ScalePoint {
    n: usize,
    stats: BarrierStats,
    /// Engine events processed during the run (not the build).
    events: u64,
    /// Wall-clock seconds spent draining the engine.
    run_s: f64,
    /// Process peak RSS (VmHWM) after the point, KiB. Monotone across the
    /// sweep — the high-water mark, not a per-point footprint.
    peak_rss_kb: u64,
}

/// `VmHWM` from `/proc/self/status`, KiB (0 where unavailable).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The host CPU, the first `model name` of `/proc/cpuinfo` ("not
/// recorded" where that is unreadable), stamped on every trajectory run.
fn cpu_model() -> String {
    let model = || {
        let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
        let line = info.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split_once(':')?.1.trim().to_string())
    };
    model().unwrap_or_else(|| "not recorded".to_string())
}

/// Iteration counts per node count: large clusters cost ~N·log₂N events
/// per epoch, so scale the epoch count down to keep the whole sweep around
/// a minute while leaving enough steady-state epochs to time. The engine
/// reaches its periodic steady state after the first epoch (the fabric is
/// deterministic), so even the 65,536-node point needs only a couple of
/// measured iterations for an exact mean.
fn cfg_for(n: usize, quick: bool, base: &RunCfg) -> RunCfg {
    let (warmup, iters) = match n {
        0..=64 => (10, 400),
        65..=256 => (10, 100),
        257..=1024 => (10, 40),
        1025..=4096 => (10, 12),
        4097..=16384 => (2, 4),
        _ => (1, 2),
    };
    let iters = if quick { iters.min(50) } else { iters };
    RunCfg {
        warmup,
        iters,
        shards: base.shards,
        ..RunCfg::default()
    }
}

/// The NIC barrier of `algo` over `n` nodes of the named substrate.
fn nic_scenario(substrate: &str, algo: Algorithm, n: usize) -> Scenario {
    match substrate {
        "gm" => Scenario::gm(GmParams::lanai_xp(), n, Barrier::Nic(algo)),
        _ => Scenario::elan(ElanParams::elan3(), n, Barrier::Nic(algo)),
    }
}

/// Run one (substrate, algo, n) point and measure it.
fn run_point(substrate: &str, algo: Algorithm, n: usize, cfg: &RunCfg) -> ScalePoint {
    let mut sim = nic_scenario(substrate, algo, n).build(cfg);
    let t = Instant::now();
    sim.drain();
    let run_s = t.elapsed().as_secs_f64();
    ScalePoint {
        n,
        stats: sim.stats(),
        events: sim.events_processed(),
        run_s,
        peak_rss_kb: peak_rss_kb(),
    }
}

fn sweep(
    substrate: &str,
    algo: Algorithm,
    ns: &[usize],
    quick: bool,
    base: &RunCfg,
) -> Vec<ScalePoint> {
    ns.iter()
        .map(|&n| run_point(substrate, algo, n, &cfg_for(n, quick, base)))
        .collect()
}

/// Assert the dissemination curve is the model's ⌈log₂N⌉ staircase: a
/// least-squares fit of `T = A + (⌈log₂N⌉−1)·T_trig` must explain the
/// sweep (R² ≥ 0.97) with every measured point within 15% of the line.
fn check_staircase(label: &str, points: &[ScalePoint]) {
    let sweep: Vec<(usize, f64)> = points.iter().map(|p| (p.n, p.stats.mean_us)).collect();
    let (model, quality) = fit(&sweep);
    println!(
        "{label}: T = {:.2} + (ceil(log2 N)-1) * {:.2}   (RMSE {:.2} µs, R² {:.4})",
        model.t_init, model.t_trig, quality.rmse_us, quality.r_squared
    );
    assert!(
        quality.r_squared >= 0.97,
        "{label}: DS sweep is not a log2 staircase (R² {:.4})",
        quality.r_squared
    );
    for &(n, measured) in &sweep {
        let predicted = model.predict(n);
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel <= 0.15,
            "{label}: n={n} off the staircase: measured {measured:.2} µs vs model {predicted:.2} µs ({:.1}%)",
            rel * 100.0
        );
    }
}

fn print_table(label: &str, points: &[ScalePoint]) {
    println!("\n== {label} ==");
    println!(
        "{:>6} {:>10} {:>12} {:>10} {:>9} {:>12}",
        "nodes", "mean µs", "events", "Mev/s", "wall s", "peak RSS MB"
    );
    for p in points {
        println!(
            "{:>6} {:>10.2} {:>12} {:>10.2} {:>9.2} {:>12.1}",
            p.n,
            p.stats.mean_us,
            p.events,
            p.events as f64 / p.run_s / 1e6,
            p.run_s,
            p.peak_rss_kb as f64 / 1024.0
        );
    }
}

/// One row of the engine-comparison series: the 4096-node gm NIC-DS point
/// under a given engine configuration.
struct EnginePoint {
    engine: &'static str,
    shards: usize,
    wall_s: f64,
    mean_us: f64,
    events: u64,
}

/// Re-run the 4096-node gm NIC-DS point sequentially and rank-sharded, so
/// BENCH_scale.json carries a wall-clock speedup series for the parallel
/// engine. Latency means must be byte-identical across engines (the
/// conservative windows never reorder cross-shard delivery). Also returns
/// whether the 8-shard speedup gate armed on this host.
fn engine_series(quick: bool, base: &RunCfg) -> (Vec<EnginePoint>, bool) {
    const N: usize = 4096;
    let shard_counts: &[usize] = if quick { &[8] } else { &[2, 4, 8] };
    let mut cfg = cfg_for(N, quick, base);
    cfg.shards = 1;
    let seq = run_point("gm", Algorithm::Dissemination, N, &cfg);
    let mut out = vec![EnginePoint {
        engine: "sequential",
        shards: 1,
        wall_s: seq.run_s,
        mean_us: seq.stats.mean_us,
        events: seq.events,
    }];
    for &shards in shard_counts {
        cfg.shards = shards;
        let par = run_point("gm", Algorithm::Dissemination, N, &cfg);
        assert_eq!(
            par.stats.mean_us, seq.stats.mean_us,
            "parallel engine changed the simulated barrier latency at {shards} shards"
        );
        out.push(EnginePoint {
            engine: "parallel",
            shards,
            wall_s: par.run_s,
            mean_us: par.stats.mean_us,
            events: par.events,
        });
    }

    println!("\n== engine comparison (gm NIC-DS, n=4096) ==");
    println!(
        "{:>12} {:>7} {:>9} {:>10} {:>9}",
        "engine", "shards", "wall s", "mean µs", "speedup"
    );
    for p in &out {
        println!(
            "{:>12} {:>7} {:>9.2} {:>10.2} {:>8.2}x",
            p.engine,
            p.shards,
            p.wall_s,
            p.mean_us,
            seq.run_s / p.wall_s
        );
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut armed = false;
    if let Some(p8) = out.iter().find(|p| p.engine == "parallel" && p.shards == 8) {
        let speedup = seq.run_s / p8.wall_s;
        armed = cores >= 8;
        if armed {
            // Raised from 3.0× when per-destination adaptive lookahead and
            // the lock-free SPSC mailboxes landed.
            assert!(
                speedup >= 4.5,
                "8-shard parallel engine only {speedup:.2}x over sequential on {cores} cores"
            );
        } else {
            println!("(speedup gate skipped: host has {cores} hardware threads, needs >= 8)");
        }
    }
    (out, armed)
}

fn main() {
    let args = fig_args(&[]);
    // Full grid per (substrate, algo); `--quick` sub-samples but keeps the
    // 65,536-node gm NIC-DS headline point. The PE sweeps stop at 4096:
    // pairwise-exchange is the paper's counterexample algorithm and its
    // large-N behaviour is already visible there.
    let ds_full: Vec<usize> = vec![16, 64, 256, 1024, 4096, 16384, 65536];
    let pe_full: Vec<usize> = vec![16, 64, 256, 1024, 4096];
    let (gm_ds, elan_ds, pe): (Vec<usize>, Vec<usize>, Vec<usize>) = if args.quick {
        (
            vec![16, 256, 4096, 65536],
            vec![16, 256, 1024],
            vec![16, 256],
        )
    } else {
        (ds_full.clone(), ds_full, pe_full)
    };

    let t_all = Instant::now();
    let base = args.cfg;
    let sweeps: Vec<(&str, Vec<ScalePoint>)> = vec![
        (
            "gm NIC-DS",
            sweep("gm", Algorithm::Dissemination, &gm_ds, args.quick, &base),
        ),
        (
            "gm NIC-PE",
            sweep("gm", Algorithm::PairwiseExchange, &pe, args.quick, &base),
        ),
        (
            "elan NIC-DS",
            sweep(
                "elan",
                Algorithm::Dissemination,
                &elan_ds,
                args.quick,
                &base,
            ),
        ),
        (
            "elan NIC-PE",
            sweep("elan", Algorithm::PairwiseExchange, &pe, args.quick, &base),
        ),
    ];

    for (label, points) in &sweeps {
        print_table(label, points);
    }
    println!(
        "\ntotal sweep wall clock: {:.1} s",
        t_all.elapsed().as_secs_f64()
    );

    println!();
    check_staircase("gm NIC-DS", &sweeps[0].1);
    check_staircase("elan NIC-DS", &sweeps[2].1);
    println!("staircase check: both DS curves fit the ceil(log2 N) model ✓");

    let (engines, armed) = engine_series(args.quick, &base);

    // A `--quick` smoke, like every figure binary's, writes nothing: only
    // full runs join the trajectory.
    if args.quick {
        return;
    }
    let shards = base.shards;
    let manifest = Manifest::new(
        RunCfg::default().seed,
        format!(
            "gm lanai-xp + elan3, DS to n={}, PE to n={}, iters scaled by n, quick=false, engine={}, shards={}",
            sweeps[0].1.last().map_or(0, |p| p.n),
            sweeps[1].1.last().map_or(0, |p| p.n),
            if shards > 1 { "parallel" } else { "sequential" },
            shards,
        ),
    );

    // BENCH_scale.json: the trajectory schema (median/p99 per point) plus a
    // throughput section with events/sec and peak RSS per point, and an
    // `engine_series` section with the sequential-vs-sharded wall clocks.
    // The body below is one run; `trajectory::append_run` adds it to the
    // tracked history instead of truncating it.
    let mut w = Writer::new();
    w.open_object();
    manifest.emit(&mut w);
    w.field("series");
    w.open_array();
    for (label, points) in &sweeps {
        w.open_object();
        w.field("label");
        w.string(label);
        w.field("points");
        w.open_array();
        for p in points {
            let tp = trajectory::point(p.n, &p.stats);
            w.open_object();
            w.field("n");
            w.uint(p.n as u64);
            w.field("mean_us");
            w.number(tp.mean_us);
            w.field("median_us");
            w.number(tp.median_us);
            w.field("p99_us");
            w.number(tp.p99_us);
            w.field("iters");
            w.uint(tp.iters as u64);
            w.field("events");
            w.uint(p.events);
            w.field("events_per_sec");
            w.number(p.events as f64 / p.run_s);
            w.field("wall_s");
            w.number(p.run_s);
            w.field("peak_rss_kb");
            w.uint(p.peak_rss_kb);
            w.close_object();
        }
        w.close_array();
        w.close_object();
    }
    w.close_array();
    w.field("engine_series");
    w.open_object();
    w.field("label");
    w.string("gm NIC-DS n=4096, sequential vs rank-sharded parallel");
    w.field("host_threads");
    w.uint(std::thread::available_parallelism().map_or(1, usize::from) as u64);
    w.field("armed");
    w.bool(armed);
    w.field("cpu_model");
    w.string(&cpu_model());
    w.field("points");
    w.open_array();
    let seq_wall = engines[0].wall_s;
    for p in &engines {
        w.open_object();
        w.field("engine");
        w.string(p.engine);
        w.field("shards");
        w.uint(p.shards as u64);
        w.field("wall_s");
        w.number(p.wall_s);
        w.field("mean_us");
        w.number(p.mean_us);
        w.field("events");
        w.uint(p.events);
        w.field("speedup");
        w.number(seq_wall / p.wall_s);
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.close_object();
    trajectory::append_run("scale", &w.finish()).expect("write BENCH_scale.json");
    println!("[saved BENCH_scale.json]");
}
