//! Engine-throughput regression harness.
//!
//! Measures raw engine throughput (events/second) on four micro workloads
//! and the end-to-end wall time of two figure points, on the engine's one
//! event queue (the indexed 4-ary heap). Writes `results/engine_sweep.json`.
//!
//! Run with `cargo run --release -p nicbar-bench --bin engine_sweep`.
//!
//! `--quick [--baseline PATH]` runs only the micro workloads and compares
//! their throughput against the `indexed4` rows of a previously saved
//! `results/engine_sweep.json`, exiting non-zero on a >5% geomean
//! regression. This is the observability zero-overhead gate: the record
//! log stays off, so any slowdown here is hot-path damage.
//! Quick mode never overwrites the baseline.
//!
//! The engine self-profile of a parallel run is `engine_prof`'s. Any other
//! argument, `--baseline` without `--quick`, and a baseline that cannot be
//! read or holds no `indexed4` micro row each exit 2 with `error:` before
//! anything runs.

use nicbar_bench::json::{Manifest, Writer};
use nicbar_bench::{exit_usage, next_value};
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;
use nicbar_sim::{Component, ComponentId, Ctx, Engine, SimTime};
use std::time::Instant;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

const RING_EVENTS: u64 = 400_000;
const FANOUT_DEPTH: u32 = 9;
const REPEATS: usize = 5;
/// The `"scheduler"` value of every row this binary writes, and the rows
/// `--quick` reads back: the queue the engine runs on. Saved baselines
/// also hold rows of since-deleted queues, which `--quick` skips.
const SCHEDULER: &str = "indexed4";

enum Msg {
    Hop(u64),
    Spawn(u32),
}

/// Bounces an event around a ring — pop-dominated scheduler load.
struct RingHop {
    next: ComponentId,
    stride: u64,
}

impl Component<Msg> for RingHop {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Hop(remaining) => {
                if remaining > 0 {
                    ctx.send(
                        SimTime::from_ns(self.stride),
                        self.next,
                        Msg::Hop(remaining - 1),
                    );
                }
            }
            Msg::Spawn(_) => unreachable!(),
        }
    }
}

/// Every event schedules four children — push/heap-pressure load.
struct FanOut;

impl Component<Msg> for FanOut {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Spawn(depth) => {
                if depth > 0 {
                    for k in 0..4u64 {
                        ctx.send_self(SimTime::from_ns(10 + k), Msg::Spawn(depth - 1));
                    }
                }
            }
            Msg::Hop(_) => unreachable!(),
        }
    }
}

fn ring_hop_run() -> (u64, f64) {
    let mut engine: Engine<Msg> = Engine::new(0);
    let ids: Vec<ComponentId> = (0..16).map(|_| engine.reserve_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        engine.install(
            id,
            RingHop {
                next: ids[(i + 1) % ids.len()],
                stride: 10,
            },
        );
    }
    engine.schedule_at(SimTime::ZERO, ids[0], Msg::Hop(RING_EVENTS));
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}

/// `tokens` tokens circulating a ring at staggered strides, sharing one
/// event budget: a sustained queue depth of `tokens`.
fn flows_run(tokens: usize) -> (u64, f64) {
    let mut engine: Engine<Msg> = Engine::new(0);
    let ids: Vec<ComponentId> = (0..tokens).map(|_| engine.reserve_id()).collect();
    for (i, &id) in ids.iter().enumerate() {
        engine.install(
            id,
            RingHop {
                next: ids[(i + 1) % ids.len()],
                stride: 5 + (i as u64 % 13),
            },
        );
    }
    let hops = RING_EVENTS / tokens as u64;
    for (i, &id) in ids.iter().enumerate() {
        engine.schedule_at(SimTime::from_ns(i as u64), id, Msg::Hop(hops));
    }
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}

fn fanout_run() -> (u64, f64) {
    let mut engine: Engine<Msg> = Engine::new(0);
    let id = engine.add(FanOut);
    engine.schedule_at(SimTime::ZERO, id, Msg::Spawn(FANOUT_DEPTH));
    let start = Instant::now();
    engine.run();
    (engine.events_processed(), start.elapsed().as_secs_f64())
}

/// One timed micro run: (events processed, wall seconds).
type MicroRun = fn() -> (u64, f64);

/// The micro workloads, by the name their baseline rows carry. `flows_64`
/// runs at the queue depth of the paper's figure simulations (nodes ×
/// in-flight messages); `flows_1024` at that of the 1,024-node projection.
const MICRO: [(&str, MicroRun); 4] = [
    ("ring_hop", ring_hop_run),
    ("flows_64", || flows_run(64)),
    ("flows_1024", || flows_run(1024)),
    ("fanout", fanout_run),
];

fn sweep_cfg() -> RunCfg {
    RunCfg {
        warmup: 50,
        iters: 1000,
        ..RunCfg::default()
    }
}

/// The fig5 figure point: the 16-node LANai-9.1 NIC-DS barrier.
fn fig5_run() -> (f64, f64) {
    let start = Instant::now();
    let stats = Scenario::gm(GmParams::lanai_9_1(), 16, DS).run(&sweep_cfg());
    (stats.mean_us, start.elapsed().as_secs_f64())
}

fn fig7_run() -> (f64, f64) {
    let start = Instant::now();
    let stats = Scenario::elan(ElanParams::elan3(), 8, DS).run(&sweep_cfg());
    (stats.mean_us, start.elapsed().as_secs_f64())
}

/// Best (fastest) of `REPEATS` timed runs; the events count must agree
/// across runs (the workload is deterministic).
fn best_of(run: impl Fn() -> (u64, f64)) -> (u64, f64) {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..REPEATS {
        let (events, secs) = run();
        best = match best {
            Some((e, s)) => {
                assert_eq!(e, events, "non-deterministic event count");
                Some((e, s.min(secs)))
            }
            None => Some((events, secs)),
        };
    }
    best.expect("REPEATS >= 1")
}

/// Pull `"key": "value"` out of one JSON object's text.
fn json_str<'a>(chunk: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = chunk.find(&pat)? + pat.len();
    let rest = &chunk[start..];
    Some(&rest[..rest.find('"')?])
}

/// Pull `"key": number` out of one JSON object's text.
fn json_num(chunk: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = chunk.find(&pat)? + pat.len();
    let rest = &chunk[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// [`SCHEDULER`] rows `(workload, events_per_sec)` of the [`MICRO`]
/// workloads in a saved `engine_sweep.json`. The writer emits one flat
/// object per row, so a split on `{` isolates each row's fields. A file
/// that cannot be read or holds no such row is an error.
fn baseline_rows(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--baseline {path}: {e} (run the full sweep first)"))?;
    let mut rows = Vec::new();
    for chunk in text.split('{') {
        if json_str(chunk, "scheduler") != Some(SCHEDULER) {
            continue;
        }
        if let (Some(wl), Some(eps)) = (
            json_str(chunk, "workload"),
            json_num(chunk, "events_per_sec"),
        ) {
            if MICRO.iter().any(|(label, _)| *label == wl) {
                rows.push((wl.to_string(), eps));
            }
        }
    }
    if rows.is_empty() {
        return Err(format!("--baseline {path}: no {SCHEDULER} micro rows"));
    }
    Ok(rows)
}

/// `--quick` gate: micro throughput vs the saved baseline's [`SCHEDULER`]
/// rows. Exits 1 on a >5% geomean regression; never writes the baseline.
fn quick_gate(baseline_path: &str, baseline: &[(String, f64)]) -> ! {
    const TOLERANCE: f64 = 0.95;
    println!("== engine_sweep --quick: {SCHEDULER} vs {baseline_path} ==\n");
    // Each micro run lasts ~10 ms, so quick mode can afford many repeats;
    // taking the minimum over 25 runs filters out transient machine load
    // (noise only ever slows a run down, never speeds it up).
    const QUICK_REPEATS: usize = 25;
    let mut ratios = Vec::new();
    for (label, run) in MICRO {
        let Some(&(_, base_eps)) = baseline.iter().find(|(wl, _)| wl == label) else {
            println!("{label:<10} not in baseline, skipped");
            continue;
        };
        let mut events = 0;
        let mut secs = f64::INFINITY;
        for _ in 0..QUICK_REPEATS {
            let (e, s) = run();
            events = e;
            secs = secs.min(s);
        }
        let eps = events as f64 / secs;
        let ratio = eps / base_eps;
        println!(
            "{label:<10} {:>10.1} Kevents/s   baseline {:>10.1}   ratio {ratio:>5.3}",
            eps / 1e3,
            base_eps / 1e3
        );
        ratios.push(ratio);
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!("\ngeomean ratio: {geomean:.3} (gate: >= {TOLERANCE})");
    if geomean < TOLERANCE {
        eprintln!(
            "engine_sweep --quick: throughput regressed {:.1}% vs baseline",
            (1.0 - geomean) * 100.0
        );
        std::process::exit(1);
    }
    println!("engine_sweep --quick: within tolerance ✓");
    std::process::exit(0);
}

fn main() {
    let (mut quick, mut baseline) = (false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--baseline" => baseline = Some(next_value(&mut args, "--baseline")),
            other => exit_usage(&format!("unknown option {other}")),
        }
    }
    if quick {
        let path = baseline.as_deref().unwrap_or("results/engine_sweep.json");
        let rows = baseline_rows(path).unwrap_or_else(|e| exit_usage(&e));
        quick_gate(path, &rows);
    }
    if baseline.is_some() {
        exit_usage("--baseline belongs to --quick");
    }

    println!("== engine_sweep: engine throughput ==\n");
    // (workload, events, best seconds)
    let mut micro: Vec<(&str, u64, f64)> = Vec::new();
    for (label, run) in MICRO {
        let (events, secs) = best_of(run);
        println!(
            "{label:<10} {events:>8} events  {:>10.1} Kevents/s",
            events as f64 / secs / 1e3
        );
        micro.push((label, events, secs));
    }

    println!("\n== engine_sweep: end-to-end figure points ==\n");
    // (figure point, simulated mean µs, best wall seconds)
    let mut figures: Vec<(&str, f64, f64)> = Vec::new();
    for (label, run) in [
        ("fig5_n16", fig5_run as fn() -> (f64, f64)),
        ("fig7_n8", fig7_run as fn() -> (f64, f64)),
    ] {
        let mut mean_us = f64::NAN;
        let mut best = f64::INFINITY;
        for _ in 0..REPEATS {
            let (us, secs) = run();
            if !mean_us.is_nan() {
                assert_eq!(us, mean_us, "{label}: non-deterministic latency");
            }
            mean_us = us;
            best = best.min(secs);
        }
        println!("{label:<10} mean {mean_us:>8.3} µs   wall {best:>7.3} s");
        figures.push((label, mean_us, best));
    }

    let mut w = Writer::new();
    w.open_object();
    Manifest::new(
        nicbar_core::RunCfg::default().seed,
        "engine_sweep: scheduler micro-benchmarks + figure-point replays",
    )
    .emit(&mut w);
    w.field("micro");
    w.open_array();
    for &(label, events, secs) in &micro {
        w.open_object();
        w.field("workload");
        w.string(label);
        w.field("scheduler");
        w.string(SCHEDULER);
        w.field("events");
        w.uint(events);
        w.field("seconds");
        w.number(secs);
        w.field("events_per_sec");
        w.number(events as f64 / secs);
        w.close_object();
    }
    w.close_array();
    w.field("figures");
    w.open_array();
    for &(label, mean_us, secs) in &figures {
        w.open_object();
        w.field("point");
        w.string(label);
        w.field("scheduler");
        w.string(SCHEDULER);
        w.field("mean_us");
        w.number(mean_us);
        w.field("wall_seconds");
        w.number(secs);
        w.close_object();
    }
    w.close_array();
    w.close_object();

    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/engine_sweep.json";
    std::fs::write(path, w.finish()).expect("write engine_sweep.json");
    println!("\n[saved {path}]");
}
