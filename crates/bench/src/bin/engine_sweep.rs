//! Engine-throughput regression harness.
//!
//! Measures raw engine throughput (events/second) on four micro workloads
//! and the end-to-end wall time of two figure points, on the engine's one
//! event queue (the indexed 4-ary heap), then runs the parallel one-shard
//! overhead gate. Writes `results/engine_sweep.json`.
//!
//! Run with `cargo run --release -p nicbar-bench --bin engine_sweep`.
//!
//! `--quick [--baseline PATH]` runs only the micro workloads and compares
//! their throughput against the `indexed4` rows of a previously saved
//! `results/engine_sweep.json`, exiting non-zero on a >5% geomean
//! regression. This is the observability zero-overhead gate: the recorder
//! and trace ring stay disabled, so any slowdown here is hot-path damage.
//! Quick mode never overwrites the baseline. Quick mode also prints an
//! informational mutex-vs-SPSC mailbox throughput comparison — reported,
//! not gated, because cross-thread throughput on a loaded CI box is too
//! noisy for a hard threshold.
//!
//! `--prof` (full sweep only) also profiles the fig5 point on the parallel
//! engine. Any other argument, `--baseline` without `--quick`, `--prof`
//! with `--quick`, and a baseline that cannot be read or holds no
//! `indexed4` micro row each exit 2 with `error:` before anything runs.

use nicbar_bench::json::{Manifest, Writer};
use nicbar_bench::{exit_usage, next_value};
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;
use nicbar_sim::{Component, ComponentId, Ctx, Engine, EngineSel, SimTime};
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
fn fig5_point() -> Scenario {
    Scenario::gm(GmParams::lanai_9_1(), 16, DS)
}

fn fig5_run() -> (f64, f64) {
    let start = Instant::now();
    let stats = fig5_point().run(&sweep_cfg());
    (stats.mean_us, start.elapsed().as_secs_f64())
}

/// The fig5 point under an explicit execution engine: simulated mean and
/// wall seconds.
fn fig5_engine_run(engine: EngineSel, shards: usize) -> (f64, f64) {
    // 5000 iterations ≈ 100 ms of wall per run: long enough that the
    // ±1 ms scheduling jitter of a shared single-CPU CI host cannot fake
    // a 5% overhead, short enough to keep the gate interactive.
    let cfg = RunCfg {
        warmup: 50,
        iters: 5000,
        engine,
        shards,
        ..RunCfg::default()
    };
    let start = Instant::now();
    let stats = fig5_point().run(&cfg);
    (stats.mean_us, start.elapsed().as_secs_f64())
}

/// The parallel engine at one shard must be a cheap wrapper around the
/// sequential core: same simulated latency, and ≤5% wall-clock overhead on
/// the fig5 figure point. Each repeat times the two engines back to back
/// and the gate takes the *best pair ratio* — host-load drift (a shared CI
/// box that slows down mid-gate) hits both halves of a pair equally, where
/// independent min-of-N on each side can charge one engine for a slow
/// phase the other never saw. Returns `(seq_wall_s, par_wall_s)` (the best
/// pair) for the JSON report.
fn parallel_one_shard_gate() -> (f64, f64) {
    const GATE_REPEATS: usize = 7;
    let mut best: Option<(f64, f64)> = None;
    // Alternate which engine goes first each repeat, so same-pair ordering
    // cannot systematically favor one side either.
    for r in 0..GATE_REPEATS {
        let (seq, par) = if r % 2 == 0 {
            let s = fig5_engine_run(EngineSel::Sequential, 1);
            let p = fig5_engine_run(EngineSel::Parallel, 1);
            (s, p)
        } else {
            let p = fig5_engine_run(EngineSel::Parallel, 1);
            let s = fig5_engine_run(EngineSel::Sequential, 1);
            (s, p)
        };
        assert_eq!(
            seq.0, par.0,
            "parallel engine at 1 shard changed the simulated latency"
        );
        if best.is_none_or(|(bs, bp)| par.1 / seq.1 < bp / bs) {
            best = Some((seq.1, par.1));
        }
    }
    let (seq_s, par_s) = best.expect("at least one repeat");
    let overhead = par_s / seq_s - 1.0;
    println!(
        "parallel 1-shard overhead on fig5_n16: sequential {seq_s:.3} s, parallel {par_s:.3} s ({:+.1}%)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "parallel engine at 1 shard is {:.1}% slower than sequential (gate: 5%)",
        overhead * 100.0
    );
    println!("parallel 1-shard overhead within 5% ✓");
    (seq_s, par_s)
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

/// Cross-thread mailbox path, mutex vs SPSC ring — the contrast that
/// motivated replacing `Mutex<Vec>` mailboxes in the parallel engine.
/// Each producer thread pushes `items` u64s to the consumer; the mutex
/// variant shares one `Mutex<Vec>`, the ring variant gives each producer
/// its own [`nicbar_sim::SpscRing`] (the engine's per-pair topology).
/// Returns (mutex_secs, ring_secs). Informational only: wall-clock on a
/// shared box is too noisy to gate, and on a 1-core host both variants
/// degenerate to context-switch benchmarks.
fn mailbox_transfer(producers: usize, items: u64) -> (f64, f64) {
    use std::sync::Mutex;

    let mutex_secs = {
        let shared: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let start = Instant::now();
        std::thread::scope(|s| {
            for p in 0..producers {
                let shared = &shared;
                s.spawn(move || {
                    for i in 0..items {
                        shared.lock().expect("mailbox mutex").push(p as u64 ^ i);
                    }
                });
            }
            let total = producers as u64 * items;
            let mut received = 0u64;
            let mut drained = Vec::new();
            while received < total {
                {
                    let mut guard = shared.lock().expect("mailbox mutex");
                    std::mem::swap(&mut *guard, &mut drained);
                }
                received += drained.len() as u64;
                drained.clear();
                if received < total {
                    std::thread::yield_now();
                }
            }
        });
        start.elapsed().as_secs_f64()
    };

    let ring_secs = {
        let rings: Vec<nicbar_sim::SpscRing<u64>> = (0..producers)
            .map(|_| nicbar_sim::SpscRing::new(1024))
            .collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for (p, ring) in rings.iter().enumerate() {
                s.spawn(move || {
                    for i in 0..items {
                        let mut v = p as u64 ^ i;
                        while let Err(back) = ring.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let total = producers as u64 * items;
            let mut received = 0u64;
            while received < total {
                let mut progressed = false;
                for ring in &rings {
                    while ring.pop().is_some() {
                        received += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    std::thread::yield_now();
                }
            }
        });
        start.elapsed().as_secs_f64()
    };

    (mutex_secs, ring_secs)
}

/// Print the mutex-vs-ring mailbox comparison at 1, 2, 4, 8 producers.
/// Not a gate — see [`mailbox_transfer`].
fn mailbox_report() {
    const ITEMS: u64 = 50_000;
    println!("== mailbox path: Mutex<Vec> vs SpscRing (informational, not gated) ==\n");
    println!(
        "{:<10} {:>14} {:>14} {:>8}",
        "producers", "mutex Kops/s", "ring Kops/s", "ratio"
    );
    for producers in [1usize, 2, 4, 8] {
        let (mutex_s, ring_s) = mailbox_transfer(producers, ITEMS);
        let total = (producers as u64 * ITEMS) as f64;
        println!(
            "{producers:<10} {:>14.0} {:>14.0} {:>7.2}x",
            total / mutex_s / 1e3,
            total / ring_s / 1e3,
            mutex_s / ring_s
        );
    }
    println!();
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
    println!("engine_sweep --quick: within tolerance ✓\n");
    mailbox_report();
    parallel_one_shard_gate();
    std::process::exit(0);
}

fn main() {
    let (mut quick, mut prof, mut baseline) = (false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--prof" => prof = true,
            "--baseline" => baseline = Some(next_value(&mut args, "--baseline")),
            other => exit_usage(&format!("unknown option {other}")),
        }
    }
    if quick {
        if prof {
            exit_usage("--prof belongs to the full sweep, not --quick");
        }
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
    println!();

    let (seq_wall, par1_wall) = parallel_one_shard_gate();

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
    w.field("parallel_one_shard");
    w.open_object();
    w.field("point");
    w.string("fig5_n16");
    w.field("sequential_wall_s");
    w.number(seq_wall);
    w.field("parallel_wall_s");
    w.number(par1_wall);
    w.field("overhead");
    w.number(par1_wall / seq_wall - 1.0);
    w.close_object();
    w.close_object();

    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/engine_sweep.json";
    std::fs::write(path, w.finish()).expect("write engine_sweep.json");
    println!("\n[saved {path}]");

    // `--prof`: profile the fig5 point on the parallel engine so the sweep
    // can explain its own parallel wall times, not just report them.
    if prof {
        let cfg = RunCfg {
            warmup: 50,
            iters: 5000,
            engine: EngineSel::Parallel,
            shards: 2,
            ..RunCfg::default()
        };
        if let Some((prof, wall_s)) =
            nicbar_bench::engineprof::profile_run(&mut fig5_point().build(&cfg))
        {
            println!();
            print!(
                "{}",
                nicbar_bench::engineprof::report(&prof, "fig5_n16 NIC-DS", wall_s)
            );
        }
    }
}
