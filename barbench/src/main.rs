//! `barbench`: the end-to-end and per-layer benchmark of the nicbar
//! barrier simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path barbench/Cargo.toml -- \
//!     --workload paper-gm8 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload on the sequential engine, in this thread,
//! as a sequence of rounds (a fresh cluster each) for `--seconds` of wall
//! time. Every round passes through the workload's oracle. Throughput is
//! timed over equal slices of simulated time (`run_until(now + Δ)`), never
//! over a whole run, and reported for the host's fast state, which `stats`
//! reads from the per-slice speeds.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` interleaves plain
//! rounds with traced rounds, whose collective engines and applications are
//! wrapped to record spans, and prints the per-layer metrics; the spans go
//! to `out/<workload>.spans.tsv` beside this package's manifest. Human-
//! readable lines come first; the last line is one JSON object.

mod host;
mod stats;
mod tracer;
mod workload;

use nicbar_core::BarrierStats;
use nicbar_sim::RunOutcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Instant;
use workload::{ObsCounts, Sim, Workload};

/// Spans a traced run keeps in memory (8 MiB); totals count past it.
const SPAN_CAPACITY: usize = 1 << 18;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// How a variant's rounds are built.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Variant {
    traced: bool,
    recording: bool,
}

/// The rounds of one loss pattern: identical simulated work, so slice `k`
/// of each is the same work.
#[derive(Default)]
struct Pattern {
    /// Events one round delivers inside its timed slices.
    events: u64,
    /// Wall seconds of slice `k` of every round, at index `k`.
    slice_walls: Vec<Vec<f64>>,
}

/// What one variant's rounds measured.
#[derive(Default)]
struct Pass {
    rounds: u64,
    /// Epochs attempted (every epoch of every round).
    epochs: u64,
    /// Epochs of rounds the oracle rejected.
    failed: u64,
    /// Epochs in one round.
    round_epochs: u64,
    /// By loss pattern.
    patterns: Vec<Pattern>,
    /// Wall seconds per cluster build.
    builds: Vec<f64>,
    /// Engine queue depth at each slice boundary of a traced round.
    pending: Vec<f64>,
    /// Engine counters summed over rounds.
    counters: BTreeMap<String, u64>,
    obs: ObsCounts,
    /// The first round's statistics, when it passed.
    first: Option<BarrierStats>,
    errors: Vec<String>,
}

impl Pass {
    fn positions(&self) -> impl Iterator<Item = &Vec<f64>> {
        self.patterns.iter().flat_map(|p| &p.slice_walls)
    }

    fn pattern_epochs(&self) -> f64 {
        (self.round_epochs * self.patterns.len() as u64) as f64
    }

    /// Barrier epochs per host second in the host's fast state.
    fn epochs_per_s(&self) -> f64 {
        ratio(self.pattern_epochs(), stats::fast_total(self.positions()))
    }

    /// The same with each slice at its median (for the output only: it
    /// follows the host's slow share).
    fn median_epochs_per_s(&self) -> f64 {
        ratio(self.pattern_epochs(), stats::median_total(self.positions()))
    }

    /// Events per epoch, over one round of every pattern.
    fn events_per_epoch(&self) -> f64 {
        let events: u64 = self.patterns.iter().map(|p| p.events).sum();
        ratio(events as f64, self.pattern_epochs())
    }

    /// Wall nanoseconds per event in the fast state.
    fn ns_per_event(&self) -> f64 {
        let events: u64 = self.patterns.iter().map(|p| p.events).sum();
        ratio(stats::fast_total(self.positions()) * 1e9, events as f64)
    }

    fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Build (`builds_per_round` times, each timed) and run the pass's next
/// round, cycling through the workload's loss patterns.
fn run_round(w: Workload, seed: u64, v: Variant, pass: &mut Pass) {
    let p = usize::try_from(pass.rounds).expect("round count fits usize") % w.patterns();
    let mut sim: Option<Sim> = None;
    for _ in 0..w.builds_per_round() {
        drop(sim.take());
        let t = Instant::now();
        let built = w.build(w.pattern_seed(seed, p), v.traced, v.recording);
        pass.builds.push(t.elapsed().as_secs_f64());
        sim = Some(built);
    }
    let mut sim = sim.expect("builds_per_round is at least 1");
    if pass.patterns.len() <= p {
        pass.patterns.resize_with(p + 1, Pattern::default);
    }
    let walls = &mut pass.patterns[p].slice_walls;
    let deadline = sim.deadline();
    let mut target = sim.now();
    let mut hung = false;
    for k in 0.. {
        target += w.slice();
        let t = Instant::now();
        let outcome = if v.traced {
            tracer::slice(|| sim.run_until(target))
        } else {
            sim.run_until(target)
        };
        let wall = t.elapsed().as_secs_f64();
        if walls.len() == k {
            walls.push(Vec::new());
        }
        walls[k].push(wall);
        if v.traced {
            pass.pending.push(sim.pending() as f64);
        }
        if outcome == RunOutcome::Idle || sim.loop_done() {
            break;
        }
        if target > deadline {
            hung = true;
            break;
        }
    }
    pass.patterns[p].events = sim.events();
    let result = if hung || !sim.drain() {
        Err(format!("round did not drain by {deadline}"))
    } else {
        sim.check()
    };
    pass.rounds += 1;
    pass.epochs += w.round_epochs();
    pass.round_epochs = w.round_epochs();
    for (k, v) in sim.counters() {
        *pass.counters.entry(k).or_default() += v;
    }
    let obs = sim.obs();
    pass.obs.records += obs.records;
    pass.obs.dropped += obs.dropped;
    match result {
        Ok(stats) => {
            if pass.first.is_none() {
                pass.first = Some(stats);
            }
        }
        Err(e) => {
            pass.failed += w.round_epochs();
            pass.errors.push(e);
        }
    }
}

/// Run the variants' rounds in turn until `seconds` of wall time are
/// spent and every loss pattern ran, so every variant sees the same mix
/// of host states.
fn run_interleaved(w: Workload, seed: u64, seconds: f64, variants: &[Variant]) -> Vec<Pass> {
    let mut passes: Vec<Pass> = variants.iter().map(|_| Pass::default()).collect();
    let start = Instant::now();
    let patterns = w.patterns() as u64;
    while passes[0].rounds < patterns || start.elapsed().as_secs_f64() < seconds {
        for (v, pass) in variants.iter().zip(passes.iter_mut()) {
            run_round(w, seed, *v, pass);
        }
    }
    passes
}

/// Metrics as `(name, value, unit)`, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(pass: &Pass) -> Metrics {
    vec![
        ("epochs_per_s", pass.epochs_per_s(), "1/s"),
        (
            "setup_s",
            stats::fast_time(&pass.builds).unwrap_or(0.0),
            "s",
        ),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB"),
        (
            "ok_frac",
            1.0 - ratio(pass.failed as f64, pass.epochs as f64),
            "frac",
        ),
    ]
}

fn per_layer(
    plain: &Pass,
    traced: &Pass,
    capture_off: Option<&Pass>,
    trace: &tracer::TraceData,
    runq_wait_frac: f64,
) -> Metrics {
    use tracer::Layer;
    let epochs = traced.epochs as f64;
    let per_epoch = |x: f64| ratio(x, epochs);
    let slice = trace.layer(Layer::Slice);
    let proto = trace.layer(Layer::Protocol);
    let apps = trace.layer(Layer::Apps);
    let c = |k: &str| traced.counter(k);
    let wire = c("wire.total") + c("elan.wire");
    // Dropped retransmissions are subtracted twice, so this errs low.
    let useful = wire - c("wire.dropped") - c("gm.retransmit") - trace.coll_retx as f64;
    let gm_packets = c("gm.data_sent")
        + c("gm.ack_sent")
        + c("gm.coll_sent")
        + c("gm.nack_sent")
        + c("gm.coll_ack_sent")
        + c("gm.retransmit");
    let obs_overhead = capture_off.map_or(0.0, |off| {
        1.0 - ratio(plain.epochs_per_s(), off.epochs_per_s())
    });
    let pending = |q: f64| stats::quantile(&traced.pending, q).unwrap_or(0.0);
    vec![
        (
            "sim.engine.events_per_epoch",
            traced.events_per_epoch(),
            "count",
        ),
        ("sim.engine.ns_per_event", plain.ns_per_event(), "ns"),
        ("sim.queue.pending_p50", pending(0.5), "count"),
        ("sim.queue.pending_max", pending(1.0), "count"),
        (
            "core.protocol.calls_per_epoch",
            per_epoch(proto.calls as f64),
            "count",
        ),
        (
            "core.protocol.ns_per_epoch",
            per_epoch(proto.ns as f64),
            "ns",
        ),
        (
            "core.protocol.actions_per_call",
            ratio(proto.items as f64, proto.calls as f64),
            "count",
        ),
        (
            "core.protocol.share",
            ratio(proto.ns as f64, slice.ns as f64),
            "frac",
        ),
        (
            "core.protocol.nacks_per_epoch",
            per_epoch(c("gm.nack_sent")),
            "count",
        ),
        (
            "core.apps.calls_per_epoch",
            per_epoch(apps.calls as f64),
            "count",
        ),
        ("core.apps.ns_per_epoch", per_epoch(apps.ns as f64), "ns"),
        ("gm.nic.packets_per_epoch", per_epoch(gm_packets), "count"),
        (
            "gm.nic.retransmit_ratio",
            ratio(c("gm.retransmit"), c("gm.data_sent")),
            "frac",
        ),
        ("net.wire.packets_per_epoch", per_epoch(wire), "count"),
        ("net.wire.useful_ratio", ratio(useful, wire), "frac"),
        (
            "elan.nic.rdma_per_epoch",
            per_epoch(c("elan.rdma_sent")),
            "count",
        ),
        (
            "nic_engine.ns_per_epoch",
            per_epoch(slice.ns.saturating_sub(proto.ns + apps.ns) as f64),
            "ns",
        ),
        (
            "sim.obs.records_per_epoch",
            per_epoch(traced.obs.records as f64),
            "count",
        ),
        ("sim.obs.dropped", traced.obs.dropped as f64, "count"),
        ("sim.obs.overhead_frac", obs_overhead, "frac"),
        (
            "bench.trace_overhead_frac",
            1.0 - ratio(traced.epochs_per_s(), plain.epochs_per_s()),
            "frac",
        ),
        ("bench.spans_dropped", trace.dropped as f64, "count"),
        ("host.runq_wait_frac", runq_wait_frac, "frac"),
    ]
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// The paper-accuracy line: simulated latency beside the paper's figure.
/// Simulated microseconds are a model oracle, reported and never gated.
fn paper_line(w: Workload, pass: &Pass) -> String {
    let Some(stats) = &pass.first else {
        return "paper accuracy: no passing round".into();
    };
    match w.paper() {
        Some(p) => format!(
            "paper accuracy: simulated {:.2} us vs paper {:.2} us ({}), {:+.1}%; model oracle, not gated",
            stats.mean_us,
            p.us,
            p.kind,
            (stats.mean_us / p.us - 1.0) * 100.0
        ),
        None => format!(
            "paper accuracy: simulated {:.2} us; the paper has no figure for this configuration",
            stats.mean_us
        ),
    }
}

fn host_stamp(traced_run: bool) -> String {
    let threads = host::hardware_threads();
    let cpu = host::cpu_model().unwrap_or_else(|| "unknown".into());
    format!(
        "host: {{\"hardware_threads\": {threads}, \"cpu_model\": {cpu:?}, \
         \"traced_run\": {traced_run}, \"engine\": \"sequential, 1 thread\", \
         \"sim.parallel\": \"not measured: the benchmark runs the sequential engine only; \
         with {threads} hardware threads, and a shard profiler that does not yet tell \
         descheduled time from lookahead stalls, a speed-up figure would mean nothing\"}}"
    )
}

fn write_spans(w: Workload, trace: &tracer::TraceData) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.spans.tsv", w.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    trace
        .write_tsv(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("barbench: {e}");
            eprintln!("usage: barbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    host::pin_mmap_threshold();
    let sched0 = host::schedstat();
    println!(
        "workload {}: {}; closed loop of {} ranks, {} epochs per round; seed {}",
        w.name(),
        w.describe(),
        w.nodes(),
        w.round_epochs(),
        args.seed
    );
    let plain = Variant {
        traced: false,
        recording: w.recording(),
    };
    let (passes, metrics) = if args.trace {
        let mut variants = vec![
            plain,
            Variant {
                traced: true,
                ..plain
            },
        ];
        if w.recording() {
            variants.push(Variant {
                recording: false,
                ..plain
            });
        }
        tracer::start(SPAN_CAPACITY);
        let passes = run_interleaved(w, args.seed, args.seconds, &variants);
        let trace = tracer::finish();
        let runq = match (sched0, host::schedstat()) {
            (Some((cpu0, wait0)), Some((cpu1, wait1))) => {
                let wait = wait1.saturating_sub(wait0);
                ratio(wait as f64, (cpu1.saturating_sub(cpu0) + wait) as f64)
            }
            _ => 0.0,
        };
        match write_spans(w, &trace) {
            Ok(path) => println!(
                "spans: {} retained, {} dropped, written to {path}",
                trace.spans.len(),
                trace.dropped
            ),
            Err(e) => eprintln!("barbench: could not write spans: {e}"),
        }
        let metrics = per_layer(&passes[0], &passes[1], passes.get(2), &trace, runq);
        (passes, metrics)
    } else {
        let passes = run_interleaved(w, args.seed, args.seconds, &[plain]);
        let metrics = end_to_end(&passes[0]);
        (passes, metrics)
    };

    for (name, pass) in ["plain", "traced", "capture-off"].iter().zip(&passes) {
        println!(
            "{name}: {} rounds, {} slice positions, {:.1} events per epoch, {:.1} epochs/s with each \
             slice at its fast end across rounds, {:.1} at its median",
            pass.rounds,
            pass.patterns.iter().map(|p| p.slice_walls.len()).sum::<usize>(),
            pass.events_per_epoch(),
            pass.epochs_per_s(),
            pass.median_epochs_per_s()
        );
        println!("{}", paper_line(w, pass));
        for e in pass.errors.iter().take(3) {
            println!("oracle failure: {e}");
        }
    }
    // Traced rounds must reproduce the plain rounds exactly.
    let transparent = !args.trace
        || match (&passes[0].first, &passes[1].first) {
            (Some(a), Some(b)) => {
                a.mean_us == b.mean_us && a.per_iter_us == b.per_iter_us && a.counters == b.counters
            }
            _ => false,
        };
    if !transparent {
        println!("oracle failure: traced rounds differ from plain rounds");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", host_stamp(args.trace));
    let attempted: u64 = passes.iter().map(|p| p.epochs).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && transparent;
    println!("{}", json_result(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
