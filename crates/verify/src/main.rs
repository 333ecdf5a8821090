//! `nicbar-verify` — exhaustive protocol model checking, CLI.
//!
//! Single-run mode explores one configuration; `--check` runs the CI gate
//! matrix (DS, PE and binary-tree GB barriers on gm and elan at
//! N ∈ {2, 4, 8} — full proofs at N ∈ {2, 4}, bounded safety sweeps at
//! N = 8; see [`gate_matrix`]) and fails on any violation, or on
//! truncation of a full-proof row.
//!
//! Options:
//!   --check                 run the gate matrix and exit nonzero on failure
//!   --nodes N               group size (default 4)
//!   --algo ds|pe|gb         barrier schedule (default ds; gb is the
//!                           binary gather-broadcast tree)
//!   --substrate gm|elan     adversary semantics (default gm)
//!   --epochs E              consecutive epochs per host (default 1)
//!   --window W              bounded-delay delivery window, 0 = unbounded
//!   --faults F              loss+dup budget per execution (default unbounded)
//!   --max-states M          exploration cap (default 2,000,000)
//!   --inject FAULT          inject a protocol bug (skip-payload-record)
//!   --expect-violation      exit 0 only if a violation IS found
//!   --trace-out PATH        write the counterexample as netdump JSONL
//!                           (replay with: why-slow --replay PATH)
//!   --format human|json     report format (default human)

use nicbar_bench::netdump;
use nicbar_core::Algorithm;
use nicbar_verify::{explore, trace_records, Config, Fault, Outcome, Report, Substrate};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: nicbar-verify [--check] [--nodes N] [--algo ds|pe|gb] \
         [--substrate gm|elan] [--epochs E] [--window W] [--faults F] \
         [--max-states M] [--inject skip-payload-record] \
         [--expect-violation] [--trace-out PATH] [--format human|json]"
    );
    std::process::exit(2);
}

fn parse_algo(s: &str) -> Option<Algorithm> {
    match s {
        "ds" | "dissemination" => Some(Algorithm::Dissemination),
        "pe" | "pairwise" => Some(Algorithm::PairwiseExchange),
        "gb" | "gather-broadcast" => Some(Algorithm::GatherBroadcast { degree: 2 }),
        _ => None,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render one report as a JSON object (no trailing newline).
fn report_json(cfg: &Config, r: &Report, secs: f64, trace_path: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"algo\": \"{}\", \"substrate\": \"{}\", \"nodes\": {}, \"epochs\": {}, \
         \"window\": {}, \"faults\": {}, \"explored\": {}, \"transitions\": {}, \
         \"truncated\": {}, \"seconds\": {:.3}, \"outcome\": \"{}\"",
        cfg.algo.short_name(),
        cfg.substrate.name(),
        cfg.nodes,
        cfg.epochs,
        cfg.window,
        cfg.faults
            .map_or_else(|| "null".to_string(), |b| b.to_string()),
        r.explored,
        r.transitions,
        r.truncated,
        secs,
        r.outcome.name(),
    ));
    if let Outcome::Safety { message, .. } = &r.outcome {
        out.push_str(&format!(", \"message\": \"{}\"", json_escape(message)));
    }
    if let Some(trace) = r.outcome.trace() {
        out.push_str(&format!(", \"trace_len\": {}", trace.len()));
    }
    if let Some(p) = trace_path {
        out.push_str(&format!(", \"trace_out\": \"{}\"", json_escape(p)));
    }
    out.push('}');
    out
}

/// Print a violation's step list and optionally dump the replayable trace.
fn render_violation(cfg: &Config, r: &Report, trace_out: Option<&str>) {
    let Some(trace) = r.outcome.trace() else {
        return;
    };
    let (records, steps, violation) = trace_records(cfg, trace);
    eprintln!("minimal counterexample ({} step(s)):", steps.len());
    for s in &steps {
        eprintln!("  {s}");
    }
    match &r.outcome {
        Outcome::Safety { message, .. } => eprintln!("  => invariant violated: {message}"),
        Outcome::Deadlock { .. } => eprintln!("  => deadlock: no transition makes progress"),
        Outcome::Liveness { .. } => {
            eprintln!("  => completion is unreachable from the resulting state")
        }
        Outcome::Ok => {}
    }
    if let Some(v) = violation {
        debug_assert!(matches!(r.outcome, Outcome::Safety { .. }), "{v}");
    }
    if let Some(path) = trace_out {
        match std::fs::write(path, netdump::jsonl(&records)) {
            Ok(()) => eprintln!(
                "wrote {} netdump record(s) to {path} (replay: why-slow --replay {path})",
                records.len()
            ),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn run_single(cfg: &Config, expect_violation: bool, trace_out: Option<&str>, json: bool) -> i32 {
    let t0 = Instant::now();
    let r = explore(cfg);
    let secs = t0.elapsed().as_secs_f64();
    if json {
        println!("{}", report_json(cfg, &r, secs, trace_out));
    } else {
        println!("nicbar-verify: {}", cfg.describe());
        println!(
            "explored {} state(s), {} transition(s) in {:.2}s{}",
            r.explored,
            r.transitions,
            secs,
            if r.truncated {
                " [TRUNCATED at --max-states]"
            } else {
                ""
            }
        );
    }
    let violated = !matches!(r.outcome, Outcome::Ok);
    if violated {
        render_violation(cfg, &r, trace_out);
    }
    match (violated, expect_violation) {
        (false, false) => {
            if r.truncated {
                if !json {
                    eprintln!("FAIL: exploration truncated — liveness unproven");
                }
                1
            } else {
                if !json {
                    println!(
                        "all properties hold: invariants on every state, \
                         deadlock-free, completion always reachable"
                    );
                }
                0
            }
        }
        (true, true) => {
            if !json {
                println!("violation found, as expected (--expect-violation)");
            }
            0
        }
        (true, false) => {
            if !json {
                eprintln!("FAIL: {} violation", r.outcome.name());
            }
            1
        }
        (false, true) => {
            if !json {
                eprintln!("FAIL: expected a violation, none found");
            }
            1
        }
    }
}

/// Cap for the bounded N = 8 safety sweeps: large enough to exercise deep
/// interleavings, small enough to keep each row under ~30 s.
const BOUNDED_SWEEP_STATES: usize = 150_000;

/// The CI gate matrix, for the three barrier schedules on both substrates
/// (gather-broadcast over a binary tree, which has an interior rank at
/// N = 4, where the 4-ary tree of the Elanlib curves is a star):
///
/// * N = 2, two epochs (covers the one-epoch-deep banking window) under
///   the *unbounded* adversary — arbitrarily many losses, duplicates and
///   reorderings, unbounded delay. Full proof: safety + deadlock-freedom
///   + NACK liveness over the complete state graph.
/// * N = 4, full proof. Elan runs unrestricted reorder + unbounded delay
///   (~225k states); gm needs a loss+dup budget of 2 and a delivery
///   window of 2 (~180k states — the unbounded gm space exceeds 1.6M
///   states even with a single-fault budget and takes minutes, so the
///   unbounded-delay gm proof lives at N = 2).
/// * N = 8, *bounded safety sweep*: exploration truncates at
///   [`BOUNDED_SWEEP_STATES`]; invariants and deadlock-freedom are checked
///   on every explored state but liveness is not claimed (that proof is
///   the N ∈ {2, 4} rows' job).
fn gate_matrix(max_states: usize) -> Vec<(Config, bool)> {
    let mut out = Vec::new();
    for &substrate in &[Substrate::Gm, Substrate::Elan] {
        // (nodes, epochs, window, faults, bounded-sweep?)
        let rows: &[(usize, u64, usize, Option<u32>, bool)] = match substrate {
            Substrate::Gm => &[
                (2, 2, 0, None, false),
                (4, 1, 2, Some(2), false),
                (8, 1, 1, Some(1), true),
            ],
            Substrate::Elan => &[
                (2, 2, 0, None, false),
                (4, 1, 0, None, false),
                (8, 1, 1, None, true),
            ],
        };
        for &algo in &[
            Algorithm::Dissemination,
            Algorithm::PairwiseExchange,
            Algorithm::GatherBroadcast { degree: 2 },
        ] {
            for &(nodes, epochs, window, faults, bounded) in rows {
                out.push((
                    Config {
                        nodes,
                        algo,
                        substrate,
                        epochs,
                        window,
                        max_states: if bounded {
                            BOUNDED_SWEEP_STATES.min(max_states)
                        } else {
                            max_states
                        },
                        faults,
                        fault: None,
                    },
                    bounded,
                ));
            }
        }
    }
    out
}

fn run_check(max_states: usize, json: bool) -> i32 {
    let configs = gate_matrix(max_states);
    let mut failed = 0usize;
    let mut lines = Vec::new();
    let t0 = Instant::now();
    for (cfg, bounded) in &configs {
        let s0 = Instant::now();
        let r = explore(cfg);
        let secs = s0.elapsed().as_secs_f64();
        // Bounded sweeps may truncate (safety checked on the explored
        // prefix); full-proof rows must explore the whole graph.
        let ok = matches!(r.outcome, Outcome::Ok) && (*bounded || !r.truncated);
        if !ok {
            failed += 1;
        }
        if json {
            lines.push(report_json(cfg, &r, secs, None));
        } else {
            let tag = match (ok, r.truncated) {
                (true, true) => "OK* ",
                (true, false) => "OK  ",
                (false, _) => "FAIL",
            };
            println!(
                "{} {:58} {:>9} states {:>10} transitions {:>7.2}s",
                tag,
                cfg.describe(),
                r.explored,
                r.transitions,
                secs
            );
            if !ok {
                render_violation(cfg, &r, None);
                if r.truncated {
                    eprintln!(
                        "  => truncated at {} states; liveness unproven",
                        cfg.max_states
                    );
                }
            }
        }
    }
    if json {
        println!("[{}]", lines.join(",\n "));
    } else {
        println!(
            "nicbar-verify --check: {}/{} configurations verified in {:.1}s \
             (OK* = bounded safety sweep, liveness proven on the full-proof rows)",
            configs.len() - failed,
            configs.len(),
            t0.elapsed().as_secs_f64()
        );
    }
    i32::from(failed > 0)
}

fn main() {
    let mut check = false;
    let mut nodes = 4usize;
    let mut algo = Algorithm::Dissemination;
    let mut substrate = Substrate::Gm;
    let mut epochs = 1u64;
    let mut window = 0usize;
    let mut faults: Option<u32> = None;
    let mut max_states = 2_000_000usize;
    let mut fault: Option<Fault> = None;
    let mut expect_violation = false;
    let mut trace_out: Option<String> = None;
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--nodes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 2 => nodes = v,
                _ => usage(),
            },
            "--algo" => match args.next().as_deref().and_then(parse_algo) {
                Some(a) => algo = a,
                None => usage(),
            },
            "--substrate" => match args.next().as_deref().and_then(Substrate::parse) {
                Some(s) => substrate = s,
                None => usage(),
            },
            "--epochs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => epochs = v,
                _ => usage(),
            },
            "--window" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => window = v,
                None => usage(),
            },
            "--faults" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => faults = Some(v),
                None => usage(),
            },
            "--max-states" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => max_states = v,
                _ => usage(),
            },
            "--inject" => match args.next().as_deref().and_then(Fault::parse) {
                Some(f) => fault = Some(f),
                None => usage(),
            },
            "--expect-violation" => expect_violation = true,
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(p),
                None => usage(),
            },
            "--format" => match args.next().as_deref() {
                Some("human") => json = false,
                Some("json") => json = true,
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let code = if check {
        run_check(max_states, json)
    } else {
        let cfg = Config {
            nodes,
            algo,
            substrate,
            epochs,
            window,
            max_states,
            faults,
            fault,
        };
        run_single(&cfg, expect_violation, trace_out.as_deref(), json)
    };
    std::process::exit(code);
}
