//! `why-slow` — explain where every nanosecond of a barrier goes.
//!
//! Runs a short instrumented window of the paper's NIC barrier with the
//! record log on, extracts each barrier's critical path from the
//! packet DAG, and prints it edge by edge: host→NIC handoff, NIC compute,
//! wire time, port queuing, NACK/retransmission detours, plus the
//! per-rank completion slack and the aggregate attribution table.
//!
//! Options:
//!   --nodes N          group size (default 8)
//!   --substrate S      gm | elan (default gm)
//!   --drop P           GM fabric drop probability (default 0.0; gm only,
//!                      QsNet is hardware-reliable)
//!   --seed S           master seed (default 42)
//!   --iters N          measured barriers after the 2 warm-up ones
//!                      (default 4); the log records and the report
//!                      prints all N + 2
//!   --jsonl PATH       also dump every packet record as JSONL to PATH
//!                      (the first line is a dump-level header carrying
//!                      the log's dropped-record count, so consumers can
//!                      detect truncated dumps)
//!   --shards K         worker shards (default 1; the parallel engine from 2)
//!   --check            gate mode: exit nonzero unless every barrier has a
//!                      non-empty critical path with >= 95% wall-time
//!                      coverage and the log dropped zero records
//!   --replay PATH      skip the simulation: re-ingest a JSONL netdump
//!                      (ours, or a `nicbar-verify --trace-out`
//!                      counterexample) and run the analysis on it
//!
//! The header stamps which engine produced the run; everything below it is
//! byte-identical across engines and shard counts.

use nicbar_bench::{critpath, exit_usage, flight, netdump, next_value, parse_shards, OutputFile};
use nicbar_core::{Algorithm, Barrier, FlightData, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

const USAGE: &str = "usage: why-slow [--nodes N] [--substrate gm|elan] [--drop P] \
                     [--seed S] [--iters N] [--jsonl PATH] [--shards K] [--check] \
                     [--replay PATH]";

/// Re-ingest an exported JSONL netdump and run the causal analysis on it.
/// Counterexample traces from `nicbar-verify` usually end *at* the violating
/// transition — before any barrier completes — so when no span closes, the
/// replay prints the causal chain to the last event instead of a critical
/// path.
fn replay(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            return 1;
        }
    };
    let netdump::Dump { header, records } = match netdump::parse_dump(&text) {
        Ok(dump) => dump,
        Err((line, msg)) => {
            eprintln!("error: {path}:{line}: {msg}");
            return 1;
        }
    };
    println!(
        "== why-slow --replay: {} records from {path} ==",
        records.len()
    );
    if let Some((expected, dropped)) = header {
        if dropped > 0 {
            eprintln!(
                "warning: this dump is TRUNCATED — the capture dropped {dropped} records; \
                 critical paths may hit holes"
            );
        }
        if expected != records.len() as u64 {
            eprintln!(
                "error: header promises {expected} records but the file has {}",
                records.len()
            );
            return 1;
        }
    }
    if records.is_empty() {
        eprintln!("error: trace is empty");
        return 1;
    }

    let mut kind_counts: Vec<(&'static str, usize)> = Vec::new();
    let mut detours = 0usize;
    for r in &records {
        match kind_counts.iter_mut().find(|(n, _)| *n == r.kind.name()) {
            Some((_, c)) => *c += 1,
            None => kind_counts.push((r.kind.name(), 1)),
        }
        detours += usize::from(r.kind.is_detour());
    }
    let counts: Vec<String> = kind_counts
        .iter()
        .map(|(n, c)| format!("{n} x{c}"))
        .collect();
    println!("events: {}", counts.join(", "));
    println!("detour events (nack/retransmit/drop): {detours}");

    let paths = critpath::analyze(&records);
    if paths.is_empty() {
        println!(
            "no completed barrier span in this trace (it ends at the violating \
             transition); causal chain to the final event:"
        );
        let last = records.last().expect("nonempty").id;
        for r in nicbar_sim::chain_to(&records, last) {
            println!(
                "  t={:>6}ns  node {:>2}  {}",
                r.time.as_ns(),
                if r.src == nicbar_sim::NO_NODE {
                    "-".to_string()
                } else {
                    r.src.to_string()
                },
                r.kind.name()
            );
        }
    } else {
        print!("{}", critpath::render(&paths));
    }
    0
}

fn main() {
    let mut nodes = 8usize;
    let mut substrate = "gm".to_string();
    let mut drop_prob = 0.0f64;
    let mut seed = 42u64;
    let mut iters = 4u64;
    let mut jsonl_path: Option<String> = None;
    let mut shards = 1usize;
    let mut check = false;
    let mut replay_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--nodes" => {
                let v = next_value(&mut args, flag);
                nodes = match v.parse() {
                    Ok(k) if k >= 2 => k,
                    _ => exit_usage(&format!("--nodes must be an integer >= 2, got {v}")),
                };
            }
            "--substrate" => {
                substrate = next_value(&mut args, flag);
                if substrate != "gm" && substrate != "elan" {
                    exit_usage(&format!("--substrate must be gm|elan, got {substrate}"));
                }
            }
            "--drop" => {
                let v = next_value(&mut args, flag);
                drop_prob = match v.parse() {
                    Ok(p) if (0.0..=1.0).contains(&p) => p,
                    _ => exit_usage(&format!("--drop must be a probability in [0, 1], got {v}")),
                };
            }
            "--seed" => {
                let v = next_value(&mut args, flag);
                seed = v.parse().unwrap_or_else(|_| {
                    exit_usage(&format!("--seed must be an unsigned integer, got {v}"))
                });
            }
            "--iters" => {
                let v = next_value(&mut args, flag);
                iters = v.parse().unwrap_or_else(|_| {
                    exit_usage(&format!("--iters must be an unsigned integer, got {v}"))
                });
            }
            "--jsonl" => jsonl_path = Some(next_value(&mut args, flag)),
            "--shards" => {
                shards =
                    parse_shards(&next_value(&mut args, flag)).unwrap_or_else(|e| exit_usage(&e));
            }
            "--check" => check = true,
            "--replay" => replay_path = Some(next_value(&mut args, flag)),
            other => exit_usage(&format!("unknown option {other}\n{USAGE}")),
        }
    }
    if let Some(path) = replay_path {
        std::process::exit(replay(&path));
    }
    if substrate == "elan" && drop_prob > 0.0 {
        exit_usage(&format!(
            "--drop {drop_prob} is gm only: the elan fabric is hardware-reliable"
        ));
    }
    let jsonl = jsonl_path.map(OutputFile::create);

    let cfg = RunCfg {
        warmup: 2,
        iters,
        seed,
        drop_prob,
        shards,
        ..RunCfg::default()
    };
    let cap: FlightData = match substrate.as_str() {
        "gm" => Scenario::gm(GmParams::lanai_xp(), nodes, DS).capture(&cfg),
        _ => Scenario::elan(ElanParams::elan3(), nodes, DS).capture(&cfg),
    };

    println!(
        "== why-slow: {} barrier, {} nodes, seed {}, drop {} ==",
        cap.substrate, nodes, seed, drop_prob
    );
    println!("engine: {}", flight::engine_stamp(&cap));
    let (packets, dropped) = (cap.trace.packets().to_vec(), cap.trace.dropped());
    println!("netdump: {} records, {dropped} dropped", packets.len());

    let paths = critpath::analyze(&packets);
    print!("{}", critpath::render(&paths));

    if let Some(out) = jsonl {
        let path = out.write(&netdump::jsonl_with_header(&packets, dropped));
        println!(
            "wrote {} packet records to {path} (header: {dropped} dropped)",
            packets.len()
        );
    }

    if check {
        let mut failed = false;
        if paths.is_empty() {
            eprintln!("check FAILED: no completed barrier spans in the dump");
            failed = true;
        }
        if dropped > 0 {
            eprintln!("check FAILED: the log dropped {dropped} records");
            failed = true;
        }
        for p in &paths {
            if p.edges.is_empty() {
                eprintln!(
                    "check FAILED: barrier (group {:#x}, seq {}) has an empty critical path",
                    p.group, p.seq
                );
                failed = true;
            }
            if p.coverage_pct() < 95.0 {
                eprintln!(
                    "check FAILED: barrier (group {:#x}, seq {}) coverage {:.1}% < 95%",
                    p.group,
                    p.seq,
                    p.coverage_pct()
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check OK: {} barriers, all critical paths non-empty with >= 95% coverage, \
             0 dropped records",
            paths.len()
        );
    }
}
