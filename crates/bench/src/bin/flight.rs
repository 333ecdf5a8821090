//! Flight capture of the paper's NIC barrier on both substrates.
//!
//! Runs a short instrumented window (2 warm-up + 8 recorded barriers) of
//! the 4-node NIC barrier over Quadrics/Elan3 and GM/Myrinet with the
//! record log on, then prints the per-phase latency breakdown for each
//! capture. With `--chrome <path>` it also writes both captures as
//! Chrome trace-event JSON (open in Perfetto or `chrome://tracing`).
//!
//! Options:
//!   --nodes N        group size (default 4)
//!   --chrome PATH    write Chrome trace JSON to PATH
//!   --gm-only        skip the Elan capture
//!   --elan-only      skip the GM capture
//!   --shards K       worker shards (default 1; the parallel engine from 2)
//!
//! Each breakdown stamps which engine produced it; everything else is
//! byte-identical across engines and shard counts.

use nicbar_bench::flight::{chrome_trace, print_breakdown};
use nicbar_bench::{exit_usage, next_value, parse_shards, OutputFile};
use nicbar_core::{Algorithm, Barrier, FlightData, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

const USAGE: &str = "usage: flight [--nodes N] [--chrome PATH] [--gm-only|--elan-only] \
                     [--shards K]";

fn main() {
    let mut nodes = 4usize;
    let mut chrome: Option<String> = None;
    let mut run_gm = true;
    let mut run_elan = true;
    let mut shards = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => {
                let v = next_value(&mut args, "--nodes");
                nodes = match v.parse() {
                    Ok(k) if k >= 2 => k,
                    _ => exit_usage(&format!("--nodes must be an integer >= 2, got {v}")),
                };
            }
            "--chrome" => match args.next() {
                Some(path) => chrome = Some(path),
                None => exit_usage("--chrome needs an output path"),
            },
            "--gm-only" => run_elan = false,
            "--elan-only" => run_gm = false,
            "--shards" => {
                shards = parse_shards(&next_value(&mut args, "--shards"))
                    .unwrap_or_else(|e| exit_usage(&e));
            }
            other => exit_usage(&format!("unknown option {other}\n{USAGE}")),
        }
    }
    let chrome = chrome.map(OutputFile::create);
    // A short window: the point is a readable trace, not tight statistics.
    let cfg = RunCfg {
        warmup: 2,
        iters: 8,
        shards,
        ..RunCfg::default()
    };

    let mut captures: Vec<FlightData> = Vec::new();
    if run_elan {
        captures.push(Scenario::elan(ElanParams::elan3(), nodes, DS).capture(&cfg));
    }
    if run_gm {
        captures.push(Scenario::gm(GmParams::lanai_xp(), nodes, DS).capture(&cfg));
    }

    for cap in &captures {
        print_breakdown(cap);
        println!();
    }

    if let Some(out) = chrome {
        let path = out.write(&chrome_trace(&captures));
        println!("[saved {path}]");
    }
}
