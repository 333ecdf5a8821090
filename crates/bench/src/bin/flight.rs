//! Flight-recorder capture of the paper's NIC barrier on both substrates.
//!
//! Runs a short instrumented window (2 warm-up + 8 recorded barriers) of
//! the 4-node NIC barrier over Quadrics/Elan3 and GM/Myrinet with every
//! record stream on, then prints the per-phase latency breakdown
//! for each capture. With `--chrome <path>` it also writes both captures as
//! Chrome trace-event JSON (open in Perfetto or `chrome://tracing`).
//!
//! Options:
//!   --nodes N        group size (default 4)
//!   --chrome PATH    write Chrome trace JSON to PATH
//!   --gm-only        skip the Elan capture
//!   --elan-only      skip the GM capture
//!   --engine E       sequential | parallel | auto (default auto)
//!   --shards K       parallel worker shards (default 1)
//!
//! Each breakdown stamps which engine produced it; everything else is
//! byte-identical across engines and shard counts.

use nicbar_bench::exit_usage;
use nicbar_bench::flight::{chrome_trace, print_breakdown};
use nicbar_core::{Algorithm, Barrier, FlightData, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;
use nicbar_sim::EngineSel;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

fn main() {
    let mut nodes = 4usize;
    let mut chrome: Option<String> = None;
    let mut run_gm = true;
    let mut run_elan = true;
    let mut engine = EngineSel::Auto;
    let mut shards = 1usize;
    let usage = || -> ! {
        eprintln!(
            "usage: flight [--nodes N] [--chrome PATH] [--gm-only|--elan-only] \
             [--engine sequential|parallel|auto] [--shards K]"
        );
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => match args.next() {
                Some(v) => match v.parse() {
                    Ok(k) if k >= 2 => nodes = k,
                    _ => exit_usage(&format!("--nodes must be an integer >= 2, got {v}")),
                },
                None => exit_usage("--nodes needs a value"),
            },
            "--chrome" => match args.next() {
                Some(path) => chrome = Some(path),
                None => exit_usage("--chrome needs an output path"),
            },
            "--gm-only" => run_elan = false,
            "--elan-only" => run_gm = false,
            "--engine" => match args.next().as_deref() {
                Some("sequential") => engine = EngineSel::Sequential,
                Some("parallel") => engine = EngineSel::Parallel,
                Some("auto") => engine = EngineSel::Auto,
                _ => usage(),
            },
            "--shards" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => shards = v,
                _ => usage(),
            },
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    // A short window: the point is a readable trace, not tight statistics.
    let cfg = RunCfg {
        warmup: 2,
        iters: 8,
        engine,
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

    if let Some(path) = chrome {
        let json = chrome_trace(&captures);
        std::fs::write(&path, json).expect("write Chrome trace");
        println!("[saved {path}]");
    }
}
