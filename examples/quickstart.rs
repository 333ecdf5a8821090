//! Quickstart: simulate the paper's headline experiment — an 8-node
//! Myrinet LANai-XP cluster running consecutive NIC-based barriers — and
//! print the latency, the improvement factor over the host-based baseline,
//! and the wire-level accounting.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nicbar::core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar::gm::GmParams;

fn main() {
    let cfg = RunCfg {
        warmup: 100,
        iters: 2000,
        ..RunCfg::default()
    };
    let n = 8;

    println!(
        "simulating {n}-node Myrinet (LANai-XP) cluster, {} barriers...\n",
        cfg.total()
    );

    let xp = |barrier| Scenario::gm(GmParams::lanai_xp(), n, barrier).run(&cfg);
    let nic = xp(Barrier::Nic(Algorithm::Dissemination));
    let host = xp(Barrier::Host(Algorithm::Dissemination));

    println!(
        "NIC-based barrier (dissemination):  {:>6.2} µs",
        nic.mean_us
    );
    println!(
        "host-based barrier (dissemination): {:>6.2} µs",
        host.mean_us
    );
    println!(
        "improvement factor:                 {:>6.2}x   (paper: 2.64x)",
        host.mean_us / nic.mean_us
    );
    println!();
    println!("wire packets per barrier:");
    println!(
        "  NIC-based:  {:>5.1}  (collective packets only — no ACKs, §6.3)",
        nic.wire_per_barrier
    );
    println!(
        "  host-based: {:>5.1}  (data + one ACK each)",
        host.wire_per_barrier
    );
    println!();
    println!("interesting counters (NIC-based run):");
    for key in [
        "wire.coll",
        "wire.coll_nack",
        "gm.coll_recv",
        "gm.host_coll",
    ] {
        println!("  {key:<16} {}", nic.counter(key));
    }
}
