//! Reliability economics (§6.3): sweep the fabric loss rate and compare
//! the wire traffic of the two reliability designs —
//!
//! * point-to-point (host-based barrier): every packet ACKed, sender
//!   timeout + go-back-N retransmission;
//! * receiver-driven (NIC-based collective): no ACKs at all; a stalled
//!   receiver NACKs exactly the missing sender, halving the lossless
//!   packet count.
//!
//! ```text
//! cargo run --release --example lossy_fabric
//! ```

use nicbar::core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar::gm::GmParams;

fn main() {
    let n = 8;
    let host_barrier = Scenario::gm(
        GmParams::lanai_xp(),
        n,
        Barrier::Host(Algorithm::Dissemination),
    );
    let nic_barrier = Scenario::gm(
        GmParams::lanai_xp(),
        n,
        Barrier::Nic(Algorithm::Dissemination),
    );
    println!("8-node LANai-XP cluster, dissemination barrier, loss sweep\n");
    println!(
        "{:>7} | {:>11} {:>9} {:>9} | {:>11} {:>9} {:>9}",
        "loss", "host pkts/b", "retx", "lat(µs)", "nic pkts/b", "nacks", "lat(µs)"
    );

    for drop in [0.0, 0.005, 0.01, 0.02, 0.05] {
        let cfg = RunCfg {
            warmup: 10,
            iters: 200,
            drop_prob: drop,
            seed: 99,
            ..RunCfg::default()
        };
        let host = host_barrier.run(&cfg);
        let nic = nic_barrier.run(&cfg);
        let total = cfg.total() as f64;
        println!(
            "{:>6.1}% | {:>11.1} {:>9.2} {:>9.2} | {:>11.1} {:>9.2} {:>9.2}",
            drop * 100.0,
            host.wire_per_barrier,
            host.counter("gm.retransmit") as f64 / total,
            host.mean_us,
            nic.wire_per_barrier,
            nic.counter("wire.coll_nack") as f64 / total,
            nic.mean_us,
        );
    }

    println!("\npkts/b = wire packets per barrier; retx/nacks are per barrier too.");
    println!("Lossless, the collective protocol moves exactly half the packets");
    println!("(24 vs 48 at n=8). Under loss both recover; the NACK path pays only");
    println!("for what was actually lost.");
}
