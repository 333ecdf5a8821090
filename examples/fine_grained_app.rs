//! The paper's motivation (§1): "The efficiency of barrier also affects the
//! granularity of a parallel application. To support fine-grained parallel
//! applications, an efficient barrier primitive must be provided."
//!
//! This example simulates a BSP-style application — compute for `g` µs,
//! barrier, repeat — on the LANai-XP cluster and reports parallel
//! efficiency (compute time / wall time) for the host-based and NIC-based
//! barriers across compute grains. The NIC-based barrier sustains usable
//! efficiency at grains where the host-based one burns half the machine.
//!
//! ```text
//! cargo run --release --example fine_grained_app
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
    println!("BSP loop on an {n}-node LANai-XP cluster: compute(g) ; barrier ; repeat\n");
    println!(
        "{:>10} {:>14} {:>14} {:>12} {:>12}",
        "grain(µs)", "host wall(µs)", "nic wall(µs)", "host eff.", "nic eff."
    );

    for grain in [5.0f64, 10.0, 20.0, 50.0, 100.0, 200.0] {
        // Model the compute phase as a deterministic per-iteration skew of
        // exactly `grain` µs (every process computes the same amount — a
        // perfectly balanced BSP superstep).
        let cfg = RunCfg {
            warmup: 20,
            iters: 300,
            skew_us: grain, // uniform in [0, grain): average grain/2 … see note
            ..RunCfg::default()
        };
        // skew_us draws uniformly, so the expected compute per iteration is
        // grain/2; use that for the efficiency denominator.
        let compute = grain / 2.0;

        let host = host_barrier.run(&cfg);
        let nic = nic_barrier.run(&cfg);
        let host_eff = compute / host.mean_us;
        let nic_eff = compute / nic.mean_us;
        println!(
            "{grain:>10.0} {:>14.2} {:>14.2} {:>11.1}% {:>11.1}%",
            host.mean_us,
            nic.mean_us,
            host_eff * 100.0,
            nic_eff * 100.0
        );
    }

    println!("\nefficiency = expected compute per superstep / wall time per superstep.");
    println!("The NIC-based barrier keeps fine-grained supersteps efficient; the");
    println!("host-based barrier needs several times coarser grain for the same");
    println!("efficiency — the paper's granularity argument, quantified.");
}
