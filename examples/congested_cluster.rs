//! Barrier under load — the §6.1 queuing argument, made measurable.
//!
//! Every process keeps a pipeline of bulk messages streaming to its ring
//! neighbour while running consecutive barriers. With the paper's dedicated
//! group queue, barrier messages bypass the congested per-destination
//! queues; in the direct scheme and the host-based barrier they wait their
//! round-robin turn behind 4 KB transfers.
//!
//! ```text
//! cargo run --release --example congested_cluster
//! ```

use nicbar::core::{Algorithm, Barrier, RunCfg, Scenario, TrafficCfg};
use nicbar::gm::{CollFeatures, GmParams};

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

/// The host-based dissemination baseline.
const HOST_DS: Barrier = Barrier::Host(Algorithm::Dissemination);

fn main() {
    let n = 8;
    let cfg = RunCfg {
        warmup: 20,
        iters: 300,
        ..RunCfg::default()
    };

    println!("8-node LANai-XP cluster, dissemination barrier, ring bulk traffic\n");
    println!(
        "{:<26} {:>10} {:>12} {:>10}",
        "barrier implementation", "quiet(µs)", "loaded(µs)", "slowdown"
    );

    let quiet_nic = Scenario::gm(GmParams::lanai_xp(), n, DS).run(&cfg).mean_us;
    let quiet_direct = Scenario::gm(GmParams::lanai_xp(), n, DS)
        .with_features(CollFeatures::direct())
        .run(&cfg)
        .mean_us;
    let quiet_host = Scenario::gm(GmParams::lanai_xp(), n, HOST_DS)
        .run(&cfg)
        .mean_us;

    for outstanding in [2u32, 4, 8] {
        let traffic = TrafficCfg {
            msg_bytes: 4096,
            outstanding,
        };
        let nic = Scenario::gm(GmParams::lanai_xp(), n, DS)
            .with_traffic(traffic)
            .run(&cfg)
            .mean_us;
        let direct = Scenario::gm(GmParams::lanai_xp(), n, DS)
            .with_features(CollFeatures::direct())
            .with_traffic(traffic)
            .run(&cfg)
            .mean_us;
        let host = Scenario::gm(GmParams::lanai_xp(), n, HOST_DS)
            .with_traffic(traffic)
            .run(&cfg)
            .mean_us;

        println!("--- {outstanding} × 4 KB bulk messages in flight per process ---");
        println!(
            "{:<26} {quiet_nic:>10.2} {nic:>12.2} {:>9.2}x",
            "NIC (paper protocol)",
            nic / quiet_nic
        );
        println!(
            "{:<26} {quiet_direct:>10.2} {direct:>12.2} {:>9.2}x",
            "NIC (direct scheme)",
            direct / quiet_direct
        );
        println!(
            "{:<26} {quiet_host:>10.2} {host:>12.2} {:>9.2}x",
            "host-based",
            host / quiet_host
        );
    }

    println!("\nThe dedicated group queue keeps the barrier's slowdown small under");
    println!("load; the direct scheme and host-based barrier queue behind the bulk");
    println!("transfers — the delay §6.1 sets out to eliminate.");
}
