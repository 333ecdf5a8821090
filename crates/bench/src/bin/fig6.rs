//! Figure 6: NIC-based vs host-based barrier latency, 2–8 nodes, on the
//! LANai-XP / 2.4 GHz Xeon / PCI-X cluster.
//!
//! Paper anchors: 14.20 µs NIC-based at 8 nodes; 2.64× improvement —
//! smaller than the 9.1 cluster's factor because the faster host CPU and
//! PCI-X bus leave less overhead for the NIC to remove.
//!
//! Shares the figure-binary CLI (`fig_args`): `--quick` shrinks the sweep
//! for CI smoke runs, `--shards` runs it on the parallel engine.

use nicbar_bench::{fig_args, parallel_sweep, Figure, Manifest, Series};
use nicbar_core::{Algorithm, Barrier, Scenario};
use nicbar_gm::GmParams;

fn main() {
    let args = fig_args(&[]);
    let (quick, cfg) = (args.quick, args.cfg);
    let ns: Vec<usize> = if quick {
        vec![2, 4, 8]
    } else {
        (2..=8).collect()
    };

    let curve = |barrier: Barrier| -> Vec<(usize, f64)> {
        parallel_sweep(&ns, |n| {
            Scenario::gm(GmParams::lanai_xp(), n, barrier)
                .run(&cfg)
                .mean_us
        })
    };

    let fig = Figure::new(
        "fig6",
        "Fig. 6 — Barrier latency (µs), Myrinet LANai-XP, 8-node 2.4 GHz cluster",
        vec![
            Series::new("NIC-DS", curve(Barrier::Nic(Algorithm::Dissemination))),
            Series::new("NIC-PE", curve(Barrier::Nic(Algorithm::PairwiseExchange))),
            Series::new("Host-DS", curve(Barrier::Host(Algorithm::Dissemination))),
            Series::new("Host-PE", curve(Barrier::Host(Algorithm::PairwiseExchange))),
        ],
    )
    .with_manifest(Manifest::new(
        cfg.seed,
        format!(
            "gm lanai-xp, n=2..=8, warmup={}, iters={}, quick={}",
            cfg.warmup, cfg.iters, quick
        ),
    ));
    fig.print();
    // Quick (CI) sweeps must not downgrade the tracked full-fidelity
    // artifact.
    if !quick {
        fig.save().expect("write results/fig6.json");
    }

    let nic8 = fig.series[0].at(8).unwrap();
    let host8 = fig.series[2].at(8).unwrap();
    println!("\npaper anchors: NIC @8 = 14.20 µs (sim {nic8:.2}),");
    println!(
        "               improvement factor @8 = 2.64x (sim {:.2}x)",
        host8 / nic8
    );
}
