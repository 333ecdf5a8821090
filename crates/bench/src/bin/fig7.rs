//! Figure 7: barrier implementations over Quadrics/Elan3, 2–8 nodes:
//! NIC-Barrier-DS, NIC-Barrier-PE (chained RDMA), Elan-Barrier
//! (`elan_gsync` tree, hardware broadcast disabled) and Elan-HW-Barrier
//! (`elan_hgsync`).
//!
//! Paper anchors: 5.60 µs NIC barrier at 8 nodes, 2.48× better than the
//! tree barrier; the hardware barrier sits flat near 4.2 µs and loses to
//! the NIC barrier at small node counts.
//!
//! Writes `results/fig7.json` (the figure). `--quick` shrinks the sweep
//! for CI smoke runs and writes nothing; `--shards K` runs the software
//! barriers on the parallel engine (the hardware barrier stays
//! sequential). The 8-node phase breakdown is
//! `flight --nodes 8 --elan-only`'s; the engine self-profile is
//! `engine_prof`'s.

use nicbar_bench::{fig_args, parallel_sweep_map, Figure, Manifest, Series};
use nicbar_core::{Algorithm, Barrier, BarrierStats, Scenario};
use nicbar_elan::ElanParams;

/// Elanlib builds its software trees 4-ary (matching the quaternary fat
/// tree's natural branching).
const GSYNC_DEGREE: usize = 4;

fn main() {
    let args = fig_args(&[]);
    let (quick, cfg) = (args.quick, args.cfg);
    let ns: Vec<usize> = if quick {
        vec![2, 4, 8]
    } else {
        (2..=8).collect()
    };

    let curve = |barrier: Barrier| -> Vec<(usize, BarrierStats)> {
        parallel_sweep_map(&ns, |n| {
            Scenario::elan(ElanParams::elan3(), n, barrier).run(&cfg)
        })
    };

    let sweeps: Vec<(&str, Vec<(usize, BarrierStats)>)> = vec![
        (
            "NIC-Barrier-DS",
            curve(Barrier::Nic(Algorithm::Dissemination)),
        ),
        (
            "NIC-Barrier-PE",
            curve(Barrier::Nic(Algorithm::PairwiseExchange)),
        ),
        ("Elan-Barrier", curve(Barrier::Gsync(GSYNC_DEGREE))),
        ("Elan-HW-Barrier", curve(Barrier::Hardware)),
    ];

    let manifest = Manifest::new(
        cfg.seed,
        format!(
            "elan3, n={}..={}, gsync_degree={}, warmup={}, iters={}, quick={}",
            ns.first().copied().unwrap_or(0),
            ns.last().copied().unwrap_or(0),
            GSYNC_DEGREE,
            cfg.warmup,
            cfg.iters,
            quick
        ),
    );

    let fig = Figure::new(
        "fig7",
        "Fig. 7 — Barrier latency (µs), Quadrics/Elan3, 8-node 700 MHz cluster",
        sweeps
            .iter()
            .map(|(label, pts)| {
                Series::new(
                    *label,
                    pts.iter().map(|&(n, ref s)| (n, s.mean_us)).collect(),
                )
            })
            .collect(),
    )
    .with_manifest(manifest);
    fig.print();
    // Quick (CI) sweeps must not downgrade the tracked full-fidelity
    // figure artifact.
    if !quick {
        fig.save().expect("write results/fig7.json");
    }

    let nic8 = fig.series[0].at(8).expect("NIC point at 8");
    let tree8 = fig.series[2].at(8).expect("tree point at 8");
    let hw8 = fig.series[3].at(8).expect("hw point at 8");
    println!("\npaper anchors: NIC @8 = 5.60 µs (sim {nic8:.2}),");
    println!(
        "               vs tree barrier = 2.48x (sim {:.2}x),",
        tree8 / nic8
    );
    println!("               hardware barrier = 4.20 µs (sim {hw8:.2})");
}
