//! Figure 7: barrier implementations over Quadrics/Elan3, 2–8 nodes:
//! NIC-Barrier-DS, NIC-Barrier-PE (chained RDMA), Elan-Barrier
//! (`elan_gsync` tree, hardware broadcast disabled) and Elan-HW-Barrier
//! (`elan_hgsync`).
//!
//! Paper anchors: 5.60 µs NIC barrier at 8 nodes, 2.48× better than the
//! tree barrier; the hardware barrier sits flat near 4.2 µs and loses to
//! the NIC barrier at small node counts.
//!
//! Writes `results/fig7.json` (the figure) and `BENCH_fig7.json` at the
//! repo root (the perf trajectory: median + p99 per node count with the
//! run manifest embedded). `--quick` shrinks the sweep for CI smoke runs;
//! `--flight` adds a phase-breakdown capture.

use nicbar_bench::{
    engineprof, fig_args, parallel_sweep_map, trajectory, Figure, Manifest, Series,
};
use nicbar_core::{Algorithm, Barrier, BarrierStats, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_sim::EngineSel;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

/// Elanlib builds its software trees 4-ary (matching the quaternary fat
/// tree's natural branching).
const GSYNC_DEGREE: usize = 4;

fn main() {
    let args = fig_args();
    let (quick, flight, cfg) = (args.quick, args.flight, args.cfg);
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
    .with_manifest(manifest.clone());
    fig.print();
    // Quick (CI) sweeps refresh the BENCH trajectory below but must not
    // downgrade the tracked full-fidelity figure artifact.
    if !quick {
        fig.save().expect("write results/fig7.json");
    }

    let traj: Vec<(&str, Vec<trajectory::TrajectoryPoint>)> = sweeps
        .iter()
        .map(|(label, pts)| {
            (
                *label,
                pts.iter()
                    .map(|&(n, ref s)| trajectory::point(n, s))
                    .collect(),
            )
        })
        .collect();
    trajectory::save("fig7", &traj, &manifest).expect("write BENCH_fig7.json");

    let nic8 = fig.series[0].at(8).expect("NIC point at 8");
    let tree8 = fig.series[2].at(8).expect("tree point at 8");
    let hw8 = fig.series[3].at(8).expect("hw point at 8");
    println!("\npaper anchors: NIC @8 = 5.60 µs (sim {nic8:.2}),");
    println!(
        "               vs tree barrier = 2.48x (sim {:.2}x),",
        tree8 / nic8
    );
    println!("               hardware barrier = 4.20 µs (sim {hw8:.2})");

    // Opt-in flight recording: a short instrumented window at 8 nodes,
    // showing the chained-RDMA barrier's phase-by-phase latency.
    if flight {
        println!();
        let cap = Scenario::elan(ElanParams::elan3(), 8, DS).capture(&RunCfg {
            warmup: 2,
            iters: 8,
            ..RunCfg::default()
        });
        nicbar_bench::flight::print_breakdown(&cap);
    }

    // Opt-in engine self-profile of the 8-node chained-RDMA barrier on the
    // parallel engine.
    if args.prof {
        let shards = cfg.shards.max(2);
        let prof_cfg = RunCfg {
            engine: EngineSel::Parallel,
            shards,
            ..cfg
        };
        let mut sim = Scenario::elan(ElanParams::elan3(), 8, DS).build(&prof_cfg);
        if let Some((prof, wall_s)) = engineprof::profile_run(&mut sim) {
            println!();
            print!(
                "{}",
                engineprof::report(&prof, "fig7 NIC-Barrier-DS, 8 nodes", wall_s)
            );
        }
    }
}
