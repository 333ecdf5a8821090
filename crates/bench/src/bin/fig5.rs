//! Figure 5: NIC-based vs host-based barrier latency, 2–16 nodes, on the
//! LANai-9.1 / 700 MHz / 66 MHz-PCI cluster.
//!
//! Paper anchors: 25.72 µs NIC-based at 16 nodes; 3.38× improvement over
//! the host-based barrier; PE bumps above DS at non-powers of two.
//!
//! Writes `results/fig5.json` (the figure, mean latency per node count)
//! and `BENCH_fig5.json` at the repo root (the perf trajectory: median +
//! p99 per node count with the run manifest embedded). `--quick` shrinks
//! the sweep for CI smoke runs; `--flight` adds a phase-breakdown capture.

use nicbar_bench::{
    engineprof, fig_args, parallel_sweep_map, trajectory, Figure, Manifest, Series,
};
use nicbar_core::{Algorithm, Barrier, BarrierStats, RunCfg, Scenario};
use nicbar_gm::GmParams;
use nicbar_sim::EngineSel;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

fn main() {
    let args = fig_args();
    let (quick, flight, cfg) = (args.quick, args.flight, args.cfg);
    let ns: Vec<usize> = if quick {
        vec![2, 4, 8, 16]
    } else {
        (2..=16).collect()
    };

    let curve = |barrier: Barrier| -> Vec<(usize, BarrierStats)> {
        parallel_sweep_map(&ns, |n| {
            Scenario::gm(GmParams::lanai_9_1(), n, barrier).run(&cfg)
        })
    };

    let sweeps: Vec<(&str, Vec<(usize, BarrierStats)>)> = vec![
        ("NIC-DS", curve(Barrier::Nic(Algorithm::Dissemination))),
        ("NIC-PE", curve(Barrier::Nic(Algorithm::PairwiseExchange))),
        ("Host-DS", curve(Barrier::Host(Algorithm::Dissemination))),
        ("Host-PE", curve(Barrier::Host(Algorithm::PairwiseExchange))),
    ];

    let manifest = Manifest::new(
        cfg.seed,
        format!(
            "gm lanai-9.1, n={}..={}, warmup={}, iters={}, quick={}",
            ns.first().copied().unwrap_or(0),
            ns.last().copied().unwrap_or(0),
            cfg.warmup,
            cfg.iters,
            quick
        ),
    );

    let fig = Figure::new(
        "fig5",
        "Fig. 5 — Barrier latency (µs), Myrinet LANai-9.1, 16-node 700 MHz cluster",
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
        fig.save().expect("write results/fig5.json");
    }

    // The tracked perf trajectory: median + p99 per node count.
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
    trajectory::save("fig5", &traj, &manifest).expect("write BENCH_fig5.json");

    let top = *ns.last().expect("non-empty sweep");
    let nic16 = fig.series[0].at(top).expect("NIC point at top n");
    let host16 = fig.series[2].at(top).expect("host point at top n");
    if top == 16 {
        println!("\npaper anchors: NIC @16 = 25.72 µs (sim {nic16:.2}),");
        println!(
            "               improvement factor @16 = 3.38x (sim {:.2}x)",
            host16 / nic16
        );
    }

    // Opt-in flight recording: a short instrumented window at the top node
    // count, showing where the NIC barrier's latency goes phase by phase.
    if flight {
        println!();
        let cap = Scenario::gm(GmParams::lanai_9_1(), top, DS).capture(&RunCfg {
            warmup: 2,
            iters: 8,
            ..RunCfg::default()
        });
        nicbar_bench::flight::print_breakdown(&cap);
    }

    // Opt-in engine self-profile: rerun the top point on the parallel
    // engine with the shard profiler armed and explain where the engine's
    // own wall time went.
    if args.prof {
        let shards = cfg.shards.max(2);
        let prof_cfg = RunCfg {
            engine: EngineSel::Parallel,
            shards,
            ..cfg.clone()
        };
        let mut sim = Scenario::gm(GmParams::lanai_9_1(), top, DS).build(&prof_cfg);
        if let Some((prof, wall_s)) = engineprof::profile_run(&mut sim) {
            println!();
            print!(
                "{}",
                engineprof::report(&prof, &format!("fig5 NIC-DS, {top} nodes"), wall_s)
            );
        }
    }
}
