//! Figure 5: NIC-based vs host-based barrier latency, 2–16 nodes, on the
//! LANai-9.1 / 700 MHz / 66 MHz-PCI cluster.
//!
//! Paper anchors: 25.72 µs NIC-based at 16 nodes; 3.38× improvement over
//! the host-based barrier; PE bumps above DS at non-powers of two.
//!
//! Writes `results/fig5.json` (the figure, mean latency per node count).
//! `--quick` shrinks the sweep for CI smoke runs and writes nothing;
//! `--shards K` runs every point on the parallel engine. The phase
//! breakdown of a NIC barrier is `flight`'s; the engine self-profile is
//! `engine_prof`'s.

use nicbar_bench::{fig_args, parallel_sweep_map, Figure, Manifest, Series};
use nicbar_core::{Algorithm, Barrier, BarrierStats, Scenario};
use nicbar_gm::GmParams;

fn main() {
    let args = fig_args(&[]);
    let (quick, cfg) = (args.quick, args.cfg);
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
    .with_manifest(manifest);
    fig.print();
    // Quick (CI) sweeps must not downgrade the tracked full-fidelity
    // figure artifact.
    if !quick {
        fig.save().expect("write results/fig5.json");
    }

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
}
