//! Algorithm comparison (§5.2): "the gather-broadcast algorithm requires
//! more steps for a barrier operation … the pairwise-exchange algorithm
//! generally performs better than the gather-broadcast algorithm. Thus …
//! we have chosen to implement and compare the pairwise-exchange and
//! dissemination algorithms."
//!
//! This harness runs all three NIC-based algorithms (plus GB at two tree
//! degrees) on both substrates so §5.2's dismissal is reproducible.
//!
//! Shares the figure-binary CLI (`fig_args`): `--quick` shrinks the sweep
//! for CI smoke runs, `--shards` runs it on the parallel engine.

use nicbar_bench::{fig_args, parallel_sweep, Figure, Manifest, Series};
use nicbar_core::{Algorithm, Barrier, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;

fn main() {
    let args = fig_args(&[]);
    let (quick, cfg) = (args.quick, args.cfg);
    // Keep a non-power-of-two point under --quick: that is where DS and PE
    // diverge and GB's tree shape matters.
    let ns: Vec<usize> = if quick {
        vec![2, 5, 8, 16]
    } else {
        (2..=16).collect()
    };

    let algos = [
        ("DS", Algorithm::Dissemination),
        ("PE", Algorithm::PairwiseExchange),
        ("GB-2", Algorithm::GatherBroadcast { degree: 2 }),
        ("GB-4", Algorithm::GatherBroadcast { degree: 4 }),
    ];

    let gm_series: Vec<Series> = algos
        .iter()
        .map(|&(label, algo)| {
            Series::new(
                label,
                parallel_sweep(&ns, |n| {
                    Scenario::gm(GmParams::lanai_xp(), n, Barrier::Nic(algo))
                        .run(&cfg)
                        .mean_us
                }),
            )
        })
        .collect();
    let fig = Figure::new(
        "algo_compare_gm",
        "§5.2 — NIC-based barrier algorithms, Myrinet LANai-XP (µs)",
        gm_series,
    )
    .with_manifest(Manifest::new(
        cfg.seed,
        format!(
            "gm lanai-xp, n=2..=16, warmup={}, iters={}, quick={}",
            cfg.warmup, cfg.iters, quick
        ),
    ));
    fig.print();
    // Quick (CI) sweeps must not downgrade the tracked full-fidelity
    // artifacts.
    if !quick {
        fig.save().expect("write results/algo_compare_gm.json");
    }

    let elan_series: Vec<Series> = algos
        .iter()
        .map(|&(label, algo)| {
            Series::new(
                label,
                parallel_sweep(&ns, |n| {
                    Scenario::elan(ElanParams::elan3(), n, Barrier::Nic(algo))
                        .run(&cfg)
                        .mean_us
                }),
            )
        })
        .collect();
    let fig = Figure::new(
        "algo_compare_elan",
        "§5.2 — NIC-based barrier algorithms, Quadrics Elan3 (µs)",
        elan_series,
    )
    .with_manifest(Manifest::new(
        cfg.seed,
        format!(
            "elan3, n=2..=16, warmup={}, iters={}, quick={}",
            cfg.warmup, cfg.iters, quick
        ),
    ));
    fig.print();
    if !quick {
        fig.save().expect("write results/algo_compare_elan.json");
    }

    println!("\nGather-broadcast pays ~2× the rounds (up the tree and back down);");
    println!("DS and PE coincide at powers of two, with PE's pre/post penalty at");
    println!("other sizes — the paper's §5.2 reasoning, measured.");
}
