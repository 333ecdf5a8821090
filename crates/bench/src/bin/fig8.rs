//! Figure 8: scalability of the NIC-based barrier to 1024 nodes —
//! simulated dissemination barrier vs the paper's analytical model
//! `T = T_init + (⌈log₂N⌉−1)·T_trig + T_adj`, for both networks, plus a
//! least-squares refit of the model against the simulated sweep.
//!
//! Paper anchors: 22.13 µs (Quadrics) and 38.94 µs (Myrinet) at 1024.
//!
//! Shares the figure-binary CLI (`fig_args`): `--quick` sub-samples the
//! sweep for CI smoke runs, `--shards` runs it on the parallel engine (the
//! large points are where the sharded engine pays off).

use nicbar_bench::{fig_args, parallel_sweep, Figure, Manifest, Series};
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;
use nicbar_model::{fit, BarrierModel};

fn main() {
    let args = fig_args(&[]);
    let (quick, base) = (args.quick, args.cfg);
    let ns: Vec<usize> = if quick {
        vec![2, 4, 16, 64, 256, 1024]
    } else {
        vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    };
    // Large clusters are expensive per epoch; scale iterations down with n
    // (the simulated steady state is reached within a few epochs). The
    // quick config is already below the large-n budget.
    let cfg_for = |n: usize| -> RunCfg {
        if n <= 64 || quick {
            base.clone()
        } else {
            RunCfg {
                warmup: 20,
                iters: 200,
                ..base.clone()
            }
        }
    };

    let ds = Barrier::Nic(Algorithm::Dissemination);
    let quadrics_sim = parallel_sweep(&ns, |n| {
        Scenario::elan(ElanParams::elan3(), n, ds)
            .run(&cfg_for(n))
            .mean_us
    });
    let myrinet_sim = parallel_sweep(&ns, |n| {
        Scenario::gm(GmParams::lanai_xp(), n, ds)
            .run(&cfg_for(n))
            .mean_us
    });

    let q_paper = BarrierModel::paper_quadrics_elan3().predict_sweep(&ns);
    let m_paper = BarrierModel::paper_myrinet_xp().predict_sweep(&ns);
    let (q_fit, q_quality) = fit(&quadrics_sim);
    let (m_fit, m_quality) = fit(&myrinet_sim);

    let fig = Figure::new(
        "fig8",
        "Fig. 8 — Scalability of the NIC-based barrier (µs), model vs simulation",
        vec![
            Series::new("Quadrics (sim)", quadrics_sim.clone()),
            Series::new("Quadrics-Model (paper)", q_paper),
            Series::new("Quadrics-Model (refit)", q_fit.predict_sweep(&ns)),
            Series::new("Myrinet (sim)", myrinet_sim.clone()),
            Series::new("Myrinet-Model (paper)", m_paper),
            Series::new("Myrinet-Model (refit)", m_fit.predict_sweep(&ns)),
        ],
    )
    .with_manifest(Manifest::new(
        base.seed,
        format!(
            "elan3 + gm lanai-xp dissemination, n=2..=1024, iters scaled down past 64 nodes, quick={quick}"
        ),
    ));
    fig.print();
    // Quick (CI) sweeps must not downgrade the tracked full-fidelity
    // artifact.
    if !quick {
        fig.save().expect("write results/fig8.json");
    }

    println!(
        "\nrefit Quadrics: T = {:.2} + (ceil(log2 N)-1) * {:.2}   (RMSE {:.2} µs, R² {:.4})",
        q_fit.t_init, q_fit.t_trig, q_quality.rmse_us, q_quality.r_squared
    );
    println!(
        "refit Myrinet:  T = {:.2} + (ceil(log2 N)-1) * {:.2}   (RMSE {:.2} µs, R² {:.4})",
        m_fit.t_init, m_fit.t_trig, m_quality.rmse_us, m_quality.r_squared
    );
    println!(
        "\npaper anchors @1024: Quadrics 22.13 µs (sim {:.2}), Myrinet 38.94 µs (sim {:.2})",
        quadrics_sim.last().unwrap().1,
        myrinet_sim.last().unwrap().1
    );
}
