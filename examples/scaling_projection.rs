//! The paper's §8.3 exercise end-to-end: sweep the NIC-based dissemination
//! barrier to 1024 nodes on both simulated interconnects, fit the
//! analytical model `T = T_init + (⌈log₂N⌉−1)·T_trig + T_adj` to the sweep,
//! and compare with the paper's fitted constants.
//!
//! ```text
//! cargo run --release --example scaling_projection
//! ```

use nicbar::core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar::elan::ElanParams;
use nicbar::gm::GmParams;
use nicbar::model::{fit, BarrierModel};

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

fn main() {
    let ns = [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let cfg = |n: usize| RunCfg {
        warmup: 10,
        iters: if n <= 64 { 300 } else { 100 },
        ..RunCfg::default()
    };

    println!("sweeping the NIC-based dissemination barrier to 1024 nodes...\n");
    let mut quadrics = Vec::new();
    let mut myrinet = Vec::new();
    for &n in &ns {
        let q = Scenario::elan(ElanParams::elan3(), n, DS).run(&cfg(n));
        let m = Scenario::gm(GmParams::lanai_xp(), n, DS).run(&cfg(n));
        quadrics.push((n, q.mean_us));
        myrinet.push((n, m.mean_us));
        println!(
            "  n={n:>5}: Quadrics {:>6.2} µs   Myrinet {:>6.2} µs",
            q.mean_us, m.mean_us
        );
    }

    let (qf, qq) = fit(&quadrics);
    let (mf, mq) = fit(&myrinet);
    let qp = BarrierModel::paper_quadrics_elan3();
    let mp = BarrierModel::paper_myrinet_xp();

    println!("\nfitted models (T = A + (⌈log₂N⌉−1)·T_trig, µs):");
    println!(
        "  Quadrics: A = {:.2}, T_trig = {:.2}  (R² {:.4})   paper: A = {:.2}, T_trig = {:.2}",
        qf.t_init,
        qf.t_trig,
        qq.r_squared,
        qp.t_init + qp.t_adj,
        qp.t_trig
    );
    println!(
        "  Myrinet:  A = {:.2}, T_trig = {:.2}  (R² {:.4})   paper: A = {:.2}, T_trig = {:.2}",
        mf.t_init,
        mf.t_trig,
        mq.r_squared,
        mp.t_init + mp.t_adj,
        mp.t_trig
    );
    println!(
        "\n1024-node latency: Quadrics {:.2} µs (paper model 22.13), Myrinet {:.2} µs (paper model 38.94)",
        quadrics.last().unwrap().1,
        myrinet.last().unwrap().1
    );
}
