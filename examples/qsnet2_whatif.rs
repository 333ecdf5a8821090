//! The §9 what-if: how does the chained-RDMA barrier scale on QsNet-II
//! (Elan4) hardware? The paper could not run this ("As QsNet-II … become
//! available to us, we are planning to investigate"); the simulated
//! substrate can. Compares Elan3 measurements with the Elan4 projection
//! preset across cluster sizes.
//!
//! ```text
//! cargo run --release --example qsnet2_whatif
//! ```

use nicbar::core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar::elan::ElanParams;
use nicbar::model::fit;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

fn main() {
    let ns = [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let cfg = |n: usize| RunCfg {
        warmup: 10,
        iters: if n <= 64 { 300 } else { 100 },
        ..RunCfg::default()
    };

    println!("NIC-based dissemination barrier: Elan3 (calibrated) vs Elan4 (projection)\n");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "nodes", "Elan3 (µs)", "Elan4 (µs)", "speedup"
    );
    let mut e3_pts = Vec::new();
    let mut e4_pts = Vec::new();
    for &n in &ns {
        let e3 = Scenario::elan(ElanParams::elan3(), n, DS)
            .run(&cfg(n))
            .mean_us;
        let e4 = Scenario::elan(ElanParams::elan4_projection(), n, DS)
            .run(&cfg(n))
            .mean_us;
        println!("{n:>6} {e3:>12.2} {e4:>12.2} {:>8.2}x", e3 / e4);
        e3_pts.push((n, e3));
        e4_pts.push((n, e4));
    }

    let (m3, _) = fit(&e3_pts);
    let (m4, _) = fit(&e4_pts);
    println!(
        "\nfitted per-round trigger cost: Elan3 {:.2} µs → Elan4 {:.2} µs",
        m3.t_trig, m4.t_trig
    );
    println!("The chained-descriptor design carries over unchanged: the speedup is");
    println!("pure hardware (faster event processor + links), with the same");
    println!("⌈log₂N⌉ scaling shape — the accommodation §9 hoped for.");
}
