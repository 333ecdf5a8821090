//! Variance study: the paper reports "only negligible variations" across
//! random node permutations and observes stable averages over 10 000
//! iterations. This harness quantifies both for the simulated clusters:
//! mean ± spread across seeds/permutations, plus per-iteration jitter
//! within one run.

use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;

fn stats(samples: &[f64]) -> (f64, f64, f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0f64, f64::max);
    (mean, var.sqrt(), min, max)
}

fn main() {
    nicbar_bench::no_args();
    let n = 8;
    let seeds: Vec<u64> = (0..16).collect();

    println!("== Variance across 16 random node permutations, {n}-node DS barrier ==\n");
    let cfg = |seed| RunCfg {
        warmup: 20,
        iters: 300,
        seed,
        permute: true,
        ..RunCfg::default()
    };
    let ds = Barrier::Nic(Algorithm::Dissemination);
    for (name, scenario) in [
        (
            "Myrinet LANai-XP (NIC)",
            Scenario::gm(GmParams::lanai_xp(), n, ds),
        ),
        (
            "Quadrics Elan3 (NIC)",
            Scenario::elan(ElanParams::elan3(), n, ds),
        ),
    ] {
        let samples: Vec<f64> = seeds
            .iter()
            .map(|&s| scenario.run(&cfg(s)).mean_us)
            .collect();
        let (mean, sd, min, max) = stats(&samples);
        println!(
            "{name:<26} mean {mean:>6.2}µs  sd {sd:>5.3}  min {min:>6.2}  max {max:>6.2}  (cv {:.2}%)",
            sd / mean * 100.0
        );
    }

    println!("\n== Per-iteration jitter within one run (no skew, LANai-XP, NIC-DS) ==\n");
    let s = Scenario::gm(GmParams::lanai_xp(), n, ds).run(&RunCfg {
        warmup: 100,
        iters: 2000,
        ..RunCfg::default()
    });
    let (mean, sd, min, max) = stats(&s.per_iter_us);
    println!("mean {mean:.3}µs  sd {sd:.4}  min {min:.3}  max {max:.3}");
    println!("\nThe steady-state loop is deterministic: per-iteration spread collapses");
    println!("to (near) zero, matching the paper's observation that averaging 10 000");
    println!("iterations gives a stable number, and permutations move the mean only");
    println!("marginally on these symmetric topologies.");
}
