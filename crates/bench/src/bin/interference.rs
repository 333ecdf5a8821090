//! Interference bench (extension): barrier latency under background bulk
//! traffic, across traffic intensities — the quantified version of §6.1's
//! queuing argument. Compares the paper protocol, the direct scheme and
//! the host-based barrier on the LANai-XP cluster.

use nicbar_bench::{Figure, Manifest, Series};
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario, TrafficCfg};
use nicbar_gm::{CollFeatures, GmParams};

fn main() {
    nicbar_bench::no_args();
    let n = 8;
    let cfg = RunCfg {
        warmup: 20,
        iters: 500,
        ..RunCfg::default()
    };
    let loads: Vec<usize> = vec![0, 1, 2, 4, 8];

    let ds = Algorithm::Dissemination;
    let xp = |barrier| Scenario::gm(GmParams::lanai_xp(), n, barrier);
    // Zero bulk messages in flight is the plain closed-loop barrier.
    let series = |scenario: Scenario| -> Vec<(usize, f64)> {
        loads
            .iter()
            .map(|&o| {
                let traffic = TrafficCfg {
                    msg_bytes: 4096,
                    outstanding: o as u32,
                };
                let s = if o == 0 {
                    scenario.clone()
                } else {
                    scenario.clone().with_traffic(traffic)
                };
                (o, s.run(&cfg).mean_us)
            })
            .collect()
    };

    let fig = Figure::new(
        "interference",
        "Interference — 8-node barrier latency (µs) vs bulk messages in flight per process",
        vec![
            Series::new("NIC (paper)", series(xp(Barrier::Nic(ds)))),
            Series::new(
                "NIC (direct)",
                series(xp(Barrier::Nic(ds)).with_features(CollFeatures::direct())),
            ),
            Series::new("Host-based", series(xp(Barrier::Host(ds)))),
        ],
    )
    .with_manifest(Manifest::new(
        cfg.seed,
        format!(
            "gm lanai-xp, n={n}, loads=0..=8, warmup={}, iters={}",
            cfg.warmup, cfg.iters
        ),
    ));
    fig.print();
    fig.save().expect("write results/interference.json");

    let nic0 = fig.series[0].at(0).unwrap();
    let nic8 = fig.series[0].at(8).unwrap();
    let host0 = fig.series[2].at(0).unwrap();
    let host8 = fig.series[2].at(8).unwrap();
    println!(
        "\nslowdown at 8 in-flight: NIC (paper) {:.2}x, host-based {:.2}x",
        nic8 / nic0,
        host8 / host0
    );
}
