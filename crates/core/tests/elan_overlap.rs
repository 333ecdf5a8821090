//! Stress tests for the chained-RDMA barrier's epoch banking: heavily
//! skewed processes race each other across consecutive barriers, and the
//! auto-rearming NIC event counters must bank every early arrival.

use nicbar_core::elan_chain::build_chains;
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_net::NodeId;

#[test]
fn skewed_chains_never_lose_epochs() {
    // Large random skew (up to 40 µs — ~7 barrier latencies) across many
    // epochs: safety is asserted inside the driver, and completion of all
    // epochs is liveness.
    for seed in [1u64, 2, 3] {
        for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
            let cfg = RunCfg {
                warmup: 5,
                iters: 100,
                seed,
                skew_us: 40.0,
                ..RunCfg::default()
            };
            let s = Scenario::elan(ElanParams::elan3(), 7, Barrier::Nic(algo)).run(&cfg);
            // With that much skew, the mean tracks the skew, not the wire.
            assert!(
                s.mean_us > 10.0,
                "skew should dominate, got {:.2}",
                s.mean_us
            );
        }
    }
}

#[test]
fn one_laggard_gates_everyone() {
    // One process enters each barrier ~30 µs late (modeled by giving every
    // process random skew but checking the global latency tracks the max):
    // per-iteration latency must never drop below the barrier's own cost,
    // and the max per-iteration must be ≥ the skew bound's tail.
    let cfg = RunCfg {
        warmup: 5,
        iters: 200,
        seed: 9,
        skew_us: 30.0,
        ..RunCfg::default()
    };
    let s = Scenario::elan(
        ElanParams::elan3(),
        8,
        Barrier::Nic(Algorithm::Dissemination),
    )
    .run(&cfg);
    // Expected per-iteration ≈ E[max of 8 U(0,30)] ≈ 26.7 plus barrier cost.
    assert!(
        s.mean_us > 20.0 && s.mean_us < 45.0,
        "mean {:.2} inconsistent with max-of-uniform skew",
        s.mean_us
    );
    assert!(
        s.max_us() <= 30.0 + 20.0,
        "max {:.2} implausible",
        s.max_us()
    );
}

#[test]
fn chain_event_thresholds_sum_to_schedule_totals() {
    // Conservation: per rank, the per-epoch event sets must equal
    // (host entry) + (own descriptors fired) + (arrivals) — otherwise a
    // counter would drift across epochs and eventually wedge.
    for n in [2usize, 3, 5, 6, 8, 16] {
        for algo in [
            Algorithm::Dissemination,
            Algorithm::PairwiseExchange,
            Algorithm::GatherBroadcast { degree: 4 },
        ] {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let programs = build_chains(algo, &members);
            // Arrivals at rank r = descriptors across all ranks targeting r.
            let mut arrivals = vec![0u64; n];
            for p in &programs {
                for d in &p.descs {
                    arrivals[d.dst.0] += 1;
                }
            }
            for (rank, p) in programs.iter().enumerate() {
                let threshold_sum: u64 = p.events.iter().map(|e| e.rearm).sum();
                let local_sets = 1 /* host entry */ + p.descs.len() as u64;
                assert_eq!(
                    threshold_sum,
                    local_sets + arrivals[rank],
                    "rank {rank} (n={n}, {algo:?}): thresholds drift from set sources"
                );
            }
        }
    }
}
