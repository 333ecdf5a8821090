//! Every benchmark-app path a `Scenario` builds, pinned byte for byte.
//!
//! Each row runs one app path (the closed loop with and without compute
//! skew, the NIC and host barriers with and without the bulk stream, the
//! Elanlib and NIC-thread comparators) and pins a 64-bit FNV-1a digest of
//! its [`FlightData::witness`]: span records, closed spans, histograms,
//! statistics, causal packet records and the occupancy ledger. A change to
//! how an app enters, re-enters, streams or logs moves the digest.
//!
//! The permuted-placement traffic runs check that the bulk stream goes to
//! the node hosting the next rank, never back to its own node.

use nicbar::core::traffic::{BarrierUnderTrafficApp, TrafficCfg};
use nicbar::core::{
    Algorithm, Barrier, BarrierStats, FlightData, GroupSpec, PaperCollective, ReduceOp, RunCfg,
    Scenario, BARRIER_GROUP,
};
use nicbar::elan::ElanParams;
use nicbar::gm::{CollFeatures, GmApp, GmCluster, GmClusterSpec, GmParams, NicCollective};
use nicbar::net::NodeId;
use nicbar::sim::{RunOutcome, SimTime};
use std::sync::Arc;

const DS: Algorithm = Algorithm::Dissemination;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn cfg(permute: bool, skew_us: f64) -> RunCfg {
    RunCfg {
        warmup: 3,
        iters: 12,
        seed: 5,
        skew_us,
        permute,
        ..RunCfg::default()
    }
}

fn allreduce_operand(rank: usize, epoch: u64) -> u64 {
    rank as u64 * 100 + epoch
}

/// `(label, scenario, run configuration, witness digest)`.
fn rows() -> Vec<(&'static str, Scenario, RunCfg, u64)> {
    let xp = GmParams::lanai_xp;
    let elan3 = ElanParams::elan3;
    let bulk = TrafficCfg::default();
    vec![
        (
            "gm nic ds permuted skew 3",
            Scenario::gm(xp(), 8, Barrier::Nic(DS)),
            cfg(true, 3.0),
            0x169e_f132_57b9_35db,
        ),
        (
            "gm host ds permuted skew 3",
            Scenario::gm(xp(), 8, Barrier::Host(DS)),
            cfg(true, 3.0),
            0x8b45_eccc_0eb0_45b4,
        ),
        (
            "gm lanai-9.1 host pe 6 nodes skew 2",
            Scenario::gm(
                GmParams::lanai_9_1(),
                6,
                Barrier::Host(Algorithm::PairwiseExchange),
            ),
            cfg(false, 2.0),
            0x2d96_e829_f514_292b,
        ),
        (
            "gm nic traffic skew 3",
            Scenario::gm(xp(), 8, Barrier::Nic(DS)).with_traffic(bulk),
            cfg(false, 3.0),
            0x0fe0_23fc_5918_122b,
        ),
        (
            "gm host traffic",
            Scenario::gm(xp(), 8, Barrier::Host(DS)).with_traffic(bulk),
            cfg(false, 0.0),
            0x207c_ce70_ac18_5275,
        ),
        (
            "gm three groups traffic skew 2",
            Scenario::gm(xp(), 8, Barrier::Nic(DS))
                .with_groups(3)
                .with_traffic(bulk),
            cfg(false, 2.0),
            0xb3b0_5d2e_0bfe_f881,
        ),
        (
            "elan nic permuted skew 3",
            Scenario::elan(elan3(), 8, Barrier::Nic(DS)),
            cfg(true, 3.0),
            0x9700_2ad7_d147_2d76,
        ),
        (
            "elan nic traffic skew 3",
            Scenario::elan(elan3(), 8, Barrier::Nic(DS)).with_traffic(bulk),
            cfg(false, 3.0),
            0x47da_24e2_ee1c_2327,
        ),
        (
            "elan two groups traffic skew 1",
            Scenario::elan(elan3(), 8, Barrier::Nic(DS))
                .with_groups(2)
                .with_traffic(bulk),
            cfg(false, 1.0),
            0x6c4e_f7e1_2f7b_b80a,
        ),
        (
            "elan gsync degree 4 permuted skew 3",
            Scenario::elan(elan3(), 8, Barrier::Gsync(4)),
            cfg(true, 3.0),
            0x9f8a_2812_0b5f_32ba,
        ),
        (
            "elan hardware skew 3",
            Scenario::elan(elan3(), 8, Barrier::Hardware),
            cfg(false, 3.0),
            0x3bb3_db8f_addb_5ec0,
        ),
        (
            "elan thread barrier permuted",
            Scenario::elan(elan3(), 8, Barrier::ThreadBarrier),
            cfg(true, 0.0),
            0x3c0f_e06a_82b5_3dc1,
        ),
        (
            "elan thread allreduce sum permuted",
            Scenario::elan(
                elan3(),
                8,
                Barrier::ThreadAllreduce(ReduceOp::Sum, allreduce_operand),
            ),
            cfg(true, 0.0),
            0x5186_74f1_3d2a_f06f,
        ),
    ]
}

#[test]
fn every_app_path_reproduces_its_pinned_capture() {
    let mut moved = Vec::new();
    for (label, scenario, cfg, want) in rows() {
        let got = fnv1a(scenario.capture(&cfg).witness().as_bytes());
        if got != want {
            moved.push(format!("{label}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(moved.is_empty(), "captures moved:\n{}", moved.join("\n"));
}

/// Run a traffic cluster the way `Scenario` drains one: 1 ms windows until
/// every rank has logged `total` completions.
fn drain_traffic(cluster: &mut GmCluster, n: usize, total: usize) {
    let log_len =
        |c: &GmCluster, i: usize| c.app_ref::<BarrierUnderTrafficApp>(i).log.completions.len();
    while (0..n).any(|i| log_len(cluster, i) < total) {
        let e = &mut cluster.engine;
        let outcome = e.run_bounded(e.now() + SimTime::from_us(1_000.0), 50_000_000);
        assert_ne!(outcome, RunOutcome::BudgetExhausted);
    }
}

/// `BarrierUnderTrafficApp::nic` on a cluster built the way the benchmark
/// builds its traffic workload: identity placement, the paper's protocol
/// features, one dissemination group per rank.
fn shim_run(n: usize, cfg: &RunCfg) -> (Vec<(String, u64)>, Vec<f64>) {
    let params = GmParams::lanai_xp();
    let timeout = params.coll_timeout;
    let spec = GmClusterSpec::new(params, n)
        .with_seed(cfg.seed)
        .with_drop_prob(cfg.drop_prob)
        .with_features(CollFeatures::paper());
    let members: Arc<[NodeId]> = (0..n).map(NodeId).collect();
    let total = cfg.total();
    let apps = (0..n)
        .map(|rank| {
            Box::new(BarrierUnderTrafficApp::nic(
                rank,
                n,
                total,
                TrafficCfg::default(),
            )) as Box<dyn GmApp>
        })
        .collect();
    let colls = (0..n)
        .map(|rank| {
            let group = GroupSpec::barrier(BARRIER_GROUP, members.clone(), rank, DS, timeout);
            Box::new(PaperCollective::new(NodeId(rank), vec![group])) as Box<dyn NicCollective>
        })
        .collect();
    let mut cluster = GmCluster::build(spec, apps, colls);
    let total = usize::try_from(total).expect("epochs fit usize");
    drain_traffic(&mut cluster, n, total);
    let counters = cluster
        .engine
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    // Global completion of epoch k is the last rank's; the measured window
    // starts after the warm-up.
    let global: Vec<SimTime> = (0..total)
        .map(|k| {
            (0..n)
                .map(|i| cluster.app_ref::<BarrierUnderTrafficApp>(i).log.completions[k])
                .max()
                .expect("n >= 1")
        })
        .collect();
    let warmup = usize::try_from(cfg.warmup).expect("warm-up fits usize");
    let per_iter = (warmup..total)
        .map(|k| (global[k] - global[k - 1]).as_us())
        .collect();
    (counters, per_iter)
}

#[test]
fn the_benchmark_traffic_app_is_the_one_group_scenario_run() {
    for drop_prob in [0.0, 1e-3] {
        let cfg = RunCfg {
            warmup: 3,
            iters: 40,
            seed: 9,
            drop_prob,
            ..RunCfg::default()
        };
        let scenario: BarrierStats = Scenario::gm(GmParams::lanai_xp(), 16, Barrier::Nic(DS))
            .with_traffic(TrafficCfg::default())
            .run(&cfg);
        let (counters, per_iter) = shim_run(16, &cfg);
        assert_eq!(counters, scenario.counters, "counters at loss {drop_prob}");
        assert_eq!(
            per_iter, scenario.per_iter_us,
            "latencies at loss {drop_prob}"
        );
    }
}

/// An 8-node NIC barrier under the default bulk stream on a seeded
/// permutation.
fn permuted_traffic(scenario: Scenario, seed: u64, shards: usize) -> FlightData {
    let cfg = RunCfg {
        warmup: 2,
        iters: 6,
        seed,
        permute: true,
        shards,
        ..RunCfg::default()
    };
    scenario.with_traffic(TrafficCfg::default()).capture(&cfg)
}

#[test]
fn permuted_traffic_runs_stream_to_the_next_rank_s_node() {
    let nic = Barrier::Nic(DS);
    for scenario in [
        Scenario::gm(GmParams::lanai_xp(), 8, nic),
        Scenario::elan(ElanParams::elan3(), 8, nic),
    ] {
        for seed in 0..20 {
            let flight = permuted_traffic(scenario.clone(), seed, 1);
            assert!(flight.stats.mean_us > 0.0, "seed {seed}");
        }
        // Seed 0 is among the placements where some rank r sits on node
        // r + 1, so a ring in node-id space would loop that node back to
        // itself; its 2-shard run must match the sequential one.
        let seq = permuted_traffic(scenario.clone(), 0, 1);
        let par = permuted_traffic(scenario, 0, 2);
        if let Some(at) = seq.divergence(&par) {
            panic!("permuted traffic run diverges on 2 shards: {at}");
        }
    }
}
