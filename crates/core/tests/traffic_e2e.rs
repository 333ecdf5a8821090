//! Interference tests: the group-queue bypass must keep the NIC barrier
//! robust against background traffic, while the ablated/direct/host paths
//! queue behind it (§6.1 made falsifiable).

use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario, TrafficCfg};
use nicbar_gm::{CollFeatures, GmParams};

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

/// The host-based dissemination baseline.
const HOST_DS: Barrier = Barrier::Host(Algorithm::Dissemination);

fn cfg() -> RunCfg {
    RunCfg {
        warmup: 10,
        iters: 150,
        ..RunCfg::default()
    }
}

fn traffic() -> TrafficCfg {
    TrafficCfg {
        msg_bytes: 4096,
        outstanding: 4,
    }
}

#[test]
fn barriers_complete_under_traffic_for_all_modes() {
    for n in [4usize, 8] {
        let nic = Scenario::gm(GmParams::lanai_xp(), n, DS)
            .with_traffic(traffic())
            .run(&cfg());
        let host = Scenario::gm(GmParams::lanai_xp(), n, HOST_DS)
            .with_traffic(traffic())
            .run(&cfg());
        assert!(nic.mean_us > 0.0 && host.mean_us > 0.0);
        // Bulk data actually flowed alongside the barriers.
        assert!(
            nic.counter("wire.data") > 100,
            "bulk stream did not run ({} data packets)",
            nic.counter("wire.data")
        );
    }
}

#[test]
fn group_queue_bypass_limits_the_slowdown() {
    let n = 8;
    let quiet = Scenario::gm(GmParams::lanai_xp(), n, DS).run(&cfg());
    let busy = Scenario::gm(GmParams::lanai_xp(), n, DS)
        .with_traffic(traffic())
        .run(&cfg());
    let quiet_host = Scenario::gm(GmParams::lanai_xp(), n, HOST_DS).run(&cfg());
    let busy_host = Scenario::gm(GmParams::lanai_xp(), n, HOST_DS)
        .with_traffic(traffic())
        .run(&cfg());
    let nic_slowdown = busy.mean_us / quiet.mean_us;
    let host_slowdown = busy_host.mean_us / quiet_host.mean_us;
    assert!(
        host_slowdown > nic_slowdown * 1.5,
        "host slowdown {host_slowdown:.2}x should dwarf NIC slowdown {nic_slowdown:.2}x"
    );
    assert!(
        nic_slowdown < 2.5,
        "group-queue bypass should keep NIC slowdown modest, got {nic_slowdown:.2}x"
    );
}

#[test]
fn direct_scheme_queues_behind_bulk_traffic() {
    let n = 8;
    let paper = Scenario::gm(GmParams::lanai_xp(), n, DS)
        .with_traffic(traffic())
        .run(&cfg());
    let direct = Scenario::gm(GmParams::lanai_xp(), n, DS)
        .with_features(CollFeatures::direct())
        .with_traffic(traffic())
        .run(&cfg());
    assert!(
        direct.mean_us > paper.mean_us * 1.3,
        "direct ({:.2}) should queue visibly behind bulk vs paper ({:.2})",
        direct.mean_us,
        paper.mean_us
    );
}

#[test]
fn traffic_runs_are_deterministic() {
    let run = || {
        Scenario::gm(GmParams::lanai_xp(), 8, DS)
            .with_traffic(traffic())
            .run(&cfg())
            .mean_us
    };
    assert_eq!(run(), run());
}
