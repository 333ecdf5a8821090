//! End-to-end barrier tests across both substrates: correctness, packet
//! accounting, loss recovery, epoch overlap and determinism.

use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

/// The host-based dissemination baseline.
const HOST_DS: Barrier = Barrier::Host(Algorithm::Dissemination);

fn quick() -> RunCfg {
    RunCfg {
        warmup: 10,
        iters: 50,
        ..RunCfg::default()
    }
}

#[test]
fn gm_nic_barrier_completes_for_all_sizes_and_algorithms() {
    for n in [2usize, 3, 4, 6, 8, 12, 16] {
        for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
            let s = Scenario::gm(GmParams::lanai_xp(), n, Barrier::Nic(algo)).run(&quick());
            assert!(
                s.mean_us > 1.0 && s.mean_us < 100.0,
                "n={n} {algo:?}: {:.2}us",
                s.mean_us
            );
        }
    }
}

#[test]
fn gm_host_barrier_completes_and_is_slower_than_nic() {
    for n in [2usize, 4, 8, 16] {
        let host = Scenario::gm(GmParams::lanai_xp(), n, HOST_DS).run(&quick());
        let nic = Scenario::gm(GmParams::lanai_xp(), n, DS).run(&quick());
        assert!(
            nic.mean_us < host.mean_us,
            "n={n}: NIC {:.2}us !< host {:.2}us",
            nic.mean_us,
            host.mean_us
        );
    }
}

#[test]
fn nic_barrier_message_count_matches_schedule_and_has_no_acks() {
    // n=8 dissemination: 3 rounds × 8 ranks = 24 collective packets per
    // barrier, zero ACKs, zero data packets (the protocol claim of §6.3).
    let cfg = quick();
    let s = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg);
    let total = cfg.total();
    assert_eq!(s.counter("wire.coll"), 24 * total);
    assert_eq!(s.counter("wire.ack"), 0);
    assert_eq!(s.counter("wire.data"), 0);
    assert_eq!(s.counter("wire.coll_nack"), 0, "no NACKs without loss");
    assert!((s.wire_per_barrier - 24.0).abs() < 0.01);
}

#[test]
fn host_barrier_sends_twice_the_packets_of_nic_barrier() {
    // Host-based: 24 data + 24 ACKs per barrier. NIC-based: 24 collective
    // packets. "reduces the number of total packets by half" (§3).
    let cfg = quick();
    let host = Scenario::gm(GmParams::lanai_xp(), 8, HOST_DS).run(&cfg);
    let nic = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg);
    let ratio = host.wire_per_barrier / nic.wire_per_barrier;
    assert!(
        (1.9..2.1).contains(&ratio),
        "packet ratio {ratio:.2}, host {} vs nic {}",
        host.wire_per_barrier,
        nic.wire_per_barrier
    );
}

#[test]
fn nic_barrier_survives_packet_loss_via_nacks() {
    let cfg = RunCfg {
        warmup: 5,
        iters: 30,
        drop_prob: 0.02,
        ..RunCfg::default()
    };
    let s = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg);
    // It completed (stats_from_logs asserts every rank finished every
    // epoch) and the NACK machinery actually fired.
    assert!(
        s.counter("wire.coll_nack") > 0,
        "2% loss must trigger NACKs"
    );
    assert!(s.mean_us < 5_000.0, "mean {:.2}us", s.mean_us);
}

#[test]
fn nic_barrier_survives_heavy_loss() {
    let cfg = RunCfg {
        warmup: 2,
        iters: 10,
        drop_prob: 0.15,
        seed: 7,
        ..RunCfg::default()
    };
    let s = Scenario::gm(
        GmParams::lanai_xp(),
        6,
        Barrier::Nic(Algorithm::PairwiseExchange),
    )
    .run(&cfg);
    assert!(s.counter("wire.coll_nack") > 0);
}

#[test]
fn gm_runs_are_deterministic() {
    let a = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&quick());
    let b = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&quick());
    assert_eq!(a.mean_us, b.mean_us);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn random_permutation_changes_little() {
    // The paper: "we observed only negligible variations" across random
    // node permutations.
    let base = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&quick());
    let permuted = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&RunCfg {
        permute: true,
        ..quick()
    });
    let rel = (base.mean_us - permuted.mean_us).abs() / base.mean_us;
    assert!(
        rel < 0.15,
        "permutation shifted latency by {:.1}%",
        rel * 100.0
    );
}

#[test]
fn skewed_entry_still_synchronizes() {
    let cfg = RunCfg {
        warmup: 5,
        iters: 30,
        skew_us: 20.0,
        ..RunCfg::default()
    };
    let s = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg);
    // With up-to-20µs skew the mean must absorb the skew (it dominates).
    assert!(s.mean_us > 5.0 && s.mean_us < 100.0, "{:.2}us", s.mean_us);
}

#[test]
fn elan_nic_barrier_completes_for_all_sizes_and_algorithms() {
    for n in [2usize, 3, 4, 6, 8] {
        for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
            let s = Scenario::elan(ElanParams::elan3(), n, Barrier::Nic(algo)).run(&quick());
            assert!(
                s.mean_us > 1.0 && s.mean_us < 30.0,
                "n={n} {algo:?}: {:.2}us",
                s.mean_us
            );
        }
    }
}

#[test]
fn elan_nic_beats_gsync_tree() {
    let nic = Scenario::elan(ElanParams::elan3(), 8, DS).run(&quick());
    let tree = Scenario::elan(ElanParams::elan3(), 8, Barrier::Gsync(2)).run(&quick());
    assert!(
        nic.mean_us < tree.mean_us / 1.5,
        "NIC {:.2}us vs gsync {:.2}us — expected ≥1.5× gap",
        nic.mean_us,
        tree.mean_us
    );
    // The tree sends one gather up and one release down per non-root
    // rank: 2(n − 1) tport messages per barrier.
    assert_eq!(tree.counter("elan.tport_sent"), quick().total() * 2 * 7);
}

#[test]
fn elan_hw_barrier_crossover_with_nic_barrier() {
    // Fig. 7: the NIC barrier wins at small n; the flat hardware barrier
    // wins at n = 8.
    let nic2 = Scenario::elan(ElanParams::elan3(), 2, DS).run(&quick());
    let hw2 = Scenario::elan(ElanParams::elan3(), 2, Barrier::Hardware).run(&quick());
    let nic8 = Scenario::elan(ElanParams::elan3(), 8, DS).run(&quick());
    let hw8 = Scenario::elan(ElanParams::elan3(), 8, Barrier::Hardware).run(&quick());
    assert!(
        nic2.mean_us < hw2.mean_us,
        "at 2 nodes NIC ({:.2}) should beat hw ({:.2})",
        nic2.mean_us,
        hw2.mean_us
    );
    assert!(
        hw8.mean_us < nic8.mean_us,
        "at 8 nodes hw ({:.2}) should beat NIC ({:.2})",
        hw8.mean_us,
        nic8.mean_us
    );
}

#[test]
fn elan_runs_are_deterministic() {
    let a = Scenario::elan(
        ElanParams::elan3(),
        8,
        Barrier::Nic(Algorithm::PairwiseExchange),
    )
    .run(&quick());
    let b = Scenario::elan(
        ElanParams::elan3(),
        8,
        Barrier::Nic(Algorithm::PairwiseExchange),
    )
    .run(&quick());
    assert_eq!(a.mean_us, b.mean_us);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn elan_chain_wire_traffic_matches_schedule() {
    // 8-node dissemination: 3 RDMAs per rank per barrier, nothing else.
    let cfg = quick();
    let s = Scenario::elan(ElanParams::elan3(), 8, DS).run(&cfg);
    assert_eq!(s.counter("elan.wire"), 24 * cfg.total());
}
