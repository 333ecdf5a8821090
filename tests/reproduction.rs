//! Regression tests for the paper's headline results: these pin the
//! reproduced numbers (within tolerance bands) so calibration drift is
//! caught. Paper anchors from the abstract and §8.

use nicbar::core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar::elan::ElanParams;
use nicbar::gm::{CollFeatures, GmParams};

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

/// The host-based dissemination baseline.
const HOST_DS: Barrier = Barrier::Host(Algorithm::Dissemination);

fn cfg() -> RunCfg {
    RunCfg {
        warmup: 50,
        iters: 500,
        ..RunCfg::default()
    }
}

fn within(value: f64, target: f64, tol_frac: f64) -> bool {
    (value - target).abs() <= target * tol_frac
}

#[test]
fn quadrics_8_node_nic_barrier_near_5_60us() {
    let s = Scenario::elan(ElanParams::elan3(), 8, DS).run(&cfg());
    assert!(
        within(s.mean_us, 5.60, 0.15),
        "Quadrics NIC barrier @8 = {:.2}µs (paper 5.60)",
        s.mean_us
    );
}

#[test]
fn quadrics_improvement_over_tree_barrier_near_2_48x() {
    let nic = Scenario::elan(ElanParams::elan3(), 8, DS).run(&cfg());
    let tree = Scenario::elan(ElanParams::elan3(), 8, Barrier::Gsync(4)).run(&cfg());
    let factor = tree.mean_us / nic.mean_us;
    assert!(
        within(factor, 2.48, 0.20),
        "Quadrics improvement factor = {factor:.2} (paper 2.48)"
    );
}

#[test]
fn quadrics_hw_barrier_near_4_20us_and_flat() {
    let hw8 = Scenario::elan(ElanParams::elan3(), 8, Barrier::Hardware).run(&cfg());
    assert!(
        within(hw8.mean_us, 4.20, 0.10),
        "hw barrier @8 = {:.2}µs (paper 4.20)",
        hw8.mean_us
    );
    let hw2 = Scenario::elan(ElanParams::elan3(), 2, Barrier::Hardware).run(&cfg());
    assert!(
        (hw8.mean_us - hw2.mean_us).abs() < 1.0,
        "hw barrier should be nearly flat: {:.2} vs {:.2}",
        hw2.mean_us,
        hw8.mean_us
    );
}

#[test]
fn myrinet_xp_8_node_nic_barrier_near_14_20us() {
    let s = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg());
    assert!(
        within(s.mean_us, 14.20, 0.15),
        "XP NIC barrier @8 = {:.2}µs (paper 14.20)",
        s.mean_us
    );
}

#[test]
fn myrinet_xp_improvement_near_2_64x() {
    let nic = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg());
    let host = Scenario::gm(GmParams::lanai_xp(), 8, HOST_DS).run(&cfg());
    let factor = host.mean_us / nic.mean_us;
    assert!(
        within(factor, 2.64, 0.15),
        "XP improvement factor = {factor:.2} (paper 2.64)"
    );
}

#[test]
fn myrinet_91_16_node_nic_barrier_near_25_72us() {
    let s = Scenario::gm(GmParams::lanai_9_1(), 16, DS).run(&cfg());
    assert!(
        within(s.mean_us, 25.72, 0.15),
        "9.1 NIC barrier @16 = {:.2}µs (paper 25.72)",
        s.mean_us
    );
}

#[test]
fn myrinet_91_improvement_near_3_38x() {
    let nic = Scenario::gm(GmParams::lanai_9_1(), 16, DS).run(&cfg());
    let host = Scenario::gm(GmParams::lanai_9_1(), 16, HOST_DS).run(&cfg());
    let factor = host.mean_us / nic.mean_us;
    assert!(
        within(factor, 3.38, 0.15),
        "9.1 improvement factor = {factor:.2} (paper 3.38)"
    );
}

#[test]
fn direct_scheme_improvement_near_1_86x() {
    // §8.1: the earlier direct NIC-based scheme achieved 1.86× on the same
    // cluster — the gap to 3.38× is the value of the separate protocol.
    let direct = Scenario::gm(GmParams::lanai_9_1(), 16, DS)
        .with_features(CollFeatures::direct())
        .run(&cfg());
    let host = Scenario::gm(GmParams::lanai_9_1(), 16, HOST_DS).run(&cfg());
    let factor = host.mean_us / direct.mean_us;
    assert!(
        within(factor, 1.86, 0.20),
        "direct-scheme factor = {factor:.2} (paper 1.86)"
    );
}

#[test]
fn thousand_node_projections_have_the_right_magnitude() {
    let big = RunCfg {
        warmup: 10,
        iters: 100,
        ..RunCfg::default()
    };
    let q = Scenario::elan(ElanParams::elan3(), 1024, DS).run(&big);
    let m = Scenario::gm(GmParams::lanai_xp(), 1024, DS).run(&big);
    // Paper model: 22.13 and 38.94 µs. The simulation adds real hop growth
    // and NIC serialization the closed-form model ignores, so the band is
    // wider — but the magnitude and the Quadrics < Myrinet ordering must
    // hold.
    assert!(
        (14.0..30.0).contains(&q.mean_us),
        "Quadrics @1024 = {:.2}µs (paper model 22.13)",
        q.mean_us
    );
    assert!(
        (31.0..56.0).contains(&m.mean_us),
        "Myrinet @1024 = {:.2}µs (paper model 38.94)",
        m.mean_us
    );
    assert!(q.mean_us < m.mean_us);
}

#[test]
fn thousand_node_dissemination_matches_the_log2_staircase_model() {
    // EXPERIMENTS.md refits the paper's `T = A + (⌈log₂N⌉−1)·T_trig` to
    // the simulated 2–1024 sweeps: Quadrics A=2.72, T_trig=1.59; Myrinet
    // A=5.01, T_trig=4.67 (both R² > 0.99). The 1024-node point must stay
    // on those staircases — this is the scalability regression gate.
    let big = RunCfg {
        warmup: 10,
        iters: 100,
        ..RunCfg::default()
    };
    let refit_quadrics = nicbar::model::BarrierModel {
        t_init: 2.72,
        t_trig: 1.59,
        t_adj: 0.0,
    };
    let refit_myrinet = nicbar::model::BarrierModel {
        t_init: 5.01,
        t_trig: 4.67,
        t_adj: 0.0,
    };
    let q = Scenario::elan(ElanParams::elan3(), 1024, DS).run(&big);
    assert!(
        within(q.mean_us, refit_quadrics.predict(1024), 0.10),
        "Quadrics @1024 = {:.2}µs vs staircase model {:.2}µs",
        q.mean_us,
        refit_quadrics.predict(1024)
    );
    let m = Scenario::gm(GmParams::lanai_xp(), 1024, DS).run(&big);
    assert!(
        within(m.mean_us, refit_myrinet.predict(1024), 0.10),
        "Myrinet @1024 = {:.2}µs vs staircase model {:.2}µs",
        m.mean_us,
        refit_myrinet.predict(1024)
    );
}

#[test]
fn pe_is_bumpy_at_non_powers_of_two_on_myrinet() {
    // §8.1: "The pairwise-exchange algorithm tends to have a larger latency
    // over non-power of two number of nodes for the extra step it takes."
    let pe6 = Scenario::gm(
        GmParams::lanai_xp(),
        6,
        Barrier::Nic(Algorithm::PairwiseExchange),
    )
    .run(&cfg());
    let ds6 = Scenario::gm(GmParams::lanai_xp(), 6, DS).run(&cfg());
    let pe8 = Scenario::gm(
        GmParams::lanai_xp(),
        8,
        Barrier::Nic(Algorithm::PairwiseExchange),
    )
    .run(&cfg());
    let ds8 = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg());
    assert!(
        pe6.mean_us > ds6.mean_us,
        "PE must pay its extra steps at n=6"
    );
    assert!(
        (pe8.mean_us - ds8.mean_us).abs() < 0.5,
        "PE and DS coincide at powers of two"
    );
}

#[test]
fn improvement_factor_is_larger_on_the_slower_cluster() {
    // §8.1: the XP cluster's faster host CPU and PCI-X bus shrink the
    // benefit relative to the 9.1 cluster.
    let f = |params: GmParams, n: usize| {
        let nic = Scenario::gm(params.clone(), n, DS).run(&cfg());
        let host = Scenario::gm(params, n, HOST_DS).run(&cfg());
        host.mean_us / nic.mean_us
    };
    let xp = f(GmParams::lanai_xp(), 8);
    let old = f(GmParams::lanai_9_1(), 8);
    assert!(
        old > xp,
        "9.1 cluster factor ({old:.2}) must exceed XP's ({xp:.2})"
    );
}

#[test]
fn gather_broadcast_is_the_worst_algorithm() {
    // §5.2: gather-broadcast takes more steps and performs worse — the
    // reason the paper implements only PE and DS.
    let gb = Scenario::gm(
        GmParams::lanai_xp(),
        8,
        Barrier::Nic(Algorithm::GatherBroadcast { degree: 2 }),
    )
    .run(&cfg());
    let ds = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg());
    assert!(
        gb.mean_us > ds.mean_us * 1.3,
        "GB ({:.2}) should clearly lose to DS ({:.2})",
        gb.mean_us,
        ds.mean_us
    );
}
