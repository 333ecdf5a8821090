//! Cross-substrate comparisons: relations between the Quadrics and Myrinet
//! results that the paper's figures imply when read together.

use nicbar::core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar::elan::ElanParams;
use nicbar::gm::GmParams;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

fn cfg() -> RunCfg {
    RunCfg {
        warmup: 20,
        iters: 300,
        ..RunCfg::default()
    }
}

fn quadrics(n: usize) -> f64 {
    Scenario::elan(ElanParams::elan3(), n, DS)
        .run(&cfg())
        .mean_us
}

fn myrinet(n: usize) -> f64 {
    Scenario::gm(GmParams::lanai_xp(), n, DS)
        .run(&cfg())
        .mean_us
}

#[test]
fn quadrics_nic_barrier_beats_myrinet_at_every_size() {
    // Fig. 7 vs Fig. 6: Elan3's chained descriptors (no per-message NIC
    // software loop) keep Quadrics ~2× faster throughout.
    for n in [2usize, 4, 8, 16, 64] {
        let q = quadrics(n);
        let m = myrinet(n);
        assert!(
            q < m,
            "n={n}: Quadrics {q:.2}µs should beat Myrinet {m:.2}µs"
        );
    }
}

#[test]
fn dissemination_latency_is_a_staircase_in_ceil_log2() {
    // DS costs depend on ⌈log₂N⌉ only; within a bucket the curve is flat
    // (to within contention noise), across buckets it steps up.
    for (lo, hi) in [(5usize, 8usize), (9, 16)] {
        for f in [quadrics as fn(usize) -> f64, myrinet as fn(usize) -> f64] {
            let a = f(lo);
            let b = f(hi);
            assert!(
                (a - b).abs() / b < 0.10,
                "latency not flat within a log bucket: {a:.2} vs {b:.2}"
            );
        }
    }
    for f in [quadrics as fn(usize) -> f64, myrinet as fn(usize) -> f64] {
        assert!(f(9) > f(8), "no step between log buckets");
    }
}

#[test]
fn both_substrates_charge_one_packet_per_schedule_send() {
    // The wire accounting is identical across substrates: n·⌈log₂n⌉
    // messages per dissemination barrier.
    let c = cfg();
    for n in [4usize, 8] {
        let q = Scenario::elan(ElanParams::elan3(), n, DS).run(&c);
        let m = Scenario::gm(GmParams::lanai_xp(), n, DS).run(&c);
        let expect = (n * nicbar::core::ceil_log2(n)) as f64;
        assert!((q.wire_per_barrier - expect).abs() < 0.01, "elan n={n}");
        assert!((m.wire_per_barrier - expect).abs() < 0.01, "gm n={n}");
    }
}

#[test]
fn elan4_projection_dominates_elan3() {
    for n in [4usize, 16, 64] {
        let e3 = Scenario::elan(ElanParams::elan3(), n, DS).run(&cfg());
        let e4 = Scenario::elan(ElanParams::elan4_projection(), n, DS).run(&cfg());
        assert!(
            e4.mean_us < e3.mean_us * 0.75,
            "n={n}: Elan4 projection {:.2} should clearly beat Elan3 {:.2}",
            e4.mean_us,
            e3.mean_us
        );
    }
}

#[test]
fn soak_thousands_of_epochs_with_loss_and_skew() {
    // A long consecutive-barrier run with loss and skew on GM, and skew on
    // Elan: the per-run safety invariant (checked inside the driver) plus
    // liveness over thousands of epochs.
    let cfg = RunCfg {
        warmup: 10,
        iters: 2_000,
        seed: 3,
        skew_us: 5.0,
        drop_prob: 0.01,
        permute: true,
        ..RunCfg::default()
    };
    let s = Scenario::gm(GmParams::lanai_xp(), 8, DS).run(&cfg);
    assert!(s.mean_us > 0.0);
    let elan_cfg = RunCfg {
        drop_prob: 0.0,
        ..cfg
    };
    let s = Scenario::elan(
        ElanParams::elan3(),
        8,
        Barrier::Nic(Algorithm::PairwiseExchange),
    )
    .run(&elan_cfg);
    assert!(s.mean_us > 0.0);
}
