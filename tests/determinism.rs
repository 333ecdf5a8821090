//! Same-seed determinism regression: the DES contract is that one seed
//! yields one run — the same event order, the same span stream, the same
//! counters, the same occupancy ledger, the same final latencies, byte for
//! byte ([`FlightData::witness`]). Hash-order leaks (the class of bug
//! `nicbar-lint` rule ND003 guards against) break this silently and
//! intermittently; this test makes the breakage loud.
//!
//! The GM run injects loss so the NACK/retransmit machinery — the paths
//! that iterate protocol maps under a timer — is exercised, not just the
//! lossless fast path.

use nicbar::core::{Algorithm, Barrier, FlightData, RunCfg, Scenario};
use nicbar::elan::ElanParams;
use nicbar::gm::GmParams;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

/// The lossy 8-node GM NIC-DS capture under `seed`.
fn gm_lossy(seed: u64) -> FlightData {
    Scenario::gm(GmParams::lanai_xp(), 8, DS).capture(&lossy_cfg(seed))
}

fn lossy_cfg(seed: u64) -> RunCfg {
    RunCfg {
        warmup: 20,
        iters: 150,
        seed,
        skew_us: 2.0,
        drop_prob: 0.02,
        ..RunCfg::default()
    }
}

#[test]
fn gm_lossy_8_node_run_is_bit_deterministic() {
    let a = gm_lossy(0xD0_0DAD);
    if let Some(at) = a.divergence(&gm_lossy(0xD0_0DAD)) {
        panic!("same seed produced different GM runs: {at}");
    }
    // A different seed must actually change the run — otherwise the
    // witness is vacuous (e.g. everything empty).
    assert!(
        a.divergence(&gm_lossy(0xC0FFEE)).is_some(),
        "seed does not influence the run witness"
    );
}

#[test]
fn elan_8_node_run_is_bit_deterministic() {
    let run = || {
        Scenario::elan(ElanParams::elan3(), 8, DS).capture(&RunCfg {
            warmup: 20,
            iters: 150,
            seed: 0xE1A0,
            skew_us: 2.0,
            ..RunCfg::default()
        })
    };
    if let Some(at) = run().divergence(&run()) {
        panic!("same seed produced different Elan runs: {at}");
    }
}

/// The `why-slow` report and the JSONL netdump are derived artifacts of
/// the same run; both must be byte-identical across same-seed runs, or
/// the analyzer itself has nondeterminism (map iteration, float
/// formatting drift, unordered slack).
#[test]
fn why_slow_report_is_byte_identical_across_same_seed_runs() {
    use nicbar_bench::{critpath, netdump};

    let report = || {
        let cap = gm_lossy(0xD0_0DAD);
        let paths = critpath::analyze(cap.trace.packets());
        (
            critpath::render(&paths),
            netdump::jsonl(cap.trace.packets()),
        )
    };
    let (text_a, jsonl_a) = report();
    let (text_b, jsonl_b) = report();
    assert!(
        text_a == text_b,
        "why-slow report diverged across same-seed runs"
    );
    assert!(
        jsonl_a == jsonl_b,
        "JSONL netdump diverged across same-seed runs"
    );
    assert!(
        text_a.contains("critical path"),
        "report is non-empty: {text_a}"
    );
    assert!(
        text_a.contains("[detour]"),
        "lossy run surfaces a NACK/retransmit detour:\n{text_a}"
    );
}

/// Recording is observation only: a run with the record log on (span,
/// packet and ledger records plus the span fold) must simulate exactly
/// what the same run simulates with it off, sequentially and on 3 shards.
#[test]
fn recording_leaves_the_simulation_unchanged() {
    use nicbar::core::TrafficCfg;

    let base = RunCfg {
        warmup: 5,
        iters: 40,
        ..RunCfg::default()
    };
    let cases = [
        (
            "lossy permuted 16-node GM NIC barrier",
            Scenario::gm(GmParams::lanai_xp(), 16, DS),
            RunCfg {
                drop_prob: 0.02,
                permute: true,
                ..base.clone()
            },
        ),
        (
            "8-node GM host barrier under 4 KiB x 4 traffic",
            Scenario::gm(
                GmParams::lanai_xp(),
                8,
                Barrier::Host(Algorithm::Dissemination),
            )
            .with_traffic(TrafficCfg {
                msg_bytes: 4096,
                outstanding: 4,
            }),
            base.clone(),
        ),
        (
            "16-node Elan NIC barrier",
            Scenario::elan(ElanParams::elan3(), 16, DS),
            base.clone(),
        ),
    ];
    for (label, scenario, cfg) in cases {
        for shards in [1, 3] {
            let cfg = RunCfg {
                shards,
                ..cfg.clone()
            };
            assert_eq!(
                format!("{:?}", scenario.run(&cfg)),
                format!("{:?}", scenario.capture(&cfg).stats),
                "{label}, {shards} shard(s): recording changed the run"
            );
        }
    }
}
