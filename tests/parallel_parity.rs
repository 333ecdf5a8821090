//! Rank-sharded parallel engine parity: the conservative windowed engine
//! must be an *implementation detail* — same seed, same cluster, same
//! byte-exact observable run as the sequential engine, at any shard count.
//!
//! "Observable run" is the full flight capture ([`FlightData::witness`]):
//! trace records in emission order, span summaries, histograms, counters,
//! causal packet records, the occupancy ledger and the final latency
//! statistics. The parallel engine merges per-shard
//! observability streams in delivered-event order, so every byte must
//! agree, not just the aggregate latencies.

use nicbar::core::{Algorithm, Barrier, FlightData, RunCfg, Scenario};
use nicbar::elan::ElanParams;
use nicbar::gm::GmParams;
use nicbar::sim::EngineSel;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

fn cfg(engine: EngineSel, shards: usize) -> RunCfg {
    RunCfg {
        warmup: 5,
        iters: 40,
        skew_us: 1.0,
        engine,
        shards,
        ..RunCfg::default()
    }
}

fn assert_parity(label: &str, seq: &FlightData, par: &FlightData) {
    if let Some(at) = seq.divergence(par) {
        panic!("{label}: parallel run diverges from sequential: {at}");
    }
}

fn gm_flight(n: usize, algo: Algorithm, engine: EngineSel, shards: usize) -> FlightData {
    Scenario::gm(GmParams::lanai_xp(), n, Barrier::Nic(algo)).capture(&cfg(engine, shards))
}

fn elan_flight(n: usize, algo: Algorithm, engine: EngineSel, shards: usize) -> FlightData {
    Scenario::elan(ElanParams::elan3(), n, Barrier::Nic(algo)).capture(&cfg(engine, shards))
}

#[test]
fn gm_parallel_matches_sequential_byte_for_byte() {
    for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
        for n in [16, 256] {
            let seq = gm_flight(n, algo, EngineSel::Sequential, 1);
            for shards in [2, 5, 8] {
                let par = gm_flight(n, algo, EngineSel::Parallel, shards);
                assert_parity(&format!("gm {algo:?} n={n} shards={shards}"), &seq, &par);
            }
        }
    }
}

#[test]
fn elan_parallel_matches_sequential_byte_for_byte() {
    for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
        for n in [16, 256] {
            let seq = elan_flight(n, algo, EngineSel::Sequential, 1);
            for shards in [2, 5, 8] {
                let par = elan_flight(n, algo, EngineSel::Parallel, shards);
                assert_parity(&format!("elan {algo:?} n={n} shards={shards}"), &seq, &par);
            }
        }
    }
}

/// Packet loss draws happen on the receiving NIC's private RNG stream, so
/// sharding must not change which packets drop — the NACK/retransmit
/// detours have to replay identically.
#[test]
fn gm_lossy_parallel_matches_sequential() {
    let lossy = |engine, shards| {
        Scenario::gm(GmParams::lanai_xp(), 16, DS).capture(&RunCfg {
            warmup: 10,
            iters: 80,
            drop_prob: 0.02,
            skew_us: 2.0,
            engine,
            shards,
            ..RunCfg::default()
        })
    };
    let seq = lossy(EngineSel::Sequential, 1);
    assert!(
        seq.packets
            .iter()
            .any(|p| format!("{p:?}").contains("Drop")),
        "lossy config produced no drops; the test is vacuous"
    );
    for shards in [2, 4] {
        let par = lossy(EngineSel::Parallel, shards);
        assert_parity(&format!("gm lossy shards={shards}"), &seq, &par);
    }
}

/// Bulk-traffic scenarios: the saturating background stream exercises the
/// send-queue/packet-pool paths (and, with the ledger armed, emits
/// occupancy records from every NIC charge), so sharding must reproduce
/// the whole capture — ledger included — byte for byte on both substrates.
#[test]
fn gm_traffic_parallel_matches_sequential_byte_for_byte() {
    use nicbar::core::TrafficCfg;
    let traffic = TrafficCfg {
        msg_bytes: 4096,
        outstanding: 2,
    };
    let run = |engine, shards| {
        Scenario::gm(GmParams::lanai_xp(), 8, DS)
            .with_traffic(traffic)
            .capture(&cfg(engine, shards))
    };
    let seq = run(EngineSel::Sequential, 1);
    assert!(!seq.ledger.is_empty(), "traffic flight must arm the ledger");
    for shards in [2, 8] {
        let par = run(EngineSel::Parallel, shards);
        assert_parity(&format!("gm traffic shards={shards}"), &seq, &par);
    }
}

#[test]
fn elan_traffic_parallel_matches_sequential_byte_for_byte() {
    use nicbar::core::TrafficCfg;
    let traffic = TrafficCfg {
        msg_bytes: 4096,
        outstanding: 2,
    };
    // One group + the forwarding-ring tport stream: the Elan bulk-traffic
    // scenario (the multi-group contend gate covers the M-group case).
    let run = |engine, shards| {
        Scenario::elan(ElanParams::elan3(), 8, DS)
            .with_traffic(traffic)
            .capture(&RunCfg {
                warmup: 2,
                iters: 8,
                skew_us: 1.0,
                engine,
                shards,
                ..RunCfg::default()
            })
    };
    let seq = run(EngineSel::Sequential, 1);
    assert!(!seq.ledger.is_empty(), "contend flight must arm the ledger");
    for shards in [2, 8] {
        let par = run(EngineSel::Parallel, shards);
        assert_parity(&format!("elan traffic shards={shards}"), &seq, &par);
    }
}

/// `Auto` with one shard must take the sequential fast path — no worker
/// threads, no windowing — while `Parallel` at one shard goes through the
/// parallel machinery and still reproduces the same run.
#[test]
fn one_shard_engine_selection() {
    let auto = gm_flight(16, Algorithm::Dissemination, EngineSel::Auto, 1);
    assert_eq!(auto.engine, "sequential");
    let one = gm_flight(16, Algorithm::Dissemination, EngineSel::Parallel, 1);
    assert_eq!(one.engine, "parallel");
    assert_parity("gm 1-shard degenerate", &auto, &one);
}

/// Drop every line that carries the engine stamp — the one *intentional*
/// difference between exporter outputs of different engines.
fn strip_engine_stamp(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("engine: ") && !l.contains(":engine\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The rendered exporter artifacts — flight breakdown, Chrome trace,
/// critical-path report, packet JSONL — must be byte-identical across
/// engines once the self-describing engine-stamp line is removed, and that
/// stamp must name the actual producer.
#[test]
fn exporter_output_is_byte_identical_across_engines() {
    use nicbar_bench::{critpath, flight, netdump};

    type FlightRun = fn(EngineSel, usize) -> FlightData;
    let cases: [(&str, FlightRun); 2] = [
        ("gm", |e, s| gm_flight(16, Algorithm::Dissemination, e, s)),
        ("elan", |e, s| {
            elan_flight(16, Algorithm::Dissemination, e, s)
        }),
    ];
    for (substrate, run) in cases {
        let seq = run(EngineSel::Sequential, 1);
        let seq_breakdown = flight::breakdown(&seq);
        let seq_chrome = flight::chrome_trace(std::slice::from_ref(&seq));
        let seq_crit = critpath::render(&critpath::analyze(&seq.packets));
        let seq_jsonl = netdump::jsonl(&seq.packets);
        assert!(
            seq_breakdown.contains("engine: sequential"),
            "{substrate}: breakdown lacks the sequential stamp"
        );
        assert!(seq_chrome.contains("\"0:engine\": \"sequential\""));

        for shards in [2, 8] {
            let par = run(EngineSel::Parallel, shards);
            let label = format!("{substrate} shards={shards}");
            let par_breakdown = flight::breakdown(&par);
            assert!(
                par_breakdown.contains(&format!("engine: parallel({shards})")),
                "{label}: breakdown lacks the parallel stamp:\n{par_breakdown}"
            );
            assert_eq!(
                strip_engine_stamp(&seq_breakdown),
                strip_engine_stamp(&par_breakdown),
                "{label}: breakdown differs beyond the engine stamp"
            );

            let par_chrome = flight::chrome_trace(std::slice::from_ref(&par));
            assert!(par_chrome.contains(&format!("\"0:engine\": \"parallel({shards})\"")));
            assert_eq!(
                strip_engine_stamp(&seq_chrome),
                strip_engine_stamp(&par_chrome),
                "{label}: Chrome trace differs beyond the engine stamp"
            );

            // The critical-path report and the packet JSONL carry no stamp
            // at all: byte-identical, full stop.
            assert_eq!(
                seq_crit,
                critpath::render(&critpath::analyze(&par.packets)),
                "{label}: critical-path report differs"
            );
            assert_eq!(
                seq_jsonl,
                netdump::jsonl(&par.packets),
                "{label}: packet JSONL differs"
            );
        }
    }
}

/// Shard counts beyond the rank count clamp to the rank count — excess
/// shards would sit empty yet still pay every window barrier — and the
/// clamped run still reproduces the sequential bytes.
#[test]
fn oversharded_run_clamps_and_matches_sequential() {
    let seq = gm_flight(16, Algorithm::Dissemination, EngineSel::Sequential, 1);
    let par = gm_flight(16, Algorithm::Dissemination, EngineSel::Parallel, 64);
    // The breakdown stamp names the *effective* shard count.
    let stamp = nicbar_bench::flight::breakdown(&par);
    assert!(
        stamp.contains("engine: parallel(16)"),
        "shards=64 on n=16 should clamp to 16 shards, got:\n{stamp}"
    );
    assert_parity("gm shards=64 clamped to n=16", &seq, &par);
}

/// A hand-built `Weighted` partition — deliberately lumpy weights and
/// boundary costs, so the cut points move away from the contiguous
/// default — must be invisible in the observable run: partitioning only
/// redistributes work across workers, never reorders delivered events.
#[test]
fn weighted_partition_matches_sequential_byte_for_byte() {
    use nicbar::sim::PartitionSel;
    let sel = PartitionSel::Weighted {
        weights: (0..16u64).map(|j| 1 + (j % 5) * 7).collect(),
        boundary_cost: (0..16u64).map(|j| (j * 13) % 11).collect(),
    };
    let run = |engine, shards, partition| {
        Scenario::gm(GmParams::lanai_xp(), 16, DS).capture(&RunCfg {
            partition,
            ..cfg(engine, shards)
        })
    };
    let seq = run(EngineSel::Sequential, 1, PartitionSel::Contiguous);
    for shards in [2, 5, 8] {
        let par = run(EngineSel::Parallel, shards, sel.clone());
        assert_parity(&format!("gm weighted shards={shards}"), &seq, &par);
    }
}

/// The full profile-guided loop: a real `engine_prof` capture (the
/// committed PR-7 baseline) feeds `partition_from_profile`, and the
/// resulting partition must preserve byte-identity. The profile was taken
/// at a different node count — `balanced_by_weight` resamples it — which
/// is exactly how a stale profile will be used in practice.
#[test]
fn profile_guided_partition_matches_sequential() {
    use nicbar::sim::PartitionSel;
    use nicbar_bench::engineprof::partition_from_profile;
    let sel = partition_from_profile("results/engine_prof_pr7.json").unwrap_or_else(|| {
        // Tree without the committed capture: a synthetic ramp profile
        // keeps the parity claim under test.
        PartitionSel::Weighted {
            weights: (0..64u64).map(|j| 1 + j / 4).collect(),
            boundary_cost: (0..64u64).map(|j| j % 9).collect(),
        }
    });
    assert!(
        matches!(sel, PartitionSel::Weighted { .. }),
        "profile must produce a weighted partition"
    );
    let run = |engine, shards, partition| {
        Scenario::elan(ElanParams::elan3(), 16, DS).capture(&RunCfg {
            partition,
            ..cfg(engine, shards)
        })
    };
    let seq = run(EngineSel::Sequential, 1, PartitionSel::Contiguous);
    for shards in [3, 8] {
        let par = run(EngineSel::Parallel, shards, sel.clone());
        assert_parity(&format!("elan profile-guided shards={shards}"), &seq, &par);
    }
}
