//! Rank-sharded parallel engine parity: the conservative windowed engine
//! must be an *implementation detail* — same seed, same cluster, same
//! byte-exact observable run as the sequential engine, at any shard count.
//!
//! "Observable run" is the full flight capture ([`FlightData::witness`]):
//! the record log's span records in emission order, span summaries,
//! histograms, causal packet records, occupancy ledger and drop count,
//! plus the counters and the final latency statistics. The parallel engine
//! merges the per-shard logs in delivered-event order, so every byte must
//! agree, not just the aggregate latencies.

use nicbar::core::{Algorithm, Barrier, FlightData, RunCfg, Scenario};
use nicbar::elan::ElanParams;
use nicbar::gm::GmParams;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

fn cfg(shards: usize) -> RunCfg {
    RunCfg {
        warmup: 5,
        iters: 40,
        skew_us: 1.0,
        shards,
        ..RunCfg::default()
    }
}

fn assert_parity(label: &str, seq: &FlightData, par: &FlightData) {
    if let Some(at) = seq.divergence(par) {
        panic!("{label}: parallel run diverges from sequential: {at}");
    }
}

fn gm_flight(n: usize, algo: Algorithm, shards: usize) -> FlightData {
    Scenario::gm(GmParams::lanai_xp(), n, Barrier::Nic(algo)).capture(&cfg(shards))
}

fn elan_flight(n: usize, algo: Algorithm, shards: usize) -> FlightData {
    Scenario::elan(ElanParams::elan3(), n, Barrier::Nic(algo)).capture(&cfg(shards))
}

#[test]
fn gm_parallel_matches_sequential_byte_for_byte() {
    for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
        for n in [16, 256] {
            let seq = gm_flight(n, algo, 1);
            for shards in [2, 5, 8] {
                let par = gm_flight(n, algo, shards);
                assert_parity(&format!("gm {algo:?} n={n} shards={shards}"), &seq, &par);
            }
        }
    }
}

#[test]
fn elan_parallel_matches_sequential_byte_for_byte() {
    for algo in [Algorithm::Dissemination, Algorithm::PairwiseExchange] {
        for n in [16, 256] {
            let seq = elan_flight(n, algo, 1);
            for shards in [2, 5, 8] {
                let par = elan_flight(n, algo, shards);
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
    let lossy = |shards| {
        Scenario::gm(GmParams::lanai_xp(), 16, DS).capture(&RunCfg {
            warmup: 10,
            iters: 80,
            drop_prob: 0.02,
            skew_us: 2.0,
            shards,
            ..RunCfg::default()
        })
    };
    let seq = lossy(1);
    assert!(
        seq.trace
            .packets()
            .iter()
            .any(|p| format!("{p:?}").contains("Drop")),
        "lossy config produced no drops; the test is vacuous"
    );
    for shards in [2, 4] {
        let par = lossy(shards);
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
    let run = |shards| {
        Scenario::gm(GmParams::lanai_xp(), 8, DS)
            .with_traffic(traffic)
            .capture(&cfg(shards))
    };
    let seq = run(1);
    assert!(
        !seq.trace.ledger().is_empty(),
        "traffic flight must arm the ledger"
    );
    for shards in [2, 8] {
        let par = run(shards);
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
    let run = |shards| {
        Scenario::elan(ElanParams::elan3(), 8, DS)
            .with_traffic(traffic)
            .capture(&RunCfg {
                warmup: 2,
                iters: 8,
                skew_us: 1.0,
                shards,
                ..RunCfg::default()
            })
    };
    let seq = run(1);
    assert!(
        !seq.trace.ledger().is_empty(),
        "contend flight must arm the ledger"
    );
    for shards in [2, 8] {
        let par = run(shards);
        assert_parity(&format!("elan traffic shards={shards}"), &seq, &par);
    }
}

/// The shard count alone picks the engine: one shard runs sequentially —
/// no worker threads, no windowing — and two run on the parallel engine,
/// which reproduces the same capture.
#[test]
fn shard_count_alone_picks_the_engine() {
    let one = gm_flight(16, Algorithm::Dissemination, 1);
    assert_eq!((one.engine, one.shards), ("sequential", 1));
    let two = gm_flight(16, Algorithm::Dissemination, 2);
    assert_eq!((two.engine, two.shards), ("parallel", 2));
    assert_parity("gm 1 vs 2 shards", &one, &two);
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

    type FlightRun = fn(usize) -> FlightData;
    let cases: [(&str, FlightRun); 2] = [
        ("gm", |s| gm_flight(16, Algorithm::Dissemination, s)),
        ("elan", |s| elan_flight(16, Algorithm::Dissemination, s)),
    ];
    for (substrate, run) in cases {
        let seq = run(1);
        let seq_breakdown = flight::breakdown(&seq);
        let seq_chrome = flight::chrome_trace(std::slice::from_ref(&seq));
        let seq_crit = critpath::render(&critpath::analyze(seq.trace.packets()));
        let seq_jsonl = netdump::jsonl(seq.trace.packets());
        assert!(
            seq_breakdown.contains("engine: sequential"),
            "{substrate}: breakdown lacks the sequential stamp"
        );
        assert!(seq_chrome.contains("\"0:engine\": \"sequential\""));

        for shards in [2, 8] {
            let par = run(shards);
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
                critpath::render(&critpath::analyze(par.trace.packets())),
                "{label}: critical-path report differs"
            );
            assert_eq!(
                seq_jsonl,
                netdump::jsonl(par.trace.packets()),
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
    let seq = gm_flight(16, Algorithm::Dissemination, 1);
    let par = gm_flight(16, Algorithm::Dissemination, 64);
    // The breakdown stamp names the *effective* shard count.
    let stamp = nicbar_bench::flight::breakdown(&par);
    assert!(
        stamp.contains("engine: parallel(16)"),
        "shards=64 on n=16 should clamp to 16 shards, got:\n{stamp}"
    );
    assert_parity("gm shards=64 clamped to n=16", &seq, &par);
}
