//! Contention scenario: M overlapping barrier groups plus background bulk
//! traffic over shared NICs, with the resource-occupancy ledger armed —
//! the interference-attribution companion of `why-slow`.
//!
//! Every wait on the critical path of every barrier is attributed to the
//! owner that held the contended resource meanwhile (same group, rival
//! group, bulk traffic, or fabric overhead), and the report names the top
//! interferer. Runs the scenario on both substrates (gm and elan) and on
//! both execution engines; the flight captures must be byte-identical
//! across engines modulo the engine stamp.
//!
//! Writes `results/contend.json` (full runs) and appends to
//! `BENCH_contend.json` (always). `--check` gates: zero dropped ledger
//! records, ≥95% of critical-path wait time attributed to a named owner, a
//! named top interferer, and sequential/parallel byte-parity.

use nicbar_bench::critpath::{self, Interference};
use nicbar_bench::{fig_args, json::Writer, trajectory, Manifest};
use nicbar_core::{Algorithm, Barrier, FlightData, RunCfg, Scenario, TrafficCfg};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;
use nicbar_sim::EngineSel;

struct SubstrateReport {
    substrate: &'static str,
    flight: FlightData,
    summary: Interference,
    per_path: Vec<Interference>,
}

fn run_substrate(scenario: &Scenario, cfg: &RunCfg, shards: usize, check: bool) -> SubstrateReport {
    let substrate = scenario.substrate.label();
    let run = |engine, shards| {
        scenario.capture(&RunCfg {
            engine,
            shards,
            ..cfg.clone()
        })
    };
    let seq = run(EngineSel::Sequential, 1);
    let par = run(EngineSel::Parallel, shards);
    assert_eq!(seq.engine, "sequential");
    assert_eq!(par.engine, "parallel");
    if let Some(at) = seq.divergence(&par) {
        eprintln!("contend: {substrate} parallel({shards}) diverges from sequential: {at}");
        if check {
            std::process::exit(1);
        }
    } else {
        println!("contend: {substrate} sequential/parallel({shards}) byte-identical");
    }

    // Attribute interference on the contend groups only (the analyzer sees
    // every keyed span in the dump).
    let groups: Vec<u64> = scenario
        .group_ids()
        .iter()
        .map(|g| u64::from(g.0))
        .collect();
    let paths: Vec<_> = critpath::analyze(&seq.packets)
        .into_iter()
        .filter(|p| groups.contains(&p.group))
        .collect();
    let per_path = critpath::interference(&paths, &seq.ledger);
    let summary = critpath::interference_summary(&per_path);

    let traffic = scenario
        .traffic
        .expect("the contend scenario runs under traffic");
    println!(
        "\n== contend [{substrate}]: {} nodes, {} groups, traffic {}x{}B, {} barriers ==",
        scenario.n,
        groups.len(),
        traffic.outstanding,
        traffic.msg_bytes,
        paths.len()
    );
    println!(
        "mean barrier latency {:.2} µs; ledger {} records ({} dropped)",
        seq.stats.mean_us,
        seq.ledger.len(),
        seq.ledger_dropped
    );
    print!("{}", critpath::render_interference(&per_path));

    if check {
        let mut ok = true;
        if seq.ledger_dropped > 0 {
            eprintln!(
                "contend: {substrate} dropped {} ledger records",
                seq.ledger_dropped
            );
            ok = false;
        }
        if paths.is_empty() {
            eprintln!("contend: {substrate} produced no analyzable barrier spans");
            ok = false;
        }
        if summary.attributed_pct() < 95.0 {
            eprintln!(
                "contend: {substrate} attributed only {:.1}% of critical-path wait time (< 95%)",
                summary.attributed_pct()
            );
            ok = false;
        }
        if summary.top().is_none() {
            eprintln!("contend: {substrate} named no top interferer");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "contend: {substrate} check OK ({:.1}% attributed, top: {})",
            summary.attributed_pct(),
            summary
                .top()
                .map(|(o, _)| o.label())
                .unwrap_or_else(|| "none".into())
        );
    }

    SubstrateReport {
        substrate,
        flight: seq,
        summary,
        per_path,
    }
}

fn artifact_json(reports: &[SubstrateReport], n: usize, groups: usize, m: &Manifest) -> String {
    let mut w = Writer::new();
    w.open_object();
    w.field("id");
    w.string("contend");
    m.emit(&mut w);
    w.field("nodes");
    w.uint(n as u64);
    w.field("groups");
    w.uint(groups as u64);
    w.field("substrates");
    w.open_array();
    for r in reports {
        let s = &r.summary;
        w.open_object();
        w.field("substrate");
        w.string(r.substrate);
        w.field("mean_us");
        w.number(r.flight.stats.mean_us);
        w.field("barriers");
        w.uint(r.per_path.len() as u64);
        w.field("ledger_records");
        w.uint(r.flight.ledger.len() as u64);
        w.field("wait_us");
        w.number(s.wait_total.as_us());
        w.field("self_us");
        w.number(s.self_time.as_us());
        w.field("other_group_us");
        w.number(s.other_group.as_us());
        w.field("traffic_us");
        w.number(s.traffic.as_us());
        w.field("fabric_us");
        w.number(s.fabric.as_us());
        w.field("unattributed_us");
        w.number(s.unattributed.as_us());
        w.field("attributed_pct");
        w.number(s.attributed_pct());
        w.field("top_interferer");
        match s.top() {
            Some((o, t)) => {
                w.string(&o.label());
                w.field("top_held_us");
                w.number(t.as_us());
            }
            None => w.string("none"),
        }
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

fn main() {
    let args = fig_args();
    let argv: Vec<String> = std::env::args().collect();
    let check = argv.iter().any(|a| a == "--check");
    // The contend run keeps every observability stream on (the ledger
    // records every NIC charge), so the epoch counts stay deliberately
    // small; `--quick` shrinks them further for the CI smoke.
    let (n, groups, cfg) = if args.quick {
        (
            6,
            2,
            RunCfg {
                warmup: 2,
                iters: 8,
                skew_us: 1.0,
                ..args.cfg
            },
        )
    } else {
        (
            8,
            3,
            RunCfg {
                warmup: 5,
                iters: 24,
                skew_us: 1.0,
                ..args.cfg
            },
        )
    };
    let traffic = TrafficCfg {
        msg_bytes: 4096,
        outstanding: 2,
    };
    let shards = args.cfg.shards.max(2);

    let nic = Barrier::Nic(Algorithm::Dissemination);
    let reports: Vec<SubstrateReport> = [
        Scenario::gm(GmParams::lanai_xp(), n, nic),
        Scenario::elan(ElanParams::elan3(), n, nic),
    ]
    .into_iter()
    .map(|s| {
        run_substrate(
            &s.with_groups(groups).with_traffic(traffic),
            &cfg,
            shards,
            check,
        )
    })
    .collect();

    let manifest = Manifest::new(
        cfg.seed,
        format!(
            "contend n={n}, groups={groups}, traffic={}x{}B, warmup={}, iters={}, shards={}, quick={}",
            traffic.outstanding, traffic.msg_bytes, cfg.warmup, cfg.iters, shards, args.quick
        ),
    );

    // Quick (CI) runs refresh the BENCH trajectory but must not downgrade
    // the tracked full-fidelity artifact.
    if !args.quick {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).expect("create results/");
        let path = dir.join("contend.json");
        std::fs::write(&path, artifact_json(&reports, n, groups, &manifest))
            .expect("write results/contend.json");
        println!("[saved {}]", path.display());
    }

    let traj: Vec<(&str, Vec<trajectory::TrajectoryPoint>)> = reports
        .iter()
        .map(|r| (r.substrate, vec![trajectory::point(n, &r.flight.stats)]))
        .collect();
    trajectory::save("contend", &traj, &manifest).expect("write BENCH_contend.json");
}
