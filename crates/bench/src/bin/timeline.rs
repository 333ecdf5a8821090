//! Event timeline: print the chronological trace of one steady-state
//! chained-RDMA barrier on a 4-node Quadrics cluster, plus the collective
//! dispatch trace of the GM protocol — a microscope on what the simulators
//! actually do per barrier.

use nicbar_core::elan_apps::ElanNicBarrierApp;
use nicbar_core::elan_chain::build_chains;
use nicbar_core::host_app::NicBarrierApp;
use nicbar_core::{Algorithm, GroupSpec, PaperCollective, BARRIER_GROUP};
use nicbar_elan::{ElanApp, ElanCluster, ElanClusterSpec, ElanParams};
use nicbar_gm::{GmApp, GmCluster, GmClusterSpec, GmParams, NicCollective};
use nicbar_net::NodeId;
use nicbar_sim::SimTime;

fn main() {
    nicbar_bench::no_args();
    let n = 4;

    // ---------------- Quadrics chained-RDMA timeline -----------------------
    println!("== One chained-RDMA barrier, 4 nodes, Quadrics/Elan3 ==");
    println!("   (steady state: trace of barrier #3 of 3)\n");
    let spec = ElanClusterSpec::new(ElanParams::elan3(), n).with_seed(1);
    let members: Vec<NodeId> = (0..n).map(NodeId).collect();
    let programs = build_chains(Algorithm::Dissemination, &members);
    let apps: Vec<Box<dyn ElanApp>> = (0..n)
        .map(|_| Box::new(ElanNicBarrierApp::new(3, 0.0)) as Box<dyn ElanApp>)
        .collect();
    let mut cluster = ElanCluster::build(spec, apps, programs);
    // Run two barriers untraced, then trace the third.
    loop {
        cluster.engine.step();
        let done = (0..n).all(|i| {
            cluster
                .app_ref::<ElanNicBarrierApp>(i)
                .log
                .completions
                .len()
                >= 2
        });
        if done {
            break;
        }
    }
    cluster.engine.enable_trace();
    let t0 = cluster.engine.now();
    cluster.run_until(SimTime::MAX);
    println!("     t(µs)   comp  event         detail");
    for r in cluster.engine.trace().iter() {
        let rel = r.time.saturating_sub(t0).as_us();
        // Decoding lives on the typed event itself (SpanEvent::describe).
        println!(
            "{rel:>10.3}  {:>5}  {:<12}  {}",
            r.component.0,
            r.label(),
            r.event.describe()
        );
    }
    if cluster.engine.trace().dropped() > 0 {
        println!(
            "warning: the log dropped {} records; timeline is truncated",
            cluster.engine.trace().dropped()
        );
    }
    let done_at = (0..n)
        .map(|i| {
            *cluster
                .app_ref::<ElanNicBarrierApp>(i)
                .log
                .completions
                .last()
                .unwrap()
        })
        .max()
        .unwrap();
    println!(
        "\nbarrier completed {:.3} µs after the traced window opened\n",
        done_at.saturating_sub(t0).as_us()
    );

    // ---------------- GM collective dispatch timeline -----------------------
    println!("== One NIC-protocol barrier, 4 nodes, Myrinet LANai-XP ==");
    println!("   (collective bypass trace: every coll send skips the queues)\n");
    let spec = GmClusterSpec::new(GmParams::lanai_xp(), n).with_seed(1);
    let apps: Vec<Box<dyn GmApp>> = (0..n)
        .map(|_| Box::new(NicBarrierApp::new(BARRIER_GROUP, 1, 0.0)) as Box<dyn GmApp>)
        .collect();
    let colls: Vec<Box<dyn NicCollective>> = (0..n)
        .map(|i| {
            Box::new(PaperCollective::new(
                NodeId(i),
                vec![GroupSpec::barrier(
                    BARRIER_GROUP,
                    members.clone(),
                    i,
                    Algorithm::Dissemination,
                    SimTime::from_us(400.0),
                )],
            )) as Box<dyn NicCollective>
        })
        .collect();
    let mut cluster = GmCluster::build(spec, apps, colls);
    cluster.engine.enable_trace();
    cluster.run_until(SimTime::from_us(1_000.0));
    println!("     t(µs)   comp  event         detail");
    for r in cluster.engine.trace().iter() {
        println!(
            "{:>10.3}  {:>5}  {:<12}  {}",
            r.time.as_us(),
            r.component.0,
            r.label(),
            r.event.describe()
        );
    }
    if cluster.engine.trace().dropped() > 0 {
        println!(
            "warning: the log dropped {} records; timeline is truncated",
            cluster.engine.trace().dropped()
        );
    }
    println!(
        "\n(component ids: 0..{} hosts, {}..{} NICs, {} fabric)",
        n - 1,
        n,
        2 * n - 1,
        2 * n
    );
}
