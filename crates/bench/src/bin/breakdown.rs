//! Latency breakdown: dissect single barrier operations event by event.
//!
//! Runs a short warm-up, then prints the per-iteration latency decomposition
//! of the steady-state barrier on each implementation — where the
//! microseconds actually go (host entry, NIC processing, wire, completion
//! delivery). Uses the engine's counters and the known per-operation costs
//! of the parameter sets.

use nicbar_core::ceil_log2;
use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_elan::ElanParams;
use nicbar_gm::GmParams;

/// The NIC-based dissemination barrier, the paper's headline configuration.
const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

fn main() {
    let n = 8;
    let cfg = RunCfg {
        warmup: 50,
        iters: 500,
        ..RunCfg::default()
    };
    let rounds = ceil_log2(n) as u64;

    println!("== Latency breakdown, {n}-node dissemination barrier ==\n");

    // --- Myrinet NIC-based -------------------------------------------------
    let p = GmParams::lanai_xp();
    let s = Scenario::gm(p.clone(), n, DS).run(&cfg);
    println!("Myrinet LANai-XP, NIC-based: {:.2} µs total", s.mean_us);
    let host_side = (p.host_coll_call + p.pio_write + p.host_event_dma + p.host_recv_poll).as_us();
    let nic_work = (p.nic_coll_send + p.nic_coll_recv).as_us() * rounds as f64;
    let wire = p.link.latency(1, 20).as_us() * rounds as f64;
    println!("  host entry + completion delivery  {host_side:>6.2} µs");
    println!("  NIC collective processing (≈{rounds}×)  {nic_work:>6.2} µs");
    println!("  wire (≈{rounds} hops)                   {wire:>6.2} µs");
    println!(
        "  pipeline overlap / residual       {:>6.2} µs\n",
        s.mean_us - host_side - nic_work - wire
    );

    // --- Myrinet host-based -------------------------------------------------
    let s = Scenario::gm(p.clone(), n, Barrier::Host(Algorithm::Dissemination)).run(&cfg);
    println!("Myrinet LANai-XP, host-based: {:.2} µs total", s.mean_us);
    let per_round = (p.host_recv_poll
        + p.host_send_overhead
        + p.pio_write
        + p.nic_token_create
        + p.nic_sched_pass
        + p.nic_packet_claim
        + p.dma_time(20)
        + p.nic_inject
        + p.nic_record_create
        + p.nic_seq_check
        + p.nic_recv_match
        + p.dma_time(20)
        + p.host_event_dma)
        .as_us();
    println!(
        "  full p2p round trip per round     {per_round:>6.2} µs × {rounds} rounds = {:.2} µs",
        per_round * rounds as f64
    );
    println!(
        "  ACK load + serialization residual {:>6.2} µs\n",
        s.mean_us - per_round * rounds as f64
    );

    // --- Quadrics ------------------------------------------------------------
    let q = ElanParams::elan3();
    let s = Scenario::elan(q.clone(), n, DS).run(&cfg);
    println!("Quadrics Elan3, chained RDMA: {:.2} µs total", s.mean_us);
    let entry = (q.host_doorbell + q.nic_event_proc).as_us();
    let link = (q.nic_desc_proc + q.nic_event_proc).as_us() * rounds as f64
        + q.link.latency(2, 32).as_us() * rounds as f64;
    let done = (q.host_event_visible + q.host_poll).as_us();
    println!("  host entry (set_event doorbell)   {entry:>6.2} µs");
    println!("  chain links (desc+event+wire ×{rounds}) {link:>6.2} µs");
    println!("  completion visibility + poll      {done:>6.2} µs");
    println!(
        "  pipeline overlap / residual       {:>6.2} µs\n",
        s.mean_us - entry - link - done
    );

    // --- Comparators -----------------------------------------------------------
    let tree = Scenario::elan(q.clone(), n, Barrier::Gsync(4)).run(&cfg);
    let hw = Scenario::elan(q, n, Barrier::Hardware).run(&cfg);
    println!(
        "Quadrics comparators: gsync tree {:.2} µs, hardware barrier {:.2} µs",
        tree.mean_us, hw.mean_us
    );
    println!("\n(The residual lines quantify how much of the naive serial sum the");
    println!(" pipeline hides — negative residual = overlap between stages.)");
}
