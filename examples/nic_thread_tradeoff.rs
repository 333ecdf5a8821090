//! The §7 design choice, quantified: chained RDMA descriptors vs the Elan
//! thread processor.
//!
//! "Although Elan threads can be created and executed by the thread
//! processor …, an extra thread does increase the processing load to the
//! Elan NIC. …we have chosen not to set up an additional thread" — §7.
//! But data collectives (Moody et al., the paper's ref [14]) *need* the
//! thread: chains move no data and compute nothing.
//!
//! ```text
//! cargo run --release --example nic_thread_tradeoff
//! ```

use nicbar::core::{Algorithm, Barrier, ReduceOp, RunCfg, Scenario};
use nicbar::elan::ElanParams;

fn main() {
    let cfg = RunCfg {
        warmup: 20,
        iters: 500,
        ..RunCfg::default()
    };

    println!("Quadrics/Elan3: chained descriptors vs the thread processor\n");
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>16}",
        "nodes", "chain barrier", "thread barrier", "overhead", "thread allreduce"
    );
    for n in [2usize, 4, 8, 16, 32] {
        let chain = Scenario::elan(
            ElanParams::elan3(),
            n,
            Barrier::Nic(Algorithm::Dissemination),
        )
        .run(&cfg);
        let thread = Scenario::elan(ElanParams::elan3(), n, Barrier::ThreadBarrier).run(&cfg);
        let allreduce = Barrier::ThreadAllreduce(ReduceOp::Max, |r, _| r as u64);
        let reduce = Scenario::elan(ElanParams::elan3(), n, allreduce).run(&cfg);
        println!(
            "{n:>6} {:>12.2}µs {:>12.2}µs {:>9.0}% {:>14.2}µs",
            chain.mean_us,
            thread.mean_us,
            (thread.mean_us / chain.mean_us - 1.0) * 100.0,
            reduce.mean_us,
        );
    }

    println!("\nFor the barrier the thread only adds processing load — §7's choice");
    println!("of pure chained descriptors is right. For allreduce the thread is");
    println!("the *only* NIC-resident option (chains cannot combine values), and");
    println!("it still costs barely more than the thread barrier itself — the");
    println!("case ref [14] makes for NIC-based reductions.");
}
