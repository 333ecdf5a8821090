//! Ablation: which of the four collective-protocol features buys how much?
//!
//! The paper argues (§3) that the win comes from doing queuing,
//! packetization, bookkeeping and error control *collectively*. This
//! harness toggles each feature off independently (and all off = the
//! earlier "direct" scheme of Buntinas et al.) on the LANai-XP cluster and
//! reports the 8-node dissemination barrier latency and wire packets per
//! barrier.

use nicbar_bench::figure_cfg;
use nicbar_core::{Algorithm, Barrier, Scenario};
use nicbar_gm::{CollFeatures, GmParams};

fn main() {
    nicbar_bench::no_args();
    let cfg = figure_cfg();
    let n = 8;
    let run = |label: &str, f: CollFeatures| {
        let s = Scenario::gm(
            GmParams::lanai_xp(),
            n,
            Barrier::Nic(Algorithm::Dissemination),
        )
        .with_features(f)
        .run(&cfg);
        println!(
            "{label:<34} {:>9.2}us {:>10.1} pkts/barrier",
            s.mean_us, s.wire_per_barrier
        );
        s.mean_us
    };

    println!("== Ablation — NIC-based barrier, LANai-XP cluster, 8 nodes, DS ==\n");
    let full = run("paper protocol (all features)", CollFeatures::paper());
    run(
        "- group queue (shared dest queues)",
        CollFeatures {
            group_queue: false,
            ..CollFeatures::paper()
        },
    );
    run(
        "- static packet (claim + fill)",
        CollFeatures {
            static_packet: false,
            ..CollFeatures::paper()
        },
    );
    run(
        "- bit vector (per-pkt records)",
        CollFeatures {
            bitvec_bookkeeping: false,
            ..CollFeatures::paper()
        },
    );
    run(
        "- recv-driven retx (ACK per pkt)",
        CollFeatures {
            recv_driven_retx: false,
            ..CollFeatures::paper()
        },
    );
    let direct = run("direct scheme (all features off)", CollFeatures::direct());
    println!(
        "\nseparate-protocol gain over the direct scheme: {:.2}x",
        direct / full
    );
    println!("(the paper reports 1.86x host-improvement for the direct scheme vs");
    println!(" 3.38x for the proposed scheme on the LANai-9.1 cluster — i.e. the");
    println!(" separate collective protocol roughly doubles the benefit)");
}
