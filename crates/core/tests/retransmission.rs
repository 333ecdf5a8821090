//! Receiver-driven retransmission statistics, tested at two levels:
//!
//! * unit level — drive two [`PaperCollective`] state machines by hand,
//!   withhold one packet, and check that the `nacks_sent` / `retransmits`
//!   accessors count exactly the injected loss;
//! * cluster level — run a lossy GM barrier with the record log on and
//!   check that the `nack` / `retransmit` span events in the log agree
//!   with the engine counters.

use nicbar_core::{
    Algorithm, Barrier, GroupSpec, PaperCollective, RunCfg, Scenario, BARRIER_GROUP,
};
use nicbar_gm::{ActionBuf, CollAction, CollKind, CollOperand, GmParams, NicCollective};
use nicbar_net::NodeId;
use nicbar_sim::{CauseId, SimTime};

const TIMEOUT: SimTime = SimTime(10_000);

fn barrier_pair() -> (PaperCollective, PaperCollective) {
    let members = vec![NodeId(0), NodeId(1)];
    let mk = |rank: usize| {
        PaperCollective::new(
            members[rank],
            vec![GroupSpec::barrier(
                BARRIER_GROUP,
                members.clone(),
                rank,
                Algorithm::Dissemination,
                TIMEOUT,
            )],
        )
    };
    (mk(0), mk(1))
}

#[test]
fn withheld_packet_drives_exactly_one_nack_and_one_retransmit() {
    let (mut c0, mut c1) = barrier_pair();
    let t0 = SimTime::ZERO;
    let op = CollOperand::Scalar(0);

    let drain = |buf: &mut ActionBuf| buf.drain().collect::<Vec<_>>();
    let mut buf = ActionBuf::new();

    // Both ranks enter the barrier; 2-node dissemination is one round with
    // one send each way.
    c0.on_doorbell(t0, BARRIER_GROUP, 0, &op, CauseId::NONE, &mut buf);
    let a0 = drain(&mut buf);
    c1.on_doorbell(t0, BARRIER_GROUP, 0, &op, CauseId::NONE, &mut buf);
    let a1 = drain(&mut buf);
    let sends = |actions: &[CollAction]| {
        actions
            .iter()
            .filter(|a| matches!(a, CollAction::Send { .. }))
            .count()
    };
    assert_eq!(sends(&a0), 1);
    assert_eq!(sends(&a1), 1);

    // Deliver rank 1's packet to rank 0 normally; *drop* rank 0's packet
    // to rank 1 (the injected loss).
    let pkt_1to0 = match &a1[0] {
        CollAction::Send { pkt, .. } => pkt.clone(),
        other => panic!("expected a send, got {other:?}"),
    };
    c0.on_packet(SimTime(1_000), &pkt_1to0, CauseId::NONE, &mut buf);
    let done0 = drain(&mut buf);
    assert!(
        done0
            .iter()
            .any(|a| matches!(a, CollAction::HostDone { .. })),
        "rank 0 has both arrivals and completes"
    );

    // Rank 1's timer expires on the missing round-0 packet: one NACK back
    // to rank 0.
    assert!(c1.next_deadline().is_some(), "deadline armed while waiting");
    c1.on_timer(SimTime(20_000), &mut buf);
    let nacks = drain(&mut buf);
    let nack_pkt = match &nacks[..] {
        [CollAction::Send { pkt, retx, .. }] => {
            assert_eq!(pkt.kind, CollKind::Nack);
            assert!(!retx, "a first-time NACK is not a retransmission");
            pkt.clone()
        }
        other => panic!("expected exactly one NACK send, got {other:?}"),
    };
    assert_eq!(c1.nacks_sent(BARRIER_GROUP), 1);

    // The NACK reaches rank 0, which retransmits from its static packet.
    c0.on_packet(SimTime(21_000), &nack_pkt, CauseId::NONE, &mut buf);
    let retx_actions = drain(&mut buf);
    let retx_pkt = match &retx_actions[..] {
        [CollAction::Send { pkt, retx, dst, .. }] => {
            assert_eq!(*dst, NodeId(1));
            assert_eq!(pkt.kind, CollKind::Barrier);
            assert!(*retx, "a NACK-triggered resend must be flagged retx");
            pkt.clone()
        }
        other => panic!("expected exactly one retransmission, got {other:?}"),
    };
    assert_eq!(c0.retransmits(BARRIER_GROUP), 1);

    // The retransmission completes rank 1. Exactly one loss was injected;
    // the accessors report exactly one NACK and one retransmission.
    c1.on_packet(SimTime(22_000), &retx_pkt, CauseId::NONE, &mut buf);
    let done1 = drain(&mut buf);
    assert!(done1
        .iter()
        .any(|a| matches!(a, CollAction::HostDone { epoch: 0, .. })));
    assert_eq!(c0.nacks_sent(BARRIER_GROUP), 0);
    assert_eq!(c1.retransmits(BARRIER_GROUP), 0);
    assert_eq!(c1.nacks_sent(BARRIER_GROUP), 1);
    assert_eq!(c0.retransmits(BARRIER_GROUP), 1);
}

#[test]
fn lossy_run_span_events_agree_with_counters() {
    let cfg = RunCfg {
        warmup: 2,
        iters: 10,
        drop_prob: 0.05,
        seed: 7,
        ..RunCfg::default()
    };
    let n = 8;
    let cap = Scenario::gm(
        GmParams::lanai_xp(),
        n,
        Barrier::Nic(Algorithm::Dissemination),
    )
    .capture(&cfg);
    assert_eq!(cap.trace.dropped(), 0, "counting needs a complete trace");

    let count = |label: &'static str| cap.trace.count(label) as u64;
    let nack_spans = count("nack");
    let retx_spans = count("retransmit");
    assert!(
        cap.stats.counter("wire.dropped") > 0 && nack_spans > 0,
        "5% loss must drop packets and trigger NACKs"
    );

    // Every NACK launch emits one `nack` span, one `gm.nack_sent` bump at
    // the NIC, and one `wire.coll_nack` bump at the fabric.
    assert_eq!(nack_spans, cap.stats.counter("gm.nack_sent"));
    assert_eq!(nack_spans, cap.stats.counter("wire.coll_nack"));

    // Retransmissions are barrier-kind launches beyond the schedule's
    // first-time sends (8-node dissemination: 3 rounds × 8 ranks per
    // epoch), and each one emits a `retransmit` span.
    let first_time = 24 * cfg.total();
    assert_eq!(retx_spans, cap.stats.counter("gm.coll_sent") - first_time);
    assert!(retx_spans > 0, "dropped barrier packets must be resent");
}
