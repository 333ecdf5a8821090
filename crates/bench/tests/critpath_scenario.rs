//! Hand-built 4-node dissemination barrier with one injected
//! NACK/retransmission, where the longest causal chain is known a priori.
//!
//! The scenario mirrors what the GM emitters record: node 3's round-1
//! packet to node 0 is dropped on the wire; node 0's NIC times out, NACKs
//! the sender, the sender retransmits, and only then can node 0 fire its
//! round-2 packet to node 2 — which therefore exits last. Every timestamp
//! is chosen by hand, so the expected critical path (root, every edge's
//! kind/route/duration, the detours, the slack vector) is written down
//! explicitly and asserted edge by edge against the analyzer.

#![allow(clippy::unwrap_used)] // test code

use nicbar_bench::critpath::{analyze, render};
use nicbar_sim::{CausalKind, CauseId, ComponentId, PacketLog, SimTime, Trace};

const GROUP: u64 = 0xBA;
const SEQ: u64 = 0;

struct Dump(Trace);

impl Dump {
    fn rec(&mut self, t: u64, log: PacketLog) -> CauseId {
        self.0
            .record_packet(SimTime::from_ns(t), ComponentId(0), log)
    }
}

#[test]
fn injected_retransmission_detour_is_the_critical_path() {
    let mut d = Dump(Trace::disabled());
    d.0.enable();
    let span = |log: PacketLog| log.key(GROUP, SEQ);

    // --- Entries. Node 3 enters late, but its lateness will NOT be the
    // bottleneck: the injected drop on node 0's inbound packet is.
    let e0 = d.rec(
        0,
        span(PacketLog::new(CauseId::NONE, CausalKind::HostEnter).at_node(0)),
    );
    let e1 = d.rec(
        0,
        span(PacketLog::new(CauseId::NONE, CausalKind::HostEnter).at_node(1)),
    );
    let e2 = d.rec(
        0,
        span(PacketLog::new(CauseId::NONE, CausalKind::HostEnter).at_node(2)),
    );
    let e3 = d.rec(
        100,
        span(PacketLog::new(CauseId::NONE, CausalKind::HostEnter).at_node(3)),
    );

    // --- Host -> NIC handoff.
    let d0 = d.rec(
        150,
        span(PacketLog::new(e0, CausalKind::NicDispatch).at_node(0)),
    );
    let d1 = d.rec(
        150,
        span(PacketLog::new(e1, CausalKind::NicDispatch).at_node(1)),
    );
    let d2 = d.rec(
        150,
        span(PacketLog::new(e2, CausalKind::NicDispatch).at_node(2)),
    );
    let d3 = d.rec(
        250,
        span(PacketLog::new(e3, CausalKind::NicDispatch).at_node(3)),
    );

    // --- Round 1: node i -> (i+1) mod 4. The 3 -> 0 packet is DROPPED.
    let send = |d: &mut Dump, t0: u64, parent: CauseId, src: u32, dst: u32| -> CauseId {
        let f = d.rec(
            t0,
            span(PacketLog::new(parent, CausalKind::Fire).nodes(src, dst)),
        );
        let w = d.rec(
            t0 + 200,
            span(PacketLog::new(f, CausalKind::Wire).nodes(src, dst)),
        );
        d.rec(
            t0 + 250,
            span(PacketLog::new(w, CausalKind::Arrive).nodes(src, dst)),
        )
    };
    let a01 = send(&mut d, 200, d0, 0, 1);
    let a12 = send(&mut d, 200, d1, 1, 2);
    let a23 = send(&mut d, 200, d2, 2, 3);
    // Injected loss: 3 -> 0 fires and hits the wire, then drops.
    let f30 = d.rec(300, span(PacketLog::new(d3, CausalKind::Fire).nodes(3, 0)));
    let w30 = d.rec(500, span(PacketLog::new(f30, CausalKind::Wire).nodes(3, 0)));
    let _drop = d.rec(500, span(PacketLog::new(w30, CausalKind::Drop).nodes(3, 0)));

    // --- Recovery: node 0's NIC times out on the missing round-1 packet
    // (its last local stimulus is its own dispatch) and NACKs the sender;
    // the sender retransmits.
    let n03 = d.rec(
        1_000,
        span(PacketLog::new(d0, CausalKind::Nack).nodes(0, 3)),
    );
    let nw = d.rec(
        1_200,
        span(PacketLog::new(n03, CausalKind::Wire).nodes(0, 3)),
    );
    let na = d.rec(
        1_250,
        span(PacketLog::new(nw, CausalKind::Arrive).nodes(0, 3)),
    );
    let r30 = d.rec(
        1_600,
        span(PacketLog::new(na, CausalKind::Retransmit).nodes(3, 0)),
    );
    let rw = d.rec(
        1_800,
        span(PacketLog::new(r30, CausalKind::Wire).nodes(3, 0)),
    );
    let ra = d.rec(
        1_850,
        span(PacketLog::new(rw, CausalKind::Arrive).nodes(3, 0)),
    );

    // --- Round 2: node i -> (i+2) mod 4. Node 0's send was gated on the
    // retransmitted arrival; everyone else fired long ago.
    let a02 = send(&mut d, 1_900, ra, 0, 2); // the late one
    let a13 = send(&mut d, 500, a01, 1, 3);
    let a20 = send(&mut d, 500, a12, 2, 0);
    let a31 = send(&mut d, 600, a23, 3, 1);

    // --- Completion notifies and exits, parented on each node's
    // last-enabling arrival.
    let exit = |d: &mut Dump, t_notify: u64, t_exit: u64, parent: CauseId, node: u32| -> CauseId {
        let n = d.rec(
            t_notify,
            span(PacketLog::new(parent, CausalKind::Notify).at_node(node)),
        );
        d.rec(
            t_exit,
            span(PacketLog::new(n, CausalKind::HostExit).at_node(node)),
        )
    };
    let _x1 = exit(&mut d, 860, 900, a31, 1);
    let _x3 = exit(&mut d, 1_760, 1_800, a13, 3);
    let _x0 = exit(&mut d, 2_060, 2_100, a20, 0);
    let x2 = exit(&mut d, 2_200, 2_500, a02, 2);

    // --- Analyze.
    let paths = analyze(&d.0.packets().to_vec());
    assert_eq!(paths.len(), 1);
    let p = &paths[0];
    assert_eq!((p.group, p.seq), (GROUP, SEQ));
    assert_eq!(p.begin, SimTime::ZERO);
    assert_eq!(p.end, SimTime::from_ns(2_500));
    assert_eq!(p.end_node, 2, "node 2, gated on the retransmit, exits last");
    assert_eq!(p.root_node, 0, "the chain roots at node 0's own entry");
    assert_eq!(p.entry_skew, SimTime::ZERO, "node 0 entered at t=0");
    assert!(!p.truncated);
    assert_eq!(p.residual, SimTime::ZERO, "complete dump: full coverage");
    assert!((p.coverage_pct() - 100.0).abs() < 1e-9);

    // The expected longest chain, written down a priori, edge by edge:
    // (kind, src, dst, completes at, duration).
    let expected: &[(CausalKind, u32, u32, u64, u64)] = &[
        (CausalKind::NicDispatch, 0, u32::MAX, 150, 150),
        (CausalKind::Nack, 0, 3, 1_000, 850), // timeout wait: the detour begins
        (CausalKind::Wire, 0, 3, 1_200, 200),
        (CausalKind::Arrive, 0, 3, 1_250, 50),
        (CausalKind::Retransmit, 3, 0, 1_600, 350),
        (CausalKind::Wire, 3, 0, 1_800, 200),
        (CausalKind::Arrive, 3, 0, 1_850, 50),
        (CausalKind::Fire, 0, 2, 1_900, 50), // round 2 finally fires
        (CausalKind::Wire, 0, 2, 2_100, 200),
        (CausalKind::Arrive, 0, 2, 2_150, 50),
        (CausalKind::Notify, 2, u32::MAX, 2_200, 50),
        (CausalKind::HostExit, 2, u32::MAX, 2_500, 300),
    ];
    assert_eq!(p.edges.len(), expected.len(), "chain length");
    for (i, (edge, &(kind, src, dst, at, dur))) in p.edges.iter().zip(expected).enumerate() {
        assert_eq!(edge.kind, kind, "edge {i} kind");
        assert_eq!(edge.src, src, "edge {i} src");
        assert_eq!(edge.dst, dst, "edge {i} dst");
        assert_eq!(edge.at, SimTime::from_ns(at), "edge {i} completion time");
        assert_eq!(edge.dur, SimTime::from_ns(dur), "edge {i} duration");
    }

    // The injected detour is identified and quantified: NACK wait +
    // retransmission turnaround dominate the barrier.
    assert_eq!(p.detour_edges(), 2, "nack + retransmit edges");
    assert_eq!(p.detour_time(), SimTime::from_ns(1_200));

    // Per-rank slack against the last exit.
    assert_eq!(
        p.slack,
        vec![
            (0, SimTime::from_ns(400)),
            (1, SimTime::from_ns(1_600)),
            (2, SimTime::ZERO),
            (3, SimTime::from_ns(700)),
        ]
    );

    // The rendered transcript narrates the same story.
    let text = render(&paths);
    assert!(text.contains("[detour]"), "got:\n{text}");
    assert!(text.contains("coverage 100.0%"), "got:\n{text}");
    assert!(text.contains("critical rank 2"), "got:\n{text}");
    let _ = (a02, x2, e1, e2);
}
