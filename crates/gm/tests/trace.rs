//! Trace-level protocol assertions: the event trace proves *how* the
//! protocol behaved, not just that it completed — e.g. that with the
//! dedicated group queue no collective message ever waited in a
//! destination queue.

use nicbar_gm::{
    ActionBuf, CollAction, CollFeatures, CollKind, CollPacket, GmApi, GmApp, GmCluster,
    GmClusterSpec, GmParams, GroupId, MsgTag, NicCollective,
};
use nicbar_net::NodeId;
use nicbar_sim::{SimTime, SpanEvent};

const G: GroupId = GroupId(4);

/// Minimal all-to-all collective engine (same as in coll_hook.rs).
struct AllToAll {
    node: NodeId,
    n: usize,
    got: usize,
    epoch: u64,
}

impl NicCollective for AllToAll {
    fn on_doorbell(
        &mut self,
        _now: SimTime,
        _g: GroupId,
        epoch: u64,
        _operand: &nicbar_gm::CollOperand,
        cause: nicbar_sim::CauseId,
        actions: &mut ActionBuf,
    ) {
        let _ = cause;
        self.epoch = epoch;
        for d in (0..self.n).filter(|&d| d != self.node.0) {
            actions.push_with(|| CollAction::Send {
                dst: NodeId(d),
                pkt: CollPacket {
                    src: self.node,
                    group: G,
                    epoch,
                    round: 0,
                    kind: CollKind::Barrier,
                },
                retx: false,
                cause: nicbar_sim::CauseId::NONE,
            });
        }
    }
    fn on_packet(
        &mut self,
        _now: SimTime,
        _pkt: &CollPacket,
        _cause: nicbar_sim::CauseId,
        actions: &mut ActionBuf,
    ) {
        self.got += 1;
        if self.got == self.n - 1 {
            actions.push_with(|| CollAction::HostDone {
                group: G,
                epoch: self.epoch,
                value: 0,
                cause: nicbar_sim::CauseId::NONE,
            });
        }
    }
    fn on_timer(&mut self, _now: SimTime, _actions: &mut ActionBuf) {}
    fn next_deadline(&self) -> Option<SimTime> {
        None
    }
}

struct Driver {
    done: bool,
}

impl GmApp for Driver {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        // Saturate the queue towards the ring neighbour first, then ring
        // the doorbell.
        let peer = NodeId((api.node().0 + 1) % api.num_nodes());
        for _ in 0..4 {
            api.send(peer, 4096, MsgTag(9));
        }
        api.collective(G, 0);
    }
    fn on_recv(&mut self, _api: &mut GmApi<'_>, _s: NodeId, _t: MsgTag, _l: u32) {}
    fn on_coll_done(&mut self, _api: &mut GmApi<'_>, _g: GroupId, _e: u64, _v: u64) {
        self.done = true;
    }
}

fn run(features: CollFeatures) -> GmCluster {
    let n = 4;
    let spec = GmClusterSpec::new(GmParams::lanai_xp(), n)
        .with_seed(21)
        .with_features(features);
    let apps: Vec<Box<dyn GmApp>> = (0..n)
        .map(|_| Box::new(Driver { done: false }) as Box<dyn GmApp>)
        .collect();
    let colls: Vec<Box<dyn NicCollective>> = (0..n)
        .map(|i| {
            Box::new(AllToAll {
                node: NodeId(i),
                n,
                got: 0,
                epoch: 0,
            }) as Box<dyn NicCollective>
        })
        .collect();
    let mut cluster = GmCluster::build(spec, apps, colls);
    cluster.engine.enable_trace();
    cluster.run_until(SimTime::from_us(100_000.0));
    cluster
}

#[test]
fn dedicated_queue_never_queues_a_collective_message() {
    let cluster = run(CollFeatures::paper());
    let trace = cluster.engine.trace();
    assert!(trace.count("fire") > 0, "no bypass fire events recorded");
    assert_eq!(
        trace.count("enqueue"),
        0,
        "a collective message waited in a destination queue despite the group queue"
    );
    for i in 0..4 {
        assert!(cluster.app_ref::<Driver>(i).done, "node {i} incomplete");
    }
}

#[test]
fn ablated_queue_makes_collectives_wait_behind_bulk_tokens() {
    let cluster = run(CollFeatures {
        group_queue: false,
        ..CollFeatures::paper()
    });
    let trace = cluster.engine.trace();
    let queued = trace.count("enqueue");
    assert!(
        queued > 0,
        "collective tokens never went through the queues"
    );
    // Every launched collective packet must have been enqueued first: the
    // ablated path has no bypass, so launches (fire/nack) match enqueues.
    assert_eq!(queued, trace.count("fire") + trace.count("nack"));
    // At least one collective token towards node 1 must have seen the bulk
    // backlog (non-zero queue depth at enqueue time).
    let saw_backlog = trace
        .iter()
        .any(|r| matches!(r.event, SpanEvent::Enqueue { dst: 1, depth } if depth > 0));
    assert!(
        saw_backlog,
        "no collective token ever waited behind the pre-loaded bulk queue"
    );
    for i in 0..4 {
        assert!(cluster.app_ref::<Driver>(i).done, "node {i} incomplete");
    }
}
