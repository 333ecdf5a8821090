//! NIC ↔ collective-engine contract tests, using a scripted stub engine:
//! doorbell dispatch, action execution order, timer arming, host
//! completion delivery, and the ablation paths (queued collective tokens,
//! per-packet ACK traffic).
#![allow(clippy::unwrap_used)] // test code: panicking on bad state is the point

use nicbar_gm::{
    ActionBuf, CollAction, CollFeatures, CollKind, CollPacket, GmApi, GmApp, GmCluster,
    GmClusterSpec, GmParams, GroupId, MsgTag, NicCollective,
};
use nicbar_net::NodeId;
use nicbar_sim::{RunOutcome, SimTime};

const G: GroupId = GroupId(1);

/// A scripted collective engine: the doorbell broadcasts one packet to
/// every peer; receiving `n-1` packets completes the operation. Exercises
/// the NIC glue without the real protocol's machinery.
struct ScriptedColl {
    node: NodeId,
    n: usize,
    got: usize,
    epoch: u64,
    armed_deadline: Option<SimTime>,
    timer_calls: u64,
}

impl ScriptedColl {
    fn new(node: NodeId, n: usize) -> Self {
        ScriptedColl {
            node,
            n,
            got: 0,
            epoch: 0,
            armed_deadline: None,
            timer_calls: 0,
        }
    }
}

impl NicCollective for ScriptedColl {
    fn on_doorbell(
        &mut self,
        now: SimTime,
        group: GroupId,
        epoch: u64,
        _operand: &nicbar_gm::CollOperand,
        cause: nicbar_sim::CauseId,
        actions: &mut ActionBuf,
    ) {
        let _ = cause;
        assert_eq!(group, G);
        self.epoch = epoch;
        self.armed_deadline = Some(now + SimTime::from_us(10_000.0));
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
        pkt: &CollPacket,
        _cause: nicbar_sim::CauseId,
        actions: &mut ActionBuf,
    ) {
        assert_eq!(pkt.group, G);
        self.got += 1;
        if self.got == self.n - 1 {
            self.armed_deadline = None;
            actions.push_with(|| CollAction::HostDone {
                group: G,
                epoch: self.epoch,
                value: 7,
                cause: nicbar_sim::CauseId::NONE,
            });
        }
    }

    fn on_timer(&mut self, _now: SimTime, _actions: &mut ActionBuf) {
        self.timer_calls += 1;
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.armed_deadline
    }
}

/// Host app: one doorbell, records the completion.
struct OneShot {
    done: Option<(u64, u64, SimTime)>,
}

impl GmApp for OneShot {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        api.collective(G, 0);
    }
    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, _tag: MsgTag, _len: u32) {
        panic!("unexpected p2p message");
    }
    fn on_coll_done(&mut self, api: &mut GmApi<'_>, _g: GroupId, epoch: u64, value: u64) {
        assert!(self.done.is_none());
        self.done = Some((epoch, value, api.now()));
    }
}

fn run(features: CollFeatures, n: usize) -> GmCluster {
    let spec = GmClusterSpec::new(GmParams::lanai_xp(), n)
        .with_seed(8)
        .with_features(features);
    let apps: Vec<Box<dyn GmApp>> = (0..n)
        .map(|_| Box::new(OneShot { done: None }) as Box<dyn GmApp>)
        .collect();
    let colls: Vec<Box<dyn NicCollective>> = (0..n)
        .map(|i| Box::new(ScriptedColl::new(NodeId(i), n)) as Box<dyn NicCollective>)
        .collect();
    let mut cluster = GmCluster::build(spec, apps, colls);
    let outcome = cluster.run_until(SimTime::from_us(100_000.0));
    assert_eq!(outcome, RunOutcome::Idle);
    cluster
}

#[test]
fn doorbell_actions_reach_every_peer_and_complete_hosts() {
    let cluster = run(CollFeatures::paper(), 4);
    for i in 0..4 {
        let (epoch, value, _) = cluster
            .app_ref::<OneShot>(i)
            .done
            .expect("host saw completion");
        assert_eq!(epoch, 0);
        assert_eq!(value, 7);
    }
    // All-to-all: 4 × 3 collective packets on the wire, no ACKs.
    assert_eq!(cluster.engine.counters().get("wire.coll"), 12);
    assert_eq!(cluster.engine.counters().get("wire.coll_ack"), 0);
}

#[test]
fn ablated_reliability_acks_every_collective_packet() {
    let cluster = run(
        CollFeatures {
            recv_driven_retx: false,
            ..CollFeatures::paper()
        },
        4,
    );
    assert_eq!(cluster.engine.counters().get("wire.coll"), 12);
    assert_eq!(cluster.engine.counters().get("wire.coll_ack"), 12);
}

#[test]
fn ablated_group_queue_routes_through_token_queues_but_still_completes() {
    let cluster = run(
        CollFeatures {
            group_queue: false,
            ..CollFeatures::paper()
        },
        4,
    );
    for i in 0..4 {
        assert!(cluster.app_ref::<OneShot>(i).done.is_some(), "host {i}");
    }
    assert_eq!(cluster.engine.counters().get("wire.coll"), 12);
}

#[test]
fn queued_collective_sends_are_slower_than_bypass() {
    let t_of = |cluster: &GmCluster| {
        (0..4)
            .map(|i| cluster.app_ref::<OneShot>(i).done.unwrap().2)
            .max()
            .unwrap()
    };
    let bypass = t_of(&run(CollFeatures::paper(), 4));
    let queued = t_of(&run(
        CollFeatures {
            group_queue: false,
            ..CollFeatures::paper()
        },
        4,
    ));
    assert!(
        queued > bypass,
        "queued path ({queued}) should be slower than bypass ({bypass})"
    );
}

#[test]
fn timer_fires_while_a_deadline_is_armed() {
    // One node rings the doorbell; its peers never respond (their engines
    // are separate instances that never see a doorbell), so the deadline
    // stays armed and the NIC's sweep must call on_timer.
    let spec = GmClusterSpec::new(GmParams::lanai_xp(), 2).with_seed(9);
    struct Quiet;
    impl GmApp for Quiet {
        fn on_start(&mut self, _api: &mut GmApi<'_>) {}
        fn on_recv(&mut self, _api: &mut GmApi<'_>, _s: NodeId, _t: MsgTag, _l: u32) {}
    }
    let apps: Vec<Box<dyn GmApp>> = vec![Box::new(OneShot { done: None }), Box::new(Quiet)];
    let colls: Vec<Box<dyn NicCollective>> = (0..2)
        .map(|i| Box::new(ScriptedColl::new(NodeId(i), 2)) as Box<dyn NicCollective>)
        .collect();
    let mut cluster = GmCluster::build(spec, apps, colls);
    let _ = cluster.run_until(SimTime::from_us(500.0));
    let nic0 = cluster.nics[0];
    let nic = cluster
        .engine
        .component_mut::<nicbar_gm::LanaiNic>(nic0)
        .unwrap();
    let coll = nic.collective_mut();
    let scripted = coll.as_any_mut().downcast_mut::<ScriptedColl>().unwrap();
    assert!(
        scripted.timer_calls > 0,
        "timer sweep never invoked the collective engine"
    );
}
