//! The bulk stream beside the barrier loop, one per substrate.
//!
//! §6.1's motivation: "the arrived message may not immediately lead to the
//! transmission of the next message until the corresponding request gets
//! its turn in the relevant queues. This imposes unnecessary delays into
//! the barrier operations." That delay only exists when something *else*
//! occupies the queues — so a barrier app can run beside a bulk stream:
//! every process keeps `outstanding` large messages in flight to the node
//! hosting the next rank while it runs the barrier loop.
//!
//! With the paper's dedicated group queue the barrier messages bypass the
//! congested destination queues; under the group-queue ablation (or with
//! the host-based barrier) they wait their round-robin turn behind the
//! bulk tokens — the interference experiment quantifies the difference.
//!
//! [`GmStream`] rides in [`NicBarrierApp`] and
//! [`crate::host_app::HostBarrierApp`], [`ElanStream`] in
//! [`crate::elan_apps::ElanNicBarrierApp`]. [`BarrierUnderTrafficApp`] is
//! the benchmark's name for one of those combinations.

use crate::driver::BARRIER_GROUP;
use crate::host_app::NicBarrierApp;
use nicbar_elan::{ElanApi, BULK_TPORT_TAG};
use nicbar_gm::{GmApi, GmApp, GroupId, MsgId, MsgTag};
use nicbar_net::NodeId;
use std::ops::Deref;

/// Tag marking bulk-traffic messages (distinct from barrier tags, whose
/// round field never reaches 0xFF). Lives in `nicbar-gm` so the NIC can
/// classify bulk streams as occupancy-ledger owners; re-exported here for
/// the existing benchmark API.
pub use nicbar_gm::BULK_TAG;

/// Background-traffic configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrafficCfg {
    /// Bytes per bulk message.
    pub msg_bytes: u32,
    /// Bulk messages kept in flight per process.
    pub outstanding: u32,
}

impl Default for TrafficCfg {
    fn default() -> Self {
        TrafficCfg {
            msg_bytes: 4096,
            outstanding: 4,
        }
    }
}

/// The node hosting rank `rank + 1` (mod n) of the group placed on
/// `members`. The ring is in rank space, so under a permuted placement a
/// process never streams to its own node.
fn next_rank_node(members: &[NodeId], rank: usize) -> NodeId {
    members[(rank + 1) % members.len()]
}

/// The GM bulk stream: `outstanding` sends to the next rank's node, each
/// replaced when it completes while the barrier loop runs.
pub struct GmStream {
    cfg: TrafficCfg,
    peer: NodeId,
    /// Ids of in-flight bulk sends (to replenish exactly those on
    /// completion, keeping the pipeline depth constant): at most
    /// `outstanding` of them, so a scan beats hashing.
    in_flight: Vec<MsgId>,
}

impl GmStream {
    /// The stream of rank `rank` of the group placed on `members`.
    pub fn new(cfg: TrafficCfg, members: &[NodeId], rank: usize) -> Self {
        GmStream {
            cfg,
            peer: next_rank_node(members, rank),
            in_flight: Vec::with_capacity(cfg.outstanding as usize),
        }
    }

    /// Post receive buffers for the incoming stream on top of the
    /// defaults, then fill the pipeline.
    pub(crate) fn start(&mut self, api: &mut GmApi<'_>) {
        api.post_recv(self.cfg.outstanding + 4);
        for _ in 0..self.cfg.outstanding {
            self.send(api);
        }
    }

    /// Replace a completed bulk send while barriers remain (`running`).
    pub(crate) fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId, running: bool) {
        let Some(i) = self.in_flight.iter().position(|&id| id == msg_id) else {
            return;
        };
        self.in_flight.swap_remove(i);
        if running {
            self.send(api);
        }
    }

    fn send(&mut self, api: &mut GmApi<'_>) {
        let id = api.send(self.peer, self.cfg.msg_bytes, BULK_TAG);
        self.in_flight.push(id);
    }
}

/// The Elan bulk stream: a forwarding tport ring. `outstanding` messages
/// start toward the next rank's node, and each one delivered here sends one
/// more while the barrier loop runs, so the ring's depth stays constant.
pub struct ElanStream {
    cfg: TrafficCfg,
    peer: NodeId,
}

impl ElanStream {
    /// The stream of rank `rank` of the group placed on `members`.
    pub fn new(cfg: TrafficCfg, members: &[NodeId], rank: usize) -> Self {
        ElanStream {
            cfg,
            peer: next_rank_node(members, rank),
        }
    }

    /// Fill the ring.
    pub(crate) fn start(&self, api: &mut ElanApi<'_>) {
        for _ in 0..self.cfg.outstanding {
            self.send(api);
        }
    }

    /// Forward a delivered bulk message while barriers remain (`running`).
    pub(crate) fn on_recv(&self, api: &mut ElanApi<'_>, running: bool) {
        if running {
            self.send(api);
        }
    }

    fn send(&self, api: &mut ElanApi<'_>) {
        api.tport_send(self.peer, BULK_TPORT_TAG, self.cfg.msg_bytes);
    }
}

/// The benchmark's traffic app: a [`NicBarrierApp`] on [`BARRIER_GROUP`]
/// beside a [`GmStream`], without skew, on the identity placement. It
/// carries no barrier logic of its own; it stays a distinct type only
/// because `barbench` names it.
pub struct BarrierUnderTrafficApp(NicBarrierApp);

impl BarrierUnderTrafficApp {
    /// Rank `rank` of `n` (rank = node), running `iters` barriers.
    pub fn nic(rank: usize, n: usize, iters: u64, traffic: TrafficCfg) -> Self {
        let identity: Vec<NodeId> = (0..n).map(NodeId).collect();
        let stream = GmStream::new(traffic, &identity, rank);
        let app = NicBarrierApp::on_groups(vec![BARRIER_GROUP], Some(stream), iters, 0.0);
        BarrierUnderTrafficApp(app)
    }
}

impl Deref for BarrierUnderTrafficApp {
    type Target = NicBarrierApp;

    fn deref(&self) -> &NicBarrierApp {
        &self.0
    }
}

impl GmApp for BarrierUnderTrafficApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        self.0.on_start(api);
    }

    fn on_recv(&mut self, api: &mut GmApi<'_>, src: NodeId, tag: MsgTag, len: u32) {
        self.0.on_recv(api, src, tag, len);
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        self.0.on_send_done(api, msg_id);
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, epoch: u64, value: u64) {
        self.0.on_coll_done(api, group, epoch, value);
    }
}
