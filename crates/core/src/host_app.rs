//! The paper's §8 closed loop ([`BarrierLog`]) and the GM applications
//! that run it: the host-based barrier baselines and the NIC-based barrier
//! driver.
//!
//! Every barrier benchmark app, on either substrate, logs its completions
//! in a [`BarrierLog`], which says whether to re-enter at once, compute
//! first, or stop. The apps differ only in how they enter a barrier.
//!
//! The host-based barrier (the paper's `Host-DS` / `Host-PE` curves) runs
//! the NIC-based protocol's own engine, [`PaperCollective`], on the host
//! CPU through a `GroupEngine` — the adapter the Elanlib tree and the
//! NIC-thread collectives share — so only the placement differs: every
//! message crosses the I/O bus twice and traverses the full point-to-point
//! send path — token queues, packet claim, payload DMA, per-packet ACKs —
//! with the host CPU dispatching every round. The NIC-based driver posts
//! one doorbell per group per barrier and waits for the completion events.
//! Either can run beside a [`GmStream`], the §6.1 bulk traffic.

use crate::driver::BARRIER_GROUP;
use crate::protocol::{GroupOp, GroupSpec, PaperCollective};
use crate::schedule::Algorithm;
use crate::traffic::GmStream;
use nicbar_gm::{
    ActionBuf, CollAction, CollKind, CollOperand, CollPacket, GmApi, GmApp, GroupId, MsgId, MsgTag,
    NicCollective, BULK_TAG,
};
use nicbar_net::NodeId;
use nicbar_sim::{CauseId, SimRng, SimTime};
use std::sync::Arc;

/// Barrier message payload size (one integer, as in the paper).
pub const BARRIER_MSG_BYTES: u32 = 4;

/// Encode `(epoch, round)` into a GM tag. Epochs are bounded by the
/// benchmark's iteration count, so 24 bits are ample.
pub fn encode_tag(epoch: u64, round: usize) -> MsgTag {
    assert!(epoch < (1 << 24), "epoch too large for tag encoding");
    assert!(round < 256, "round too large for tag encoding");
    let epoch = u32::try_from(epoch).expect("checked by the 24-bit assert above");
    let round = u32::try_from(round).expect("checked by the 8-bit assert above");
    MsgTag((epoch << 8) | round)
}

/// Decode a tag produced by [`encode_tag`].
pub fn decode_tag(tag: MsgTag) -> (u64, usize) {
    ((tag.0 >> 8) as u64, (tag.0 & 0xff) as usize)
}

/// One group's [`PaperCollective`], driven by an application or a NIC
/// thread instead of the GM NIC. The host-based barrier, the Elanlib tree
/// and the NIC-thread collectives each feed it their stimuli and carry its
/// sends over their own transport, so all four placements run one round
/// schedule executor. Those transports are reliable (GM point-to-point,
/// Elan tports, thread RDMAs), so the engine's NACK timer is never armed.
pub(crate) struct GroupEngine {
    engine: PaperCollective,
    /// The actions of the last stimulus, walked and cleared by `relay`.
    actions: ActionBuf,
    /// Operations entered: the next doorbell's epoch.
    entered: u64,
}

impl GroupEngine {
    /// `rank`'s engine for `op` under `algo` over `members` (rank order).
    pub(crate) fn new(members: Arc<[NodeId]>, rank: usize, op: GroupOp, algo: Algorithm) -> Self {
        let node = members[rank];
        let spec = GroupSpec {
            id: BARRIER_GROUP,
            members,
            my_rank: rank,
            op,
            algo,
            timeout: SimTime::MAX,
        };
        GroupEngine {
            engine: PaperCollective::new(node, vec![spec]),
            actions: ActionBuf::new(),
            entered: 0,
        }
    }

    /// Operations completed.
    pub(crate) fn completed(&self) -> u64 {
        self.engine.completed_epochs(BARRIER_GROUP)
    }

    /// Enter the next operation with `operand`.
    pub(crate) fn enter(&mut self, now: SimTime, operand: u64) {
        let epoch = self.entered;
        self.entered += 1;
        self.engine.on_doorbell(
            now,
            BARRIER_GROUP,
            epoch,
            &CollOperand::Scalar(operand),
            CauseId::NONE,
            &mut self.actions,
        );
    }

    /// Feed `src`'s message for `(epoch, round)`.
    ///
    /// # Panics
    /// Panics on an arrival more than one epoch ahead of the last entry:
    /// a peer cannot finish an epoch this rank has not entered.
    pub(crate) fn arrive(
        &mut self,
        now: SimTime,
        src: NodeId,
        epoch: u64,
        round: usize,
        kind: CollKind,
    ) {
        assert!(
            epoch <= self.entered,
            "arrival for epoch {epoch} more than one epoch ahead of {}",
            self.entered
        );
        let pkt = CollPacket {
            src,
            group: BARRIER_GROUP,
            epoch,
            round: u16::try_from(round).expect("round exceeds u16 tag width"),
            kind,
        };
        self.engine
            .on_packet(now, &pkt, CauseId::NONE, &mut self.actions);
    }

    /// Hand each send of the last stimulus to `send`, in issue order;
    /// returns the operation's result if the stimulus completed it.
    pub(crate) fn relay(&mut self, mut send: impl FnMut(NodeId, &CollPacket)) -> Option<u64> {
        let mut done = None;
        for action in self.actions.as_slice() {
            match action {
                CollAction::Send { dst, pkt, .. } => send(*dst, pkt),
                CollAction::HostDone { value, .. } => done = Some(*value),
            }
        }
        self.actions.clear();
        done
    }
}

/// The paper's §8 closed loop and its measurement record: a process runs
/// `iters` consecutive barriers and re-enters as soon as one completes or,
/// with compute skew, after a compute phase drawn uniformly from
/// `[0, skew_us)`. Every barrier benchmark app logs its completions here
/// and asks `complete` what to do next.
#[derive(Clone, Debug)]
pub struct BarrierLog {
    /// Completion time of each epoch, in order.
    pub completions: Vec<SimTime>,
    iters: u64,
    skew_us: f64,
}

/// What a process does after a barrier completes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Next {
    /// Enter the next barrier now (the paper's tight loop).
    Enter,
    /// Compute for this long, then enter from the timer.
    Compute(SimTime),
    /// The last barrier completed.
    Stop,
}

impl BarrierLog {
    /// A loop of `iters` barriers with up to `skew_us` of compute before
    /// each re-entry (0 = the paper's tight loop). Room for every
    /// completion is reserved up front, so steady-state pushes never
    /// reallocate (the zero-allocation gate measures the run).
    pub fn new(iters: u64, skew_us: f64) -> Self {
        BarrierLog {
            completions: Vec::with_capacity(
                usize::try_from(iters).expect("iteration count exceeds usize"),
            ),
            iters,
            skew_us,
        }
    }

    /// Whether barriers remain. A bulk stream replenishes only while this
    /// holds.
    pub(crate) fn running(&self) -> bool {
        (self.completions.len() as u64) < self.iters
    }

    /// Log a completion at `now` and say what comes next. The compute
    /// phase is drawn from `rng` only when `skew_us > 0`, and a drawn phase
    /// always goes through the timer, however short.
    pub(crate) fn complete(&mut self, now: SimTime, rng: &mut SimRng) -> Next {
        self.completions.push(now);
        if !self.running() {
            Next::Stop
        } else if self.skew_us > 0.0 {
            Next::Compute(SimTime::from_us(rng.range_f64(0.0, self.skew_us)))
        } else {
            Next::Enter
        }
    }
}

/// The host-based barrier benchmark application (`Host-DS` / `Host-PE`),
/// optionally beside a bulk stream: the host CPU runs the NIC's engine
/// and sends each of its messages point to point, tagged
/// [`encode_tag`]`(epoch, round)`.
pub struct HostBarrierApp {
    group: GroupEngine,
    stream: Option<GmStream>,
    /// Measurements.
    pub log: BarrierLog,
}

impl HostBarrierApp {
    /// Build for `rank` of a group over `members` (rank order), running
    /// `iters` consecutive barriers with `algo` beside `stream`, if any.
    pub fn new(
        algo: Algorithm,
        members: impl Into<Arc<[NodeId]>>,
        rank: usize,
        iters: u64,
        skew_us: f64,
        stream: Option<GmStream>,
    ) -> Self {
        HostBarrierApp {
            group: GroupEngine::new(members.into(), rank, GroupOp::Barrier, algo),
            stream,
            log: BarrierLog::new(iters, skew_us),
        }
    }

    fn enter(&mut self, api: &mut GmApi<'_>) {
        self.group.enter(api.now(), 0);
        self.issue(api);
    }

    /// Post the engine's pending sends, then, if the barrier completed,
    /// log it and go on.
    fn issue(&mut self, api: &mut GmApi<'_>) {
        let done = self.group.relay(|dst, pkt| {
            let tag = encode_tag(pkt.epoch, usize::from(pkt.round));
            api.send(dst, BARRIER_MSG_BYTES, tag);
        });
        if done.is_some() {
            match self.log.complete(api.now(), api.rng()) {
                Next::Enter => self.enter(api),
                Next::Compute(d) => api.set_timer(d),
                Next::Stop => {}
            }
        }
    }
}

impl GmApp for HostBarrierApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if let Some(stream) = &mut self.stream {
            stream.start(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut GmApi<'_>, src: NodeId, tag: MsgTag, _len: u32) {
        if tag == BULK_TAG {
            return;
        }
        let (epoch, round) = decode_tag(tag);
        self.group
            .arrive(api.now(), src, epoch, round, CollKind::Barrier);
        self.issue(api);
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        if let Some(stream) = &mut self.stream {
            stream.on_send_done(api, msg_id, self.log.running());
        }
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        self.enter(api);
    }
}

/// The NIC-based barrier benchmark application: one doorbell per group per
/// barrier, optionally beside a bulk stream.
pub struct NicBarrierApp {
    /// Groups entered each epoch, in entry order; an epoch completes when
    /// all of them have.
    groups: Vec<GroupId>,
    /// Groups still outstanding in the current epoch.
    pending: usize,
    /// Boxed: most runs stream nothing, and every build allocates one app
    /// per node.
    stream: Option<Box<GmStream>>,
    /// Measurements.
    pub log: BarrierLog,
}

impl NicBarrierApp {
    /// Run `iters` consecutive NIC-based barriers on `group`.
    pub fn new(group: GroupId, iters: u64, skew_us: f64) -> Self {
        Self::on_groups(vec![group], None, iters, skew_us)
    }

    /// Run `iters` epochs, each entering every group of `groups` in order,
    /// beside `stream`, if any.
    pub fn on_groups(
        groups: Vec<GroupId>,
        stream: Option<GmStream>,
        iters: u64,
        skew_us: f64,
    ) -> Self {
        NicBarrierApp {
            groups,
            pending: 0,
            stream: stream.map(Box::new),
            log: BarrierLog::new(iters, skew_us),
        }
    }

    fn enter(&mut self, api: &mut GmApi<'_>) {
        self.pending = self.groups.len();
        for &g in &self.groups {
            api.collective(g, 0);
        }
    }
}

impl GmApp for NicBarrierApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if let Some(stream) = &mut self.stream {
            stream.start(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, tag: MsgTag, _len: u32) {
        assert_eq!(
            tag, BULK_TAG,
            "NIC-barrier app received a barrier point-to-point message"
        );
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        if let Some(stream) = &mut self.stream {
            stream.on_send_done(api, msg_id, self.log.running());
        }
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, epoch: u64, _value: u64) {
        assert!(self.groups.contains(&group), "completion for foreign group");
        assert_eq!(
            epoch,
            self.log.completions.len() as u64,
            "completions out of order"
        );
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        match self.log.complete(api.now(), api.rng()) {
            Next::Enter => self.enter(api),
            Next::Compute(d) => api.set_timer(d),
            Next::Stop => {}
        }
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        self.enter(api);
    }
}

/// A driver for the extension collectives: performs `iters` operations,
/// recording completion values (`on_coll_done`'s result word).
pub struct CollOpApp {
    group: GroupId,
    iters: u64,
    /// Contribution for each epoch (indexed by epoch).
    contributions: Vec<u64>,
    /// `(completion time, result value)` per epoch.
    pub results: Vec<(SimTime, u64)>,
}

impl CollOpApp {
    /// Run `iters` operations contributing `contributions[epoch]` each time.
    pub fn new(group: GroupId, contributions: Vec<u64>) -> Self {
        CollOpApp {
            group,
            iters: contributions.len() as u64,
            contributions,
            results: Vec::new(),
        }
    }
}

impl GmApp for CollOpApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        if self.iters > 0 {
            api.collective(self.group, self.contributions[0]);
        }
    }

    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, _tag: MsgTag, _len: u32) {
        panic!("collective app received a point-to-point message");
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, _group: GroupId, epoch: u64, value: u64) {
        self.results.push((api.now(), value));
        let next = epoch + 1;
        if next < self.iters {
            let next = usize::try_from(next).expect("iteration count exceeds usize");
            api.collective(self.group, self.contributions[next]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip() {
        for (epoch, round) in [(0, 0), (99_999, 7), (123_456, 7), ((1 << 24) - 1, 255)] {
            assert_eq!(decode_tag(encode_tag(epoch, round)), (epoch, round));
        }
    }

    #[test]
    fn closed_loop_reenters_computes_then_stops() {
        let mut rng = SimRng::new(1);
        let t = SimTime::from_us(1.0);
        let mut tight = BarrierLog::new(2, 0.0);
        assert!(tight.running());
        assert_eq!(tight.complete(t, &mut rng), Next::Enter);
        assert_eq!(tight.complete(t, &mut rng), Next::Stop);
        assert!(!tight.running());
        let mut skewed = BarrierLog::new(3, 2.0);
        for _ in 0..2 {
            let Next::Compute(d) = skewed.complete(t, &mut rng) else {
                panic!("a skewed loop computes before re-entering");
            };
            assert!(d < SimTime::from_us(2.0));
        }
        assert_eq!(skewed.complete(t, &mut rng), Next::Stop);
        assert_eq!(skewed.completions, vec![t; 3]);
    }

    #[test]
    #[should_panic(expected = "epoch too large")]
    fn tag_overflow_rejected() {
        encode_tag(1 << 24, 0);
    }

    #[test]
    #[should_panic(expected = "more than one epoch ahead")]
    fn group_engine_rejects_arrivals_two_epochs_ahead() {
        let members: Arc<[NodeId]> = (0..4).map(NodeId).collect();
        let mut group = GroupEngine::new(members, 0, GroupOp::Barrier, Algorithm::Dissemination);
        group.enter(SimTime::ZERO, 0);
        group.arrive(SimTime::ZERO, NodeId(3), 2, 0, CollKind::Barrier);
    }
}
