//! Thread-processor collectives on Quadrics — the §7 road not taken, plus
//! the Moody-et-al. reduction (the paper's ref \[14\]) that *requires* it.
//!
//! §7 chooses chained RDMA descriptors for the barrier because "an extra
//! thread does increase the processing load to the Elan NIC". This module
//! implements the rejected design — a NIC-thread barrier — so the claim can
//! be measured (`thread_vs_chain` tests/bench), and the thread-based
//! *allreduce*, which chained descriptors cannot express at all (they move
//! no data and compute nothing): NIC-side combining needs the thread
//! processor.
//!
//! [`ThreadCollective`] runs the GM NIC's engine,
//! [`crate::protocol::PaperCollective`], on the thread processor: the same
//! dissemination schedule and one-epoch-deep banking, its packets carried
//! as thread messages tagged with the host barrier's `(epoch, round)`
//! ([`encode_tag`]) and one value word.

use crate::host_app::{decode_tag, encode_tag, BarrierLog, GroupEngine, Next};
use crate::protocol::GroupOp;
use crate::schedule::Algorithm;
use nicbar_elan::{ElanApi, ElanApp, ElanThread, ThreadAction};
use nicbar_gm::{CollKind, MsgTag};
use nicbar_net::NodeId;
use nicbar_sim::SimTime;
use std::sync::Arc;

/// Completion cookie for thread-based collectives.
pub const THREAD_DONE_COOKIE: u64 = 0x7442;

/// The NIC-thread collective for one rank: a barrier or a
/// dissemination-butterfly allreduce (Moody-style NIC reduction).
pub struct ThreadCollective {
    group: GroupEngine,
    /// What the thread computes: [`GroupOp::Barrier`] or
    /// [`GroupOp::Allreduce`], whose messages carry one value word.
    op: GroupOp,
    /// Results per completed epoch (test observability), room for every
    /// epoch reserved up front like [`BarrierLog`]'s.
    results: Vec<u64>,
}

impl ThreadCollective {
    /// Build for `rank` of a group placed on `members`, running `op` for
    /// `iters` epochs.
    ///
    /// # Panics
    /// Panics unless `op` is a barrier or an allreduce, and on a `Sum`
    /// allreduce over a group whose size is not a power of two.
    pub fn new(members: impl Into<Arc<[NodeId]>>, rank: usize, op: GroupOp, iters: u64) -> Self {
        assert!(
            matches!(op, GroupOp::Barrier | GroupOp::Allreduce { .. }),
            "a NIC thread runs a barrier or an allreduce, not {op:?}"
        );
        let iters = usize::try_from(iters).expect("iteration count exceeds usize");
        ThreadCollective {
            group: GroupEngine::new(members.into(), rank, op, Algorithm::Dissemination),
            op,
            results: Vec::with_capacity(iters),
        }
    }

    /// Completed operation results (barrier: zeros).
    pub fn results(&self) -> &[u64] {
        &self.results
    }

    /// Turn the engine's actions into thread actions: a send per message,
    /// and a host notification if the operation completed.
    fn relay(&mut self, actions: &mut Vec<ThreadAction>) {
        let done = self.group.relay(|dst, pkt| {
            let value = match pkt.kind {
                CollKind::Barrier => 0,
                CollKind::Reduce { value } => value,
                ref kind => unreachable!("a NIC thread sends no {kind:?} packet"),
            };
            let tag = encode_tag(pkt.epoch, usize::from(pkt.round)).0;
            actions.push(ThreadAction::Send { dst, tag, value });
        });
        if let Some(value) = done {
            self.results.push(value);
            actions.push(ThreadAction::NotifyHost {
                cookie: THREAD_DONE_COOKIE,
            });
        }
    }
}

impl ElanThread for ThreadCollective {
    fn on_doorbell(&mut self, now: SimTime, value: u64, actions: &mut Vec<ThreadAction>) {
        self.group.enter(now, value);
        self.relay(actions);
    }

    fn on_msg(
        &mut self,
        now: SimTime,
        src: NodeId,
        tag: u32,
        value: u64,
        actions: &mut Vec<ThreadAction>,
    ) {
        let (epoch, round) = decode_tag(MsgTag(tag));
        let kind = match self.op {
            GroupOp::Barrier => CollKind::Barrier,
            GroupOp::Allreduce { .. } => CollKind::Reduce { value },
            op => unreachable!("checked at construction: {op:?}"),
        };
        self.group.arrive(now, src, epoch, round, kind);
        self.relay(actions);
    }
}

/// Benchmark app driving consecutive thread-based collectives (the §8
/// closed loop without compute skew).
pub struct ElanThreadApp {
    /// Contribution per epoch (allreduce operand; ignored for barrier).
    contributions: Vec<u64>,
    /// Measurements.
    pub log: BarrierLog,
}

impl ElanThreadApp {
    /// Run one operation per entry of `contributions`; `contributions[e]`
    /// is this rank's operand in epoch `e` (pass zeros for a barrier).
    pub fn new(contributions: Vec<u64>) -> Self {
        ElanThreadApp {
            log: BarrierLog::new(contributions.len() as u64, 0.0),
            contributions,
        }
    }

    fn enter(&mut self, api: &mut ElanApi<'_>) {
        api.thread_doorbell(self.contributions[self.log.completions.len()]);
    }
}

impl ElanApp for ElanThreadApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        if self.log.running() {
            self.enter(api);
        }
    }

    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        assert_eq!(cookie, THREAD_DONE_COOKIE);
        match self.log.complete(api.now(), api.rng()) {
            Next::Enter => self.enter(api),
            Next::Compute(_) => unreachable!("thread collectives run without compute skew"),
            Next::Stop => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReduceOp;

    fn doorbell(t: &mut ThreadCollective, value: u64) -> Vec<ThreadAction> {
        let mut actions = Vec::new();
        t.on_doorbell(SimTime::ZERO, value, &mut actions);
        actions
    }

    fn msg(
        t: &mut ThreadCollective,
        src: usize,
        (epoch, round): (u64, usize),
        value: u64,
    ) -> Vec<ThreadAction> {
        let mut actions = Vec::new();
        let tag = encode_tag(epoch, round).0;
        t.on_msg(SimTime::ZERO, NodeId(src), tag, value, &mut actions);
        actions
    }

    #[test]
    fn two_rank_thread_barrier_by_hand() {
        let members = vec![NodeId(0), NodeId(1)];
        let mut t0 = ThreadCollective::new(members, 0, GroupOp::Barrier, 1);
        let a = doorbell(&mut t0, 0);
        assert_eq!(a.len(), 1, "round-0 send");
        let a = msg(&mut t0, 1, (0, 0), 0);
        assert!(matches!(a[0], ThreadAction::NotifyHost { .. }));
        assert_eq!(t0.results(), &[0]);
    }

    #[test]
    fn allreduce_accumulates_across_rounds() {
        // Rank 0 of 4, Sum: contributes 1; hears 8 (round 0, covers rank 3)
        // and 6 (round 1, covers ranks 1+2 = 2+4).
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let op = GroupOp::Allreduce { op: ReduceOp::Sum };
        let mut t = ThreadCollective::new(members, 0, op, 1);
        let a = doorbell(&mut t, 1);
        // Round-0 send carries own contribution.
        assert!(matches!(a[0], ThreadAction::Send { value: 1, .. }));
        let a = msg(&mut t, 3, (0, 0), 8);
        // Round-1 send carries 1+8.
        assert!(matches!(a[0], ThreadAction::Send { value: 9, .. }));
        let a = msg(&mut t, 2, (0, 1), 6);
        assert!(matches!(a[0], ThreadAction::NotifyHost { .. }));
        assert_eq!(t.results(), &[15]);
    }

    #[test]
    fn early_next_epoch_arrivals_are_banked() {
        let members = vec![NodeId(0), NodeId(1)];
        let mut t = ThreadCollective::new(members, 0, GroupOp::Barrier, 2);
        // Epoch 0: our entry, then the peer's epoch-0 message completes it.
        let a = doorbell(&mut t, 0);
        assert_eq!(a.len(), 1);
        let a = msg(&mut t, 1, (0, 0), 0);
        assert!(matches!(a[0], ThreadAction::NotifyHost { .. }));
        // The peer races into epoch 1 before our host re-enters: its message
        // must be banked (a peer can be at most one epoch ahead — it needed
        // our epoch-0 entry, which has happened).
        assert!(msg(&mut t, 1, (1, 0), 0).is_empty());
        // Our epoch-1 doorbell releases send + immediate completion.
        let a = doorbell(&mut t, 0);
        assert_eq!(a.len(), 2);
        assert_eq!(t.results().len(), 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn sum_requires_power_of_two() {
        let members: Vec<NodeId> = (0..6).map(NodeId).collect();
        let op = GroupOp::Allreduce { op: ReduceOp::Sum };
        let _ = ThreadCollective::new(members, 0, op, 1);
    }
}
