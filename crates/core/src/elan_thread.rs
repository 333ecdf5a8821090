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
//! [`ThreadCollective`] runs the same dissemination round machinery as the
//! GM engine, banked per `(epoch, round)` so consecutive operations
//! overlap safely; its messages carry the host barrier's `(epoch, round)`
//! tag ([`encode_tag`]).

use crate::host_app::{decode_tag, encode_tag, BarrierLog, Next};
use crate::protocol::ReduceOp;
use crate::schedule::Schedule;
use nicbar_elan::{ElanApi, ElanApp, ElanThread, ThreadAction};
use nicbar_gm::MsgTag;
use nicbar_net::NodeId;
use nicbar_sim::SimTime;
use std::collections::BTreeMap;

/// Completion cookie for thread-based collectives.
pub const THREAD_DONE_COOKIE: u64 = 0x7442;

/// What the thread computes each operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadOp {
    /// Pure synchronization (the §7 alternative barrier).
    Barrier,
    /// Dissemination-butterfly allreduce (Moody-style NIC reduction).
    Allreduce {
        /// Combine operator (Sum requires power-of-two groups).
        op: ReduceOp,
    },
}

/// The NIC-thread collective engine for one rank.
pub struct ThreadCollective {
    members: Vec<NodeId>,
    schedule: Schedule,
    op: ThreadOp,
    /// Doorbells seen.
    entered: u64,
    /// Operations completed.
    completed: u64,
    /// Accumulator of the live epoch.
    acc: u64,
    /// Next round whose send has not been issued (live epoch).
    next_send_round: usize,
    /// Banked arrivals: (epoch, round) → value.
    banked: BTreeMap<(u64, usize), u64>,
    /// Results per completed epoch (test observability).
    results: Vec<u64>,
}

impl ThreadCollective {
    /// Build for `rank` of a group placed on `members`.
    pub fn new(members: Vec<NodeId>, rank: usize, op: ThreadOp) -> Self {
        let n = members.len();
        if let ThreadOp::Allreduce { op } = op {
            assert!(
                n.is_power_of_two() || op.tolerates_overlap(),
                "dissemination allreduce with Sum requires a power-of-two group"
            );
        }
        ThreadCollective {
            members,
            schedule: Schedule::dissemination(n, rank),
            op,
            entered: 0,
            completed: 0,
            acc: 0,
            next_send_round: 0,
            banked: BTreeMap::new(),
            results: Vec::new(),
        }
    }

    /// Completed operation results (barrier: zeros).
    pub fn results(&self) -> &[u64] {
        &self.results
    }

    fn live_epoch(&self) -> Option<u64> {
        (self.entered > self.completed).then(|| self.entered - 1)
    }

    fn progress(&mut self) -> Vec<ThreadAction> {
        let mut actions = Vec::new();
        let Some(epoch) = self.live_epoch() else {
            return actions;
        };
        loop {
            let r = self.next_send_round;
            if r > 0 {
                // Need the round r-1 arrival before advancing.
                let Some(v) = self.banked.remove(&(epoch, r - 1)) else {
                    return actions;
                };
                match self.op {
                    ThreadOp::Barrier => {}
                    ThreadOp::Allreduce { op } => self.acc = op.combine(self.acc, v),
                }
            }
            if r == self.schedule.num_rounds() {
                self.completed = epoch + 1;
                self.results.push(match self.op {
                    ThreadOp::Barrier => 0,
                    ThreadOp::Allreduce { .. } => self.acc,
                });
                self.next_send_round = 0;
                actions.push(ThreadAction::NotifyHost {
                    cookie: THREAD_DONE_COOKIE,
                    value: self.acc,
                });
                return actions;
            }
            for &dst_rank in &self.schedule.rounds[r].sends {
                actions.push(ThreadAction::Send {
                    dst: self.members[dst_rank],
                    tag: encode_tag(epoch, r).0,
                    value: self.acc,
                });
            }
            self.next_send_round = r + 1;
        }
    }
}

impl ElanThread for ThreadCollective {
    fn on_doorbell(&mut self, _now: SimTime, value: u64) -> Vec<ThreadAction> {
        assert_eq!(
            self.entered, self.completed,
            "thread doorbell before the previous operation completed"
        );
        self.entered += 1;
        self.acc = match self.op {
            ThreadOp::Barrier => 0,
            ThreadOp::Allreduce { .. } => value,
        };
        self.next_send_round = 0;
        self.progress()
    }

    fn on_msg(&mut self, _now: SimTime, src: NodeId, tag: u32, value: u64) -> Vec<ThreadAction> {
        let (epoch, round) = decode_tag(MsgTag(tag));
        debug_assert!(
            self.schedule.rounds[round]
                .recv_from
                .iter()
                .any(|&r| self.members[r] == src),
            "thread message from an unexpected sender"
        );
        debug_assert!(
            epoch <= self.entered,
            "thread arrival more than one epoch ahead"
        );
        let prev = self.banked.insert((epoch, round), value);
        debug_assert!(prev.is_none(), "duplicate thread arrival (hw-reliable net)");
        self.progress()
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

    #[test]
    fn two_rank_thread_barrier_by_hand() {
        let members = vec![NodeId(0), NodeId(1)];
        let mut t0 = ThreadCollective::new(members.clone(), 0, ThreadOp::Barrier);
        let a = t0.on_doorbell(SimTime::ZERO, 0);
        assert_eq!(a.len(), 1, "round-0 send");
        let a = t0.on_msg(SimTime::ZERO, NodeId(1), encode_tag(0, 0).0, 0);
        assert!(matches!(a[0], ThreadAction::NotifyHost { .. }));
        assert_eq!(t0.results(), &[0]);
    }

    #[test]
    fn allreduce_accumulates_across_rounds() {
        // Rank 0 of 4, Sum: contributes 1; hears 8 (round 0, covers rank 3)
        // and 6 (round 1, covers ranks 1+2 = 2+4).
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut t = ThreadCollective::new(members, 0, ThreadOp::Allreduce { op: ReduceOp::Sum });
        let a = t.on_doorbell(SimTime::ZERO, 1);
        // Round-0 send carries own contribution.
        assert!(matches!(a[0], ThreadAction::Send { value: 1, .. }));
        let a = t.on_msg(SimTime::ZERO, NodeId(3), encode_tag(0, 0).0, 8);
        // Round-1 send carries 1+8.
        assert!(matches!(a[0], ThreadAction::Send { value: 9, .. }));
        let a = t.on_msg(SimTime::ZERO, NodeId(2), encode_tag(0, 1).0, 6);
        assert!(matches!(a[0], ThreadAction::NotifyHost { value: 15, .. }));
        assert_eq!(t.results(), &[15]);
    }

    #[test]
    fn early_next_epoch_arrivals_are_banked() {
        let members = vec![NodeId(0), NodeId(1)];
        let mut t = ThreadCollective::new(members, 0, ThreadOp::Barrier);
        // Epoch 0: our entry, then the peer's epoch-0 message completes it.
        let a = t.on_doorbell(SimTime::ZERO, 0);
        assert_eq!(a.len(), 1);
        let a = t.on_msg(SimTime::ZERO, NodeId(1), encode_tag(0, 0).0, 0);
        assert!(matches!(a[0], ThreadAction::NotifyHost { .. }));
        // The peer races into epoch 1 before our host re-enters: its message
        // must be banked (a peer can be at most one epoch ahead — it needed
        // our epoch-0 entry, which has happened).
        assert!(t
            .on_msg(SimTime::ZERO, NodeId(1), encode_tag(1, 0).0, 0)
            .is_empty());
        // Our epoch-1 doorbell releases send + immediate completion.
        let a = t.on_doorbell(SimTime::ZERO, 0);
        assert_eq!(a.len(), 2);
        assert_eq!(t.results().len(), 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn sum_requires_power_of_two() {
        let members: Vec<NodeId> = (0..6).map(NodeId).collect();
        let _ = ThreadCollective::new(members, 0, ThreadOp::Allreduce { op: ReduceOp::Sum });
    }
}
