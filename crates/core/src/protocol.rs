//! The NIC-based collective message-passing protocol (§3 and §6 of the
//! paper), as a [`NicCollective`] engine plugged into the GM NIC.
//!
//! What the paper's protocol keeps per collective operation — and this
//! engine reproduces literally:
//!
//! * **one send token per operation** in a dedicated per-group queue (the
//!   NIC charges `nic_coll_send` with no queue traversal; see
//!   `nicbar_gm::nic`),
//! * **a static, padded send packet** carrying one integer (no buffer
//!   claim, no payload DMA),
//! * **one send record with a bit vector** over the expected messages —
//!   here a `u64` of sent rounds per epoch plus the per-round arrival
//!   masks, replacing per-packet send records. A barrier group is exactly
//!   these bits; only the data collectives, whose packets carry values,
//!   keep payloads beside them,
//! * **receiver-driven retransmission**: no ACKs; a receiver stalled past
//!   the group timeout NACKs exactly the senders whose round messages are
//!   missing, and the sender retransmits from its static packet. This
//!   halves the wire packets relative to the ACK-per-packet point-to-point
//!   scheme (asserted by the integration tests).
//!
//! Beyond the paper's barrier case study, the same engine runs the §9
//! future-work collectives — broadcast, allreduce and allgather — by
//! attaching payload semantics to the identical round-schedule machinery.
//!
//! ## Epoch overlap
//!
//! Consecutive operations overlap: a neighbour can enter epoch `e+1` while
//! this NIC is still in `e`. Packets carry `(group, epoch, round)`; arrivals
//! for a future epoch are *banked* and consumed when the host's doorbell
//! opens that epoch. A simple induction (completion of epoch `e` requires
//! every rank's entry into `e`) bounds an arrival's epoch by the number of
//! epochs the host has entered, so the banking window is at most one epoch
//! deep — asserted in debug builds.
//!
//! ## Allocation-free steady state
//!
//! The one-epoch banking bound means at most two epochs coexist, so every
//! per-epoch record is indexed by epoch parity and none needs a map. A
//! fixed array of `2 × num_rounds` slots indexed by `(epoch parity, round)`
//! holds every arrival as one bit of its slot's mask, and a `[u64; 2]`
//! holds the send records of the live epoch and of the one completed before
//! it, which late NACKs are served from; completing epoch `e` clears the
//! record of `e − 1` for epoch `e + 1`, which shares its parity. A barrier
//! group is these bits and nothing else. A data collective also keeps its
//! payloads, banked and sent, in vectors sized at construction and indexed
//! as the slots are. The steady state of a barrier or an allreduce touches
//! the heap zero times per operation — the root `alloc_steady` test
//! counts; allgather and alltoall packets carry vectors of their own.

use crate::schedule::{Algorithm, Schedule};
use nicbar_gm::{
    ActionBuf, AllToAllItem, CollAction, CollKind, CollOperand, CollPacket, GroupId, NicCollective,
};
use nicbar_net::NodeId;
use nicbar_sim::{CauseId, SimTime};
use std::sync::Arc;

/// Combine operator for allreduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum (power-of-two groups only: the dissemination butterfly would
    /// double-count on wrapped windows otherwise).
    Sum,
    /// Minimum (any group size).
    Min,
    /// Maximum (any group size).
    Max,
    /// Bitwise OR (any group size).
    BitOr,
}

impl ReduceOp {
    /// Apply the operator.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::BitOr => a | b,
        }
    }

    /// Whether the dissemination butterfly computes this operator exactly
    /// for non-power-of-two group sizes (idempotent operators tolerate the
    /// wrapped-window double counting).
    pub fn tolerates_overlap(self) -> bool {
        !matches!(self, ReduceOp::Sum)
    }
}

/// The collective operation a group performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupOp {
    /// The paper's case study.
    Barrier,
    /// NIC-forwarded binomial-tree broadcast (extension, §9).
    Broadcast {
        /// Root rank.
        root: usize,
    },
    /// Allreduce over the dissemination butterfly (extension, §9).
    Allreduce {
        /// Combine operator.
        op: ReduceOp,
    },
    /// Bruck-style allgather (extension, §9).
    Allgather,
    /// Bruck-style personalized alltoall (extension, §9 names it
    /// explicitly: "such as Allgather or Alltoall").
    Alltoall,
}

impl GroupOp {
    /// Whether this operation's packets carry values, so its group keeps a
    /// `DataState` beside its bit vectors. A barrier's packets carry
    /// nothing: its group is its bit vectors alone.
    fn carries_data(self) -> bool {
        !matches!(self, GroupOp::Barrier)
    }
}

/// Static configuration of one collective group on one NIC.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// Group identifier (shared across members).
    pub id: GroupId,
    /// Member nodes in rank order. Shared (`Arc`) because every rank's spec
    /// lists the same membership: one allocation per group, not per rank,
    /// which is what keeps a 65,536-node sweep at O(n) instead of O(n²).
    /// The engine only indexes it by rank (a send's or a NACK's
    /// destination); an arrival's sender is matched against its round's
    /// expected senders instead, so no packet scans the list.
    pub members: Arc<[NodeId]>,
    /// This NIC's rank within the group.
    pub my_rank: usize,
    /// The operation this group performs.
    pub op: GroupOp,
    /// Barrier algorithm (ignored by the data collectives, which pick their
    /// natural schedules).
    pub algo: Algorithm,
    /// Receiver-driven NACK timeout.
    pub timeout: SimTime,
}

impl GroupSpec {
    /// A barrier group over `members` with `my_rank`, using `algo`.
    pub fn barrier(
        id: GroupId,
        members: impl Into<Arc<[NodeId]>>,
        my_rank: usize,
        algo: Algorithm,
        timeout: SimTime,
    ) -> Self {
        GroupSpec {
            id,
            members: members.into(),
            my_rank,
            op: GroupOp::Barrier,
            algo,
            timeout,
        }
    }

    fn build_schedule(&self) -> Schedule {
        let n = self.members.len();
        match self.op {
            GroupOp::Barrier => Schedule::for_algorithm(self.algo, n, self.my_rank),
            GroupOp::Broadcast { root } => Schedule::binomial_broadcast(n, self.my_rank, root),
            GroupOp::Allreduce { op } => {
                assert!(
                    n.is_power_of_two() || op.tolerates_overlap(),
                    "dissemination allreduce with Sum requires a power-of-two group"
                );
                Schedule::dissemination(n, self.my_rank)
            }
            GroupOp::Allgather | GroupOp::Alltoall => Schedule::dissemination(n, self.my_rank),
        }
    }
}

/// Index of `epoch`'s records in a parity-indexed array.
fn parity(epoch: u64) -> usize {
    (epoch & 1) as usize
}

/// Per-(epoch parity, round) arrival bookkeeping: the paper's bit vector.
///
/// Because banking is at most one epoch deep (module docs), two epochs'
/// arrivals never share a parity, so a fixed `2 × num_rounds` array of these
/// slots replaces a keyed map. `epoch` tags which epoch currently owns the
/// slot; a slot is recycled in place (mask cleared, with a data
/// collective's banked payloads) when an arrival two epochs later claims it.
#[derive(Clone, Copy, Debug, Default)]
struct RoundSlot {
    epoch: u64,
    mask: u64,
}

/// The in-progress epoch.
#[derive(Clone, Debug)]
struct LiveEpoch {
    epoch: u64,
    /// Next round whose sends have not been issued.
    next_send_round: usize,
    /// Last time this epoch made forward progress (NACK pacing).
    last_progress: SimTime,
    /// Netdump id of the record that last advanced this epoch (the doorbell
    /// dispatch or the most recent consumed arrival). Sends and completions
    /// emitted by a transition parent on this; timer NACKs for a stalled
    /// epoch parent on it too, tying the detour to the point of the stall.
    cause: CauseId,
}

/// What only a data collective keeps beside the bit vectors every group
/// has. Sized at construction and reused by every epoch; the doorbell
/// resets the working state (`acc`, `gathered`, `held`, `row`).
#[derive(Clone, Debug)]
struct DataState {
    /// Accumulator: the broadcast value or the reduce partial.
    acc: u64,
    /// Allgather: contribution per rank.
    gathered: Vec<Option<u64>>,
    /// Alltoall: items this NIC currently holds in transit.
    held: Vec<AllToAllItem>,
    /// Alltoall: values received for this rank, by origin.
    row: Vec<Option<u64>>,
    /// Banked payloads: one vector per arrival slot, indexed as the slots
    /// are, with one entry per expected sender, set exactly when the
    /// slot's mask bit is.
    banked: Vec<Vec<Option<CollKind>>>,
    /// What each round sent, for NACK retransmission: `2 × num_rounds`
    /// entries indexed as the slots are, each set exactly when its round's
    /// bit is set in the send record of its parity.
    sent_payloads: Vec<Option<CollKind>>,
    /// Completed alltoall rows per epoch (test observability).
    rows_history: Vec<Vec<u64>>,
}

impl DataState {
    fn new(spec: &GroupSpec, schedule: &Schedule) -> Self {
        let n = spec.members.len();
        let rounds = schedule.num_rounds();
        let per_rank = |used: bool| vec![None; if used { n } else { 0 }];
        let alltoall = matches!(spec.op, GroupOp::Alltoall);
        DataState {
            acc: 0,
            gathered: per_rank(matches!(spec.op, GroupOp::Allgather)),
            held: Vec::with_capacity(if alltoall { n } else { 0 }),
            row: per_rank(alltoall),
            banked: (0..2 * rounds)
                .map(|i| vec![None; schedule.rounds[i % rounds].recv_from.len()])
                .collect(),
            sent_payloads: vec![None; 2 * rounds],
            rows_history: Vec::new(),
        }
    }

    /// Open an epoch with the host's operand.
    fn begin(&mut self, spec: &GroupSpec, operand: &CollOperand) {
        let me = spec.my_rank;
        self.acc = 0;
        self.gathered.fill(None);
        self.held.clear();
        self.row.fill(None);
        match spec.op {
            GroupOp::Broadcast { root } => {
                if me == root {
                    self.acc = operand.scalar();
                }
            }
            GroupOp::Allreduce { .. } => self.acc = operand.scalar(),
            GroupOp::Allgather => self.gathered[me] = Some(operand.scalar()),
            GroupOp::Alltoall => {
                let CollOperand::Vector(values) = operand else {
                    panic!("alltoall requires a vector operand (one value per rank)");
                };
                assert_eq!(
                    values.len(),
                    self.row.len(),
                    "alltoall operand must have one value per rank"
                );
                self.row[me] = Some(values[me]);
                let rank = |r: usize| u32::try_from(r).expect("group rank exceeds u32");
                let items = values.iter().enumerate().filter(|&(dst, _)| dst != me);
                self.held.extend(items.map(|(dst, &value)| AllToAllItem {
                    origin: rank(me),
                    dst: rank(dst),
                    value,
                }));
            }
            GroupOp::Barrier => unreachable!("a barrier group keeps no data state"),
        }
    }

    /// Fold the payloads banked in arrival slot `slot` into the epoch's
    /// working state, emptying the slot's entries.
    fn fold(&mut self, op: GroupOp, me: usize, slot: usize) {
        let DataState {
            acc,
            gathered,
            held,
            row,
            banked,
            ..
        } = self;
        for payload in banked[slot].iter_mut().filter_map(Option::take) {
            match (op, payload) {
                (GroupOp::Broadcast { .. }, CollKind::Bcast { value }) => *acc = value,
                (GroupOp::Allreduce { op }, CollKind::Reduce { value }) => {
                    *acc = op.combine(*acc, value);
                }
                (GroupOp::Allgather, CollKind::Gather { base_rank, values }) => {
                    let n = gathered.len();
                    for (k, v) in values.into_iter().enumerate() {
                        gathered[(base_rank as usize + k) % n] = Some(v);
                    }
                }
                (GroupOp::Alltoall, CollKind::AllToAll { items }) => {
                    for item in items {
                        if item.dst as usize == me {
                            row[item.origin as usize] = Some(item.value);
                        } else {
                            held.push(item);
                        }
                    }
                }
                (op, payload) => {
                    panic!("payload {payload:?} does not match group op {op:?}")
                }
            }
        }
    }

    /// Build the payload for a send in `round`, removing the in-transit
    /// items that move this phase (alltoall).
    fn payload(&mut self, spec: &GroupSpec, round: usize) -> CollKind {
        let n = spec.members.len();
        let me = spec.my_rank;
        match spec.op {
            GroupOp::Broadcast { .. } => CollKind::Bcast { value: self.acc },
            GroupOp::Allreduce { .. } => CollKind::Reduce { value: self.acc },
            GroupOp::Allgather => {
                // Bruck block sizes: 2^m per round, with the final round
                // truncated to the n − 2^m entries the receiver still lacks.
                let len = (1usize << round).min(n - (1usize << round));
                let base = (me + n - (len - 1)) % n;
                let values = (0..len)
                    .map(|k| {
                        self.gathered[(base + k) % n]
                            .expect("gathered window incomplete at send time")
                    })
                    .collect();
                CollKind::Gather {
                    base_rank: u32::try_from(base).expect("group rank exceeds u32"),
                    values,
                }
            }
            GroupOp::Alltoall => {
                // Bruck phase m: forward every held item whose remaining
                // distance to its destination has bit m set.
                let mut items = Vec::new();
                self.held.retain(|item| {
                    let remaining = (item.dst as usize + n - me) % n;
                    let moving = remaining & (1 << round) != 0;
                    if moving {
                        items.push(*item);
                    }
                    !moving
                });
                CollKind::AllToAll { items }
            }
            GroupOp::Barrier => unreachable!("a barrier group keeps no data state"),
        }
    }

    /// The operation result delivered with `HostDone`; an alltoall also
    /// logs its completed row.
    fn finish(&mut self, op: GroupOp) -> u64 {
        match op {
            GroupOp::Broadcast { .. } | GroupOp::Allreduce { .. } => self.acc,
            GroupOp::Allgather => self
                .gathered
                .iter()
                .map(|v| v.expect("allgather incomplete at completion"))
                .fold(0u64, u64::wrapping_add),
            GroupOp::Alltoall => {
                assert!(
                    self.held.is_empty(),
                    "undelivered alltoall items at completion"
                );
                let row: Vec<u64> = self
                    .row
                    .iter()
                    .map(|v| v.expect("alltoall row incomplete at completion"))
                    .collect();
                let value = row.iter().fold(0u64, |sum, &v| sum.wrapping_add(v));
                self.rows_history.push(row);
                value
            }
            GroupOp::Barrier => unreachable!("a barrier group keeps no data state"),
        }
    }
}

/// One group's protocol state: the arrival slots and send records every
/// group keeps, and a data collective's payloads beside them.
#[derive(Clone)]
struct GroupState {
    spec: GroupSpec,
    schedule: Schedule,
    /// Epochs fully completed.
    completed: u64,
    live: Option<LiveEpoch>,
    /// Arrival slots indexed `(epoch & 1) * num_rounds + round`.
    slots: Vec<RoundSlot>,
    /// Send records by epoch parity: bit `r` of `sent[e & 1]` is set once
    /// round `r`'s original sends of epoch `e` are recorded, and a NACK for
    /// a round whose bit is clear is not served. They hold the live epoch
    /// (`completed`) and the one completed last (`completed − 1`): exactly
    /// one epoch of history, because a NACK for anything older can only
    /// come from a requester that has itself already completed that epoch
    /// (it reached the current one), so its retransmission would be
    /// filtered as a stale duplicate anyway.
    sent: [u64; 2],
    /// A data collective's state; `None` for a barrier.
    data: Option<Box<DataState>>,
    nacks_sent: u64,
    retransmits: u64,
    /// Fault injection for the model checker: when set, `try_progress`
    /// "forgets" to record what it sent (the round's bit and, for a data
    /// collective, its payload), reproducing the protocol bug the `PR002`
    /// lint guards against. Never set outside `nicbar-verify`.
    fault_skip_payload_record: bool,
}

impl GroupState {
    fn new(spec: GroupSpec) -> Self {
        let schedule = spec.build_schedule();
        assert!(
            schedule.num_rounds() <= 64,
            "schedule has {} rounds; widen the send bit vector",
            schedule.num_rounds()
        );
        for (r, plan) in schedule.rounds.iter().enumerate() {
            assert!(
                plan.recv_from.len() <= 64,
                "round {r} expects more than 64 messages; widen the bit vector"
            );
        }
        let slots = vec![RoundSlot::default(); 2 * schedule.num_rounds()];
        let data = spec
            .op
            .carries_data()
            .then(|| Box::new(DataState::new(&spec, &schedule)));
        GroupState {
            spec,
            schedule,
            completed: 0,
            live: None,
            slots,
            sent: [0; 2],
            data,
            nacks_sent: 0,
            retransmits: 0,
            fault_skip_payload_record: false,
        }
    }

    /// Epochs the host has entered, the live one included: the epoch the
    /// next doorbell must carry.
    fn entered(&self) -> u64 {
        self.completed + u64::from(self.live.is_some())
    }

    fn slot_index(&self, epoch: u64, round: usize) -> usize {
        parity(epoch) * self.schedule.num_rounds() + round
    }

    fn round_satisfied(&self, epoch: u64, round: usize) -> bool {
        let expected = self.schedule.rounds[round].recv_from.len();
        if expected == 0 {
            return true;
        }
        let full: u64 = if expected == 64 {
            u64::MAX
        } else {
            (1u64 << expected) - 1
        };
        let slot = &self.slots[self.slot_index(epoch, round)];
        slot.epoch == epoch && slot.mask & full == full
    }

    /// Consume a satisfied round: clear its mask and fold a data
    /// collective's banked payloads into the epoch's working state.
    fn consume_round(&mut self, epoch: u64, round: usize) {
        if self.schedule.rounds[round].recv_from.is_empty() {
            return;
        }
        let idx = self.slot_index(epoch, round);
        let slot = &mut self.slots[idx];
        debug_assert_eq!(
            slot.epoch, epoch,
            "consuming a round the slot does not hold"
        );
        slot.mask = 0;
        if let Some(data) = self.data.as_mut() {
            data.fold(self.spec.op, self.spec.my_rank, idx);
        }
    }

    /// Drive the round frontier as far as arrivals allow; emit sends and,
    /// on completion, the host notification.
    fn try_progress(&mut self, now: SimTime, my_node: NodeId, actions: &mut ActionBuf) {
        loop {
            let Some(live) = self.live.as_ref() else {
                return;
            };
            let epoch = live.epoch;
            let cause = live.cause;
            let r = live.next_send_round;
            if r > 0 && !self.round_satisfied(epoch, r - 1) {
                return; // stalled: waiting for round r-1 arrivals
            }
            if r > 0 {
                self.consume_round(epoch, r - 1);
            }
            if r == self.schedule.num_rounds() {
                // Every round's arrivals consumed and all sends issued. The
                // epoch's send record stays where it is, serving late NACKs;
                // the record of the epoch before it is cleared for the next
                // epoch, which shares its parity.
                let value = self.data.as_mut().map_or(0, |d| d.finish(self.spec.op));
                self.live = None;
                self.completed = epoch + 1;
                self.sent[parity(epoch + 1)] = 0;
                let (from, to) = (self.slot_index(epoch + 1, 0), self.slot_index(epoch + 1, r));
                if let Some(data) = self.data.as_mut() {
                    data.sent_payloads[from..to].fill(None);
                }
                actions.push_with(|| CollAction::HostDone {
                    group: self.spec.id,
                    epoch,
                    value,
                    cause,
                });
                return;
            }
            // Send round r's messages and record them: the round's bit in
            // the epoch's send record, and a data collective's payload
            // beside it.
            let payload = if self.schedule.rounds[r].sends.is_empty() {
                None
            } else {
                Some(match self.data.as_mut() {
                    Some(data) => data.payload(&self.spec, r),
                    None => CollKind::Barrier,
                })
            };
            let skip = self.fault_skip_payload_record;
            if payload.is_some() && !skip {
                self.sent[parity(epoch)] |= 1u64 << r;
            }
            let at = self.slot_index(epoch, r);
            if let Some(data) = self.data.as_mut() {
                data.sent_payloads[at] = if skip {
                    None // injected bug: send without the bit-vector/payload record
                } else {
                    payload.clone()
                };
            }
            if let Some(kind) = payload {
                for &dst_rank in &self.schedule.rounds[r].sends {
                    let dst = self.spec.members[dst_rank];
                    actions.push_with(|| CollAction::Send {
                        dst,
                        pkt: CollPacket {
                            src: my_node,
                            group: self.spec.id,
                            epoch,
                            round: u16::try_from(r).expect("round exceeds u16 tag width"),
                            kind: kind.clone(),
                        },
                        retx: false,
                        cause,
                    });
                }
            }
            let live = self.live.as_mut().expect("checked above");
            live.next_send_round += 1;
            live.last_progress = now;
        }
    }

    /// Record an arrival (any epoch); duplicates are idempotent. The
    /// sender is looked up among the round's expected senders — one rank
    /// under dissemination, like the single `recvpeer` of libnbc's
    /// barrier — and its position there is its bit in the round's vector.
    fn bank(&mut self, pkt: &CollPacket) {
        let round = pkt.round as usize;
        assert!(round < self.schedule.num_rounds(), "round out of schedule");
        let members = &self.spec.members;
        let slot = self.schedule.rounds[round]
            .recv_from
            .iter()
            .position(|&rank| members[rank] == pkt.src)
            .unwrap_or_else(|| {
                panic!(
                    "{:?} is not an expected sender in round {round} (group {:?})",
                    pkt.src, self.spec.id
                )
            });
        debug_assert!(
            self.data.is_some() || matches!(pkt.kind, CollKind::Barrier),
            "barrier group {:?} sent a {:?} packet",
            self.spec.id,
            pkt.kind
        );
        let idx = self.slot_index(pkt.epoch, round);
        let entry = &mut self.slots[idx];
        if entry.epoch != pkt.epoch {
            // Recycle the slot in place. Safe because banking is one epoch
            // deep: before any epoch-e arrival lands, epoch e−2 (the slot's
            // previous same-parity owner) has completed locally, so its
            // arrivals were consumed; any residue here is duplicate
            // retransmissions of a finished epoch.
            debug_assert!(
                entry.mask == 0 || entry.epoch + 2 <= pkt.epoch,
                "parity slot collision: epoch {} arrivals over unconsumed epoch {}",
                pkt.epoch,
                entry.epoch
            );
            entry.epoch = pkt.epoch;
            entry.mask = 0;
            if let Some(data) = self.data.as_mut() {
                data.banked[idx].fill(None);
            }
        }
        if entry.mask & (1u64 << slot) != 0 {
            return; // duplicate retransmission
        }
        entry.mask |= 1u64 << slot;
        if let Some(data) = self.data.as_mut() {
            data.banked[idx][slot] = Some(pkt.kind.clone());
        }
    }

    /// What this rank sent in `round` of `epoch`, if its send record holds
    /// that round: the live epoch's record (a round below the send
    /// frontier), or the record of the epoch completed last.
    fn recorded_send(&self, epoch: u64, round: usize) -> Option<CollKind> {
        let held = self.completed.checked_sub(1) == Some(epoch)
            || (epoch == self.completed && self.live.is_some());
        if !held || self.sent[parity(epoch)] & (1u64 << round) == 0 {
            return None; // not sent (yet), or too old; the normal path delivers it
        }
        match self.data.as_ref() {
            Some(data) => data.sent_payloads[self.slot_index(epoch, round)].clone(),
            None => Some(CollKind::Barrier),
        }
    }
}

/// The NIC-resident collective engine implementing the paper's protocol.
///
/// `Clone` exists for the model checker (`nicbar-verify`), which forks the
/// engine at every explored interleaving point; the simulator itself never
/// clones a NIC.
#[derive(Clone)]
pub struct PaperCollective {
    node: NodeId,
    /// One state per group, sorted by id and found by binary search.
    /// `on_timer` walks it and emits NACK sends in walk order, so the
    /// order must be the ids', never insertion or hash order.
    groups: Vec<GroupState>,
}

impl PaperCollective {
    /// Build the engine for `node` serving the given groups.
    pub fn new(node: NodeId, specs: Vec<GroupSpec>) -> Self {
        let mut groups: Vec<GroupState> = Vec::with_capacity(specs.len());
        for spec in specs {
            assert_eq!(
                spec.members[spec.my_rank], node,
                "group {:?}: my_rank does not map to this node",
                spec.id
            );
            let id = spec.id;
            match groups.binary_search_by_key(&id, |g| g.spec.id) {
                Ok(_) => panic!("duplicate group {id:?}"),
                Err(at) => groups.insert(at, GroupState::new(spec)),
            }
        }
        PaperCollective { node, groups }
    }

    /// Index of group `id` in `groups`.
    fn find(&self, id: GroupId) -> usize {
        self.groups
            .binary_search_by_key(&id, |g| g.spec.id)
            .unwrap_or_else(|_| panic!("unknown group {id:?}"))
    }

    fn group(&self, id: GroupId) -> &GroupState {
        &self.groups[self.find(id)]
    }

    fn group_mut(&mut self, id: GroupId) -> &mut GroupState {
        let at = self.find(id);
        &mut self.groups[at]
    }

    /// NACKs this NIC has issued (test observability).
    pub fn nacks_sent(&self, id: GroupId) -> u64 {
        self.group(id).nacks_sent
    }

    /// NACK-triggered retransmissions served (test observability).
    pub fn retransmits(&self, id: GroupId) -> u64 {
        self.group(id).retransmits
    }

    /// Completed epochs for a group (test observability).
    pub fn completed_epochs(&self, id: GroupId) -> u64 {
        self.group(id).completed
    }

    /// Completed alltoall rows (per epoch, indexed by origin rank).
    pub fn alltoall_rows(&self, id: GroupId) -> &[Vec<u64>] {
        match &self.group(id).data {
            Some(data) => &data.rows_history,
            None => &[],
        }
    }

    fn handle_nack(&mut self, pkt: &CollPacket, cause: CauseId, actions: &mut ActionBuf) {
        let my_node = self.node;
        let state = self.group_mut(pkt.group);
        let round = pkt.round as usize;
        let requester = pkt.src;
        debug_assert!(
            state.schedule.rounds[round]
                .sends
                .iter()
                .any(|&r| state.spec.members[r] == requester),
            "NACK from a non-target of round {round}"
        );
        if let Some(kind) = state.recorded_send(pkt.epoch, round) {
            state.retransmits += 1;
            actions.push_with(|| CollAction::Send {
                dst: requester,
                pkt: CollPacket {
                    src: my_node,
                    group: pkt.group,
                    epoch: pkt.epoch,
                    round: pkt.round,
                    kind,
                },
                retx: true,
                cause,
            });
        }
    }
}

/// FNV-1a over the bytes `Hash` implementations feed it — a deterministic,
/// dependency-free 64-bit hasher for protocol-state fingerprints. (The std
/// `DefaultHasher` would work today but its algorithm is explicitly
/// unspecified; fingerprints must be stable across toolchains.)
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Model-checker hooks (`nicbar-verify`).
///
/// The checker explores the *real* engine — these methods only expose what
/// exhaustive exploration needs: canonical state identity, machine-checkable
/// invariants, time canonicalization (so states differing only in wall-clock
/// bookkeeping merge), and one injectable protocol bug for validating that
/// the checker actually catches violations.
impl PaperCollective {
    /// Canonical 64-bit fingerprint of the protocol-visible state.
    ///
    /// Excludes observability-only fields (`nacks_sent`, `retransmits`,
    /// `rows_history`), causal bookkeeping (`cause`), wall-clock pacing
    /// (`last_progress`, which [`PaperCollective::canonicalize_times`]
    /// zeroes before fingerprinting) and a data collective's working state
    /// between epochs (the next doorbell resets it): two states with equal
    /// fingerprints are behaviourally equivalent under the checker's
    /// abstract clock.
    pub fn state_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for g in &self.groups {
            g.spec.id.hash(&mut h);
            g.completed.hash(&mut h);
            g.sent.hash(&mut h);
            match g.live.as_ref() {
                None => 0u8.hash(&mut h),
                Some(l) => {
                    1u8.hash(&mut h);
                    l.epoch.hash(&mut h);
                    l.next_send_round.hash(&mut h);
                }
            }
            for s in &g.slots {
                s.epoch.hash(&mut h);
                s.mask.hash(&mut h);
            }
            if let Some(d) = g.data.as_ref() {
                d.banked.hash(&mut h);
                d.sent_payloads.hash(&mut h);
                if g.live.is_some() {
                    d.acc.hash(&mut h);
                    d.gathered.hash(&mut h);
                    d.held.hash(&mut h);
                    d.row.hash(&mut h);
                }
            }
            g.fault_skip_payload_record.hash(&mut h);
        }
        h.finish()
    }

    /// Zero every live epoch's `last_progress` so states that differ only
    /// in NACK-pacing timestamps collapse to one fingerprint. The checker
    /// calls this after every transition; timer firings are then modelled
    /// as happening exactly at [`NicCollective::next_deadline`].
    pub fn canonicalize_times(&mut self) {
        for g in &mut self.groups {
            if let Some(live) = g.live.as_mut() {
                live.last_progress = SimTime::ZERO;
            }
        }
    }

    /// Machine-checkable protocol invariants, verified by the model checker
    /// after every transition (release builds skip the `debug_assert!`s on
    /// the hot path; these cover the same ground and more, off it).
    pub fn check_invariants(&self) -> Result<(), String> {
        for g in &self.groups {
            let id = g.spec.id;
            let rounds = g.schedule.num_rounds();
            // Parity `completed & 1` holds epoch `completed`, live or not
            // yet begun; the other holds epoch `completed − 1`, if any.
            let live_parity = parity(g.completed);
            for (p, &bits) in g.sent.iter().enumerate() {
                let begun = if p == live_parity {
                    g.live.is_some()
                } else {
                    g.completed > 0
                };
                if bits != 0 && !begun {
                    return Err(format!(
                        "group {id:?}: send record {bits:#x} of parity {p} holds an epoch \
                         that has not begun"
                    ));
                }
            }
            if let Some(l) = g.live.as_ref() {
                if l.next_send_round > rounds {
                    return Err(format!(
                        "group {id:?}: send frontier {} beyond the {rounds}-round schedule",
                        l.next_send_round
                    ));
                }
                let sent = g.sent[live_parity];
                for r in 0..l.next_send_round {
                    if !g.schedule.rounds[r].sends.is_empty() && sent & (1u64 << r) == 0 {
                        return Err(format!(
                            "group {id:?}: round {r} sends issued without a sent_payloads \
                             record — NACKs for this round can never be served"
                        ));
                    }
                }
                if (l.next_send_round..64).any(|r| sent & (1u64 << r) != 0) {
                    return Err(format!(
                        "group {id:?}: send record {sent:#x} has bits at or beyond the send \
                         frontier {}",
                        l.next_send_round
                    ));
                }
            }
            if let Some(d) = g.data.as_ref() {
                for (at, p) in d.sent_payloads.iter().enumerate() {
                    let (parity, r) = (at / rounds, at % rounds);
                    if (g.sent[parity] & (1u64 << r) != 0) != p.is_some() {
                        return Err(format!(
                            "group {id:?}: parity {parity} send record bit {r} disagrees with \
                             its sent_payloads entry {p:?}"
                        ));
                    }
                }
            }
            for (i, s) in g.slots.iter().enumerate() {
                let round = i % rounds;
                let expected = g.schedule.rounds[round].recv_from.len();
                let full: u64 = if expected == 0 {
                    0
                } else if expected == 64 {
                    u64::MAX
                } else {
                    (1u64 << expected) - 1
                };
                if s.mask & !full != 0 {
                    return Err(format!(
                        "group {id:?}: slot {i} bit vector {:#x} has bits beyond the {} \
                         expected senders of round {round}",
                        s.mask, expected
                    ));
                }
                let Some(d) = g.data.as_ref() else {
                    continue;
                };
                for (slot, p) in d.banked[i].iter().enumerate() {
                    let have = s.mask & (1u64 << slot) != 0;
                    if have && p.is_none() {
                        return Err(format!(
                            "group {id:?}: slot {i} mask bit {slot} set without a banked \
                             payload"
                        ));
                    }
                    if !have && p.is_some() {
                        return Err(format!(
                            "group {id:?}: slot {i} holds a payload at {slot} outside its \
                             bit vector"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Inject the `skip-payload-record` protocol bug into every group (see
    /// [`GroupState::fault_skip_payload_record`]). Model-checker use only.
    #[doc(hidden)]
    pub fn inject_skip_payload_record(&mut self) {
        for g in &mut self.groups {
            g.fault_skip_payload_record = true;
        }
    }
}

impl NicCollective for PaperCollective {
    fn on_doorbell(
        &mut self,
        now: SimTime,
        group: GroupId,
        epoch: u64,
        operand: &CollOperand,
        cause: CauseId,
        actions: &mut ActionBuf,
    ) {
        let my_node = self.node;
        let state = self.group_mut(group);
        assert_eq!(
            epoch,
            state.entered(),
            "doorbell epoch out of order (group {group:?})"
        );
        assert!(
            state.live.is_none(),
            "host entered group {group:?} before the previous operation completed"
        );
        if let Some(data) = state.data.as_mut() {
            data.begin(&state.spec, operand);
        }
        state.live = Some(LiveEpoch {
            epoch,
            next_send_round: 0,
            last_progress: now,
            cause,
        });
        state.try_progress(now, my_node, actions);
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &CollPacket,
        cause: CauseId,
        actions: &mut ActionBuf,
    ) {
        if matches!(pkt.kind, CollKind::Nack) {
            self.handle_nack(pkt, cause, actions);
            return;
        }
        if matches!(pkt.kind, CollKind::Ack) {
            return; // NIC-level ablation traffic; no protocol state
        }
        let my_node = self.node;
        let state = self.group_mut(pkt.group);
        debug_assert!(
            pkt.epoch <= state.entered(),
            "arrival more than one epoch ahead (epoch {}, host entered {})",
            pkt.epoch,
            state.entered()
        );
        if pkt.epoch < state.completed {
            return; // stale duplicate of a finished epoch
        }
        state.bank(pkt);
        // This arrival is the epoch's latest stimulus: anything the
        // progress sweep emits was enabled (last) by it.
        if let Some(live) = state.live.as_mut() {
            if live.epoch == pkt.epoch {
                live.cause = cause;
            }
        }
        state.try_progress(now, my_node, actions);
    }

    fn on_timer(&mut self, now: SimTime, actions: &mut ActionBuf) {
        let my_node = self.node;
        for state in &mut self.groups {
            let Some(live) = state.live.as_ref() else {
                continue;
            };
            if now.saturating_sub(live.last_progress) < state.spec.timeout {
                continue;
            }
            let epoch = live.epoch;
            // Timer NACKs are a detour off the stalled epoch: parent them on
            // the record that last advanced it, so the analyzer's chain shows
            // stall → nack → retransmit → arrival in causal order.
            let stall_cause = live.cause;
            let r = live.next_send_round;
            if r == 0 {
                continue; // nothing expected yet
            }
            let stall_round = r - 1;
            let idx = state.slot_index(epoch, stall_round);
            let have = {
                let bank = &state.slots[idx];
                if bank.epoch == epoch {
                    bank.mask
                } else {
                    0
                }
            };
            // Indexed iteration, not a clone of `recv_from`: the NACK path
            // must not allocate either (a lossy steady state is still a
            // steady state).
            for slot in 0..state.schedule.rounds[stall_round].recv_from.len() {
                if have & (1u64 << slot) != 0 {
                    continue;
                }
                let sender_rank = state.schedule.rounds[stall_round].recv_from[slot];
                state.nacks_sent += 1;
                actions.push_with(|| CollAction::Send {
                    dst: state.spec.members[sender_rank],
                    pkt: CollPacket {
                        src: my_node,
                        group: state.spec.id,
                        epoch,
                        round: u16::try_from(stall_round).expect("round exceeds u16 tag width"),
                        kind: CollKind::Nack,
                    },
                    retx: false,
                    cause: stall_cause,
                });
            }
            // Pace further NACKs by restarting the timeout window.
            state.live.as_mut().expect("checked above").last_progress = now;
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.groups
            .iter()
            .filter_map(|s| s.live.as_ref().map(|l| l.last_progress + s.spec.timeout))
            .min()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
mod tests {
    use super::*;

    fn members(n: usize) -> Arc<[NodeId]> {
        (0..n).map(NodeId).collect()
    }

    fn barrier_engine(n: usize, rank: usize) -> PaperCollective {
        let spec = GroupSpec::barrier(
            GroupId(1),
            members(n),
            rank,
            Algorithm::Dissemination,
            SimTime::from_us(100.0),
        );
        PaperCollective::new(NodeId(rank), vec![spec])
    }

    // Collect-into-Vec shims over the out-param API, so assertions can
    // stay slice-shaped.
    fn doorbell(
        e: &mut PaperCollective,
        now: SimTime,
        group: GroupId,
        epoch: u64,
        operand: &CollOperand,
    ) -> Vec<CollAction> {
        let mut buf = ActionBuf::new();
        e.on_doorbell(now, group, epoch, operand, CauseId::NONE, &mut buf);
        buf.drain().collect()
    }

    fn packet(e: &mut PaperCollective, now: SimTime, pkt: &CollPacket) -> Vec<CollAction> {
        let mut buf = ActionBuf::new();
        e.on_packet(now, pkt, CauseId::NONE, &mut buf);
        buf.drain().collect()
    }

    fn timer(e: &mut PaperCollective, now: SimTime) -> Vec<CollAction> {
        let mut buf = ActionBuf::new();
        e.on_timer(now, &mut buf);
        buf.drain().collect()
    }

    #[test]
    fn doorbell_emits_round_zero_sends() {
        let mut e = barrier_engine(4, 0);
        let actions = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        // Dissemination round 0: send to rank 1; no completion yet.
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            CollAction::Send { dst, pkt, retx, .. } => {
                assert_eq!(*dst, NodeId(1));
                assert_eq!(pkt.round, 0);
                assert_eq!(pkt.kind, CollKind::Barrier);
                assert!(!retx);
            }
            other => panic!("unexpected action {other:?}"),
        }
        // A one-rank group has no rounds: its doorbell completes it.
        for algo in [
            Algorithm::Dissemination,
            Algorithm::PairwiseExchange,
            Algorithm::GatherBroadcast { degree: 4 },
        ] {
            let timeout = SimTime::from_us(100.0);
            let spec = GroupSpec::barrier(GroupId(1), members(1), 0, algo, timeout);
            let mut solo = PaperCollective::new(NodeId(0), vec![spec]);
            let actions = doorbell(
                &mut solo,
                SimTime::ZERO,
                GroupId(1),
                0,
                &CollOperand::Scalar(0),
            );
            assert!(
                matches!(actions[..], [CollAction::HostDone { epoch: 0, .. }]),
                "{algo:?}: {actions:?}"
            );
        }
    }

    #[test]
    fn in_order_arrivals_complete_a_barrier() {
        // Drive rank 0 of a 4-rank dissemination barrier by hand: expects
        // round 0 from rank 3, round 1 from rank 2.
        let mut e = barrier_engine(4, 0);
        let a0 = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        assert_eq!(a0.len(), 1);
        let from3 = CollPacket {
            src: NodeId(3),
            group: GroupId(1),
            epoch: 0,
            round: 0,
            kind: CollKind::Barrier,
        };
        let a1 = packet(&mut e, SimTime::from_us(1.0), &from3);
        // Round 0 satisfied → round 1 send to rank 2.
        assert_eq!(a1.len(), 1);
        assert!(matches!(&a1[0], CollAction::Send { dst, .. } if *dst == NodeId(2)));
        let from2 = CollPacket {
            src: NodeId(2),
            group: GroupId(1),
            epoch: 0,
            round: 1,
            kind: CollKind::Barrier,
        };
        let a2 = packet(&mut e, SimTime::from_us(2.0), &from2);
        assert_eq!(a2.len(), 1);
        assert!(matches!(
            &a2[0],
            CollAction::HostDone {
                epoch: 0,
                value: 0,
                ..
            }
        ));
        assert_eq!(e.completed_epochs(GroupId(1)), 1);
    }

    #[test]
    fn out_of_order_and_early_epoch_arrivals_are_banked() {
        let mut e = barrier_engine(4, 0);
        // Round 1 message arrives before the doorbell and before round 0.
        let from2 = CollPacket {
            src: NodeId(2),
            group: GroupId(1),
            epoch: 0,
            round: 1,
            kind: CollKind::Barrier,
        };
        assert!(packet(&mut e, SimTime::ZERO, &from2).is_empty());
        let from3 = CollPacket {
            src: NodeId(3),
            group: GroupId(1),
            epoch: 0,
            round: 0,
            kind: CollKind::Barrier,
        };
        assert!(packet(&mut e, SimTime::ZERO, &from3).is_empty());
        // The doorbell now releases the whole chain to completion at once.
        let actions = doorbell(
            &mut e,
            SimTime::from_us(5.0),
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        let sends = actions
            .iter()
            .filter(|a| matches!(a, CollAction::Send { .. }))
            .count();
        let dones = actions
            .iter()
            .filter(|a| matches!(a, CollAction::HostDone { .. }))
            .count();
        assert_eq!(sends, 2, "round 0 and round 1 sends");
        assert_eq!(dones, 1);
    }

    #[test]
    fn duplicate_arrivals_are_idempotent() {
        let mut e = barrier_engine(4, 0);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        let from3 = CollPacket {
            src: NodeId(3),
            group: GroupId(1),
            epoch: 0,
            round: 0,
            kind: CollKind::Barrier,
        };
        let a1 = packet(&mut e, SimTime::ZERO, &from3);
        let a2 = packet(&mut e, SimTime::ZERO, &from3);
        assert_eq!(a1.len(), 1);
        assert!(a2.is_empty(), "duplicate must not re-trigger sends");
        // That duplicate came after its round was consumed. It must not
        // satisfy the same-parity round two epochs later: epoch 2 still
        // waits for its own round-0 message.
        let at = |epoch, round| CollPacket {
            src: NodeId([3, 2][round as usize]),
            group: GroupId(1),
            epoch,
            round,
            kind: CollKind::Barrier,
        };
        assert_eq!(packet(&mut e, SimTime::ZERO, &at(0, 1)).len(), 1);
        let epoch1 = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            1,
            &CollOperand::Scalar(0),
        );
        assert_eq!(epoch1.len(), 1);
        assert_eq!(packet(&mut e, SimTime::ZERO, &at(1, 0)).len(), 1);
        assert_eq!(packet(&mut e, SimTime::ZERO, &at(1, 1)).len(), 1);
        let epoch2 = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            2,
            &CollOperand::Scalar(0),
        );
        assert_eq!(epoch2.len(), 1, "round 0's send only: {epoch2:?}");
        assert!(
            packet(&mut e, SimTime::ZERO, &at(2, 1)).is_empty(),
            "round 1 banked, round 0 still open"
        );
        let done = packet(&mut e, SimTime::ZERO, &at(2, 0));
        assert!(matches!(
            done[..],
            [_, CollAction::HostDone { epoch: 2, .. }]
        ));
        assert_eq!(e.completed_epochs(GroupId(1)), 3);
    }

    #[test]
    fn parity_slots_recycle_across_epochs() {
        // A 2-rank barrier has one round (recv from the peer). Run many
        // epochs, always delivering the peer's packet one epoch early (the
        // deepest banking the protocol allows), so every epoch exercises
        // slot retagging on both parities.
        let spec = GroupSpec::barrier(
            GroupId(1),
            members(2),
            0,
            Algorithm::Dissemination,
            SimTime::from_us(100.0),
        );
        let mut e = PaperCollective::new(NodeId(0), vec![spec]);
        // Epoch 0's arrival lands before its doorbell.
        let peer = |epoch| CollPacket {
            src: NodeId(1),
            group: GroupId(1),
            epoch,
            round: 0,
            kind: CollKind::Barrier,
        };
        assert!(packet(&mut e, SimTime::ZERO, &peer(0)).is_empty());
        for epoch in 0..64 {
            let t = SimTime::from_us(epoch as f64);
            let actions = doorbell(&mut e, t, GroupId(1), epoch, &CollOperand::Scalar(0));
            // Arrival already banked → send + completion in one sweep.
            assert_eq!(actions.len(), 2, "epoch {epoch}: {actions:?}");
            assert!(matches!(actions[1], CollAction::HostDone { .. }));
            // Bank the next epoch's arrival early (one epoch ahead).
            assert!(packet(&mut e, t, &peer(epoch + 1)).is_empty());
        }
        assert_eq!(e.completed_epochs(GroupId(1)), 64);
    }

    #[test]
    fn timer_nacks_exactly_the_missing_sender() {
        let mut e = barrier_engine(4, 0);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        // Nothing arrived; after the timeout the stall round is 0 and the
        // missing sender is rank 3.
        let actions = timer(&mut e, SimTime::from_us(150.0));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            CollAction::Send { dst, pkt, retx, .. } => {
                assert_eq!(*dst, NodeId(3));
                assert_eq!(pkt.kind, CollKind::Nack);
                assert_eq!(pkt.round, 0);
                assert!(!retx, "a first-time NACK is not a retransmission");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.nacks_sent(GroupId(1)), 1);
        // Immediately after, the window restarts: no NACK storm.
        assert!(timer(&mut e, SimTime::from_us(151.0)).is_empty());
    }

    #[test]
    fn nacked_sender_retransmits_from_bit_vector() {
        let mut e = barrier_engine(4, 1);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        // Rank 2 claims it never got our round-0 message.
        let nack = CollPacket {
            src: NodeId(2),
            group: GroupId(1),
            epoch: 0,
            round: 0,
            kind: CollKind::Nack,
        };
        let actions = packet(&mut e, SimTime::from_us(200.0), &nack);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            CollAction::Send { dst, pkt, retx, .. } => {
                assert_eq!(*dst, NodeId(2));
                assert_eq!(pkt.kind, CollKind::Barrier);
                assert_eq!(pkt.round, 0);
                assert!(*retx, "a NACK-triggered resend must be flagged retx");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.retransmits(GroupId(1)), 1);
    }

    #[test]
    fn nack_for_unsent_round_is_ignored() {
        let mut e = barrier_engine(4, 1);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        // Round 1 not sent yet (round 0 arrival missing).
        let nack = CollPacket {
            src: NodeId(3),
            group: GroupId(1),
            epoch: 0,
            round: 1,
            kind: CollKind::Nack,
        };
        assert!(packet(&mut e, SimTime::from_us(200.0), &nack).is_empty());
        assert_eq!(e.retransmits(GroupId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "before the previous operation completed")]
    fn pipelined_doorbells_rejected() {
        let mut e = barrier_engine(4, 0);
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            0,
            &CollOperand::Scalar(0),
        );
        let _ = doorbell(
            &mut e,
            SimTime::ZERO,
            GroupId(1),
            1,
            &CollOperand::Scalar(0),
        );
    }

    #[test]
    fn two_rank_allreduce_sums() {
        let spec = |rank| GroupSpec {
            id: GroupId(2),
            members: members(2),
            my_rank: rank,
            op: GroupOp::Allreduce { op: ReduceOp::Sum },
            algo: Algorithm::Dissemination,
            timeout: SimTime::from_us(100.0),
        };
        let mut e0 = PaperCollective::new(NodeId(0), vec![spec(0)]);
        let a = doorbell(
            &mut e0,
            SimTime::ZERO,
            GroupId(2),
            0,
            &CollOperand::Scalar(10),
        );
        // Round 0 send carries our contribution.
        let sent = a
            .iter()
            .find_map(|x| match x {
                CollAction::Send { pkt, .. } => Some(pkt.kind.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(sent, CollKind::Reduce { value: 10 });
        // Peer's contribution arrives.
        let from1 = CollPacket {
            src: NodeId(1),
            group: GroupId(2),
            epoch: 0,
            round: 0,
            kind: CollKind::Reduce { value: 32 },
        };
        let done = packet(&mut e0, SimTime::from_us(1.0), &from1);
        assert!(matches!(done[0], CollAction::HostDone { value: 42, .. }));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn sum_allreduce_rejects_non_power_of_two() {
        let spec = GroupSpec {
            id: GroupId(3),
            members: members(6),
            my_rank: 0,
            op: GroupOp::Allreduce { op: ReduceOp::Sum },
            algo: Algorithm::Dissemination,
            timeout: SimTime::from_us(100.0),
        };
        let _ = PaperCollective::new(NodeId(0), vec![spec]);
    }

    #[test]
    fn reduce_op_semantics() {
        assert_eq!(ReduceOp::Sum.combine(2, 3), 5);
        assert_eq!(ReduceOp::Min.combine(2, 3), 2);
        assert_eq!(ReduceOp::Max.combine(2, 3), 3);
        assert_eq!(ReduceOp::BitOr.combine(0b01, 0b10), 0b11);
        assert!(!ReduceOp::Sum.tolerates_overlap());
        assert!(ReduceOp::Min.tolerates_overlap());
    }

    fn nack(src: usize, group: GroupId, epoch: u64, round: u16) -> CollPacket {
        CollPacket {
            src: NodeId(src),
            group,
            epoch,
            round,
            kind: CollKind::Nack,
        }
    }

    /// The one retransmission a NACK should produce, as `(dst, pkt)`.
    fn retransmission(actions: &[CollAction]) -> (NodeId, &CollPacket) {
        match actions {
            [CollAction::Send {
                dst,
                pkt,
                retx: true,
                ..
            }] => (*dst, pkt),
            other => panic!("expected one retransmission, got {other:?}"),
        }
    }

    #[test]
    fn nack_for_the_just_completed_epoch_is_served_from_the_archive() {
        // Rank 1 of 4 (dissemination): round 0 hears rank 0 and sends to
        // rank 2, round 1 hears rank 3 and sends to rank 3.
        let mut e = barrier_engine(4, 1);
        let g = GroupId(1);
        let _ = doorbell(&mut e, SimTime::ZERO, g, 0, &CollOperand::Scalar(0));
        let from = |src, round| CollPacket {
            src: NodeId(src),
            group: g,
            epoch: 0,
            round,
            kind: CollKind::Barrier,
        };
        let _ = packet(&mut e, SimTime::ZERO, &from(0, 0));
        let done = packet(&mut e, SimTime::ZERO, &from(3, 1));
        assert!(matches!(done[..], [CollAction::HostDone { epoch: 0, .. }]));
        // Rank 3 missed our round-1 message of the epoch we just finished.
        let actions = packet(&mut e, SimTime::from_us(200.0), &nack(3, g, 0, 1));
        let (dst, pkt) = retransmission(&actions);
        assert_eq!(dst, NodeId(3));
        assert_eq!((pkt.epoch, pkt.round), (0, 1));
        assert_eq!(pkt.kind, CollKind::Barrier);
        // Still served once the next epoch is live.
        let _ = doorbell(
            &mut e,
            SimTime::from_us(300.0),
            g,
            1,
            &CollOperand::Scalar(0),
        );
        let actions = packet(&mut e, SimTime::from_us(400.0), &nack(2, g, 0, 0));
        let (dst, pkt) = retransmission(&actions);
        assert_eq!(dst, NodeId(2));
        assert_eq!(
            (pkt.epoch, pkt.round, &pkt.kind),
            (0, 0, &CollKind::Barrier)
        );
        assert_eq!(e.retransmits(g), 2);
    }

    #[test]
    fn nack_for_the_epoch_before_the_archived_one_is_ignored() {
        // A 2-rank barrier: one round, hearing and sending to the peer.
        let spec = GroupSpec::barrier(
            GroupId(1),
            members(2),
            0,
            Algorithm::Dissemination,
            SimTime::from_us(100.0),
        );
        let mut e = PaperCollective::new(NodeId(0), vec![spec]);
        let g = GroupId(1);
        for epoch in 0..2 {
            let _ = doorbell(&mut e, SimTime::ZERO, g, epoch, &CollOperand::Scalar(0));
            let peer = CollPacket {
                src: NodeId(1),
                group: g,
                epoch,
                round: 0,
                kind: CollKind::Barrier,
            };
            assert!(matches!(
                packet(&mut e, SimTime::ZERO, &peer)[..],
                [CollAction::HostDone { .. }]
            ));
        }
        // The archive holds epoch 1 only: a NACK for epoch 0 comes from a
        // peer that has completed it already.
        assert!(packet(&mut e, SimTime::from_us(200.0), &nack(1, g, 0, 0)).is_empty());
        let _ = doorbell(
            &mut e,
            SimTime::from_us(200.0),
            g,
            2,
            &CollOperand::Scalar(0),
        );
        assert!(packet(&mut e, SimTime::from_us(300.0), &nack(1, g, 0, 0)).is_empty());
        assert_eq!(e.retransmits(g), 0);
        // The archived epoch itself is still served.
        let actions = packet(&mut e, SimTime::from_us(300.0), &nack(1, g, 1, 0));
        assert_eq!(retransmission(&actions).1.epoch, 1);
    }

    #[test]
    fn archived_allreduce_resends_the_value_it_sent() {
        let spec = GroupSpec {
            id: GroupId(2),
            members: members(2),
            my_rank: 0,
            op: GroupOp::Allreduce { op: ReduceOp::Sum },
            algo: Algorithm::Dissemination,
            timeout: SimTime::from_us(100.0),
        };
        let mut e = PaperCollective::new(NodeId(0), vec![spec]);
        let g = GroupId(2);
        let _ = doorbell(&mut e, SimTime::ZERO, g, 0, &CollOperand::Scalar(10));
        let from1 = CollPacket {
            src: NodeId(1),
            group: g,
            epoch: 0,
            round: 0,
            kind: CollKind::Reduce { value: 32 },
        };
        let done = packet(&mut e, SimTime::ZERO, &from1);
        assert!(matches!(done[..], [CollAction::HostDone { value: 42, .. }]));
        // The accumulator now reads 42; the archive must resend the 10.
        let actions = packet(&mut e, SimTime::from_us(200.0), &nack(1, g, 0, 0));
        assert_eq!(
            retransmission(&actions).1.kind,
            CollKind::Reduce { value: 10 }
        );
        // And again with the next epoch live on a different operand.
        let _ = doorbell(
            &mut e,
            SimTime::from_us(200.0),
            g,
            1,
            &CollOperand::Scalar(7),
        );
        let actions = packet(&mut e, SimTime::from_us(300.0), &nack(1, g, 0, 0));
        assert_eq!(
            retransmission(&actions).1.kind,
            CollKind::Reduce { value: 10 }
        );
        let actions = packet(&mut e, SimTime::from_us(300.0), &nack(1, g, 1, 0));
        assert_eq!(
            retransmission(&actions).1.kind,
            CollKind::Reduce { value: 7 }
        );
    }

    /// NACK timeout of the systems below.
    const TIMEOUT_US: f64 = 100.0;

    /// One N-rank group on dissemination, rank r on node r, with the
    /// packets in flight between its engines. Every transition checks the
    /// engines' invariants.
    struct System {
        engines: Vec<PaperCollective>,
        /// `(destination rank, packet)` in flight.
        wire: Vec<(usize, CollPacket)>,
        now: SimTime,
    }

    impl System {
        fn new(n: usize, op: GroupOp) -> Self {
            let engines = (0..n)
                .map(|rank| {
                    let spec = GroupSpec {
                        id: GroupId(1),
                        members: members(n),
                        my_rank: rank,
                        op,
                        algo: Algorithm::Dissemination,
                        timeout: SimTime::from_us(TIMEOUT_US),
                    };
                    PaperCollective::new(NodeId(rank), vec![spec])
                })
                .collect();
            System {
                engines,
                wire: Vec::new(),
                now: SimTime::ZERO,
            }
        }

        fn group(&self, rank: usize) -> &GroupState {
            &self.engines[rank].groups[0]
        }

        /// Put the sends of `buf` on the wire and return its actions.
        fn emit(&mut self, mut buf: ActionBuf) -> Vec<CollAction> {
            for e in &self.engines {
                e.check_invariants().unwrap();
            }
            let actions: Vec<CollAction> = buf.drain().collect();
            for a in &actions {
                if let CollAction::Send { dst, pkt, .. } = a {
                    self.wire.push((dst.0, pkt.clone()));
                }
            }
            actions
        }

        fn doorbell(&mut self, rank: usize) -> Vec<CollAction> {
            let mut buf = ActionBuf::new();
            let epoch = self.group(rank).entered();
            self.engines[rank].on_doorbell(
                self.now,
                GroupId(1),
                epoch,
                &CollOperand::Scalar(0),
                CauseId::NONE,
                &mut buf,
            );
            self.emit(buf)
        }

        fn deliver(&mut self, (dst, pkt): (usize, CollPacket)) -> Vec<CollAction> {
            let mut buf = ActionBuf::new();
            self.engines[dst].on_packet(self.now, &pkt, CauseId::NONE, &mut buf);
            self.emit(buf)
        }

        /// Fire `rank`'s timer once its NACK timeout has passed.
        fn timer(&mut self, rank: usize) -> Vec<CollAction> {
            self.now += SimTime::from_us(TIMEOUT_US * 1.5);
            let mut buf = ActionBuf::new();
            self.engines[rank].on_timer(self.now, &mut buf);
            self.emit(buf)
        }

        fn idle(&self, rank: usize) -> bool {
            self.group(rank).live.is_none()
        }
    }

    /// One adversary move, decoded from `choice`: deliver, duplicate or
    /// drop a packet in flight, ring an idle rank's doorbell (up to
    /// `max_epochs`), NACK a rank for its live, archived, older or an
    /// unsent epoch, or fire a rank's timer.
    fn adversary_step(sys: &mut System, choice: u64, max_epochs: u64) -> Vec<CollAction> {
        let n = sys.engines.len();
        let pick = (choice >> 8) as usize;
        let rank = pick % n;
        match choice % 8 {
            0..=2 if !sys.wire.is_empty() => {
                let msg = sys.wire.remove(pick % sys.wire.len());
                sys.deliver(msg)
            }
            3 if !sys.wire.is_empty() => {
                let msg = sys.wire[pick % sys.wire.len()].clone();
                sys.wire.push(msg);
                Vec::new()
            }
            4 if !sys.wire.is_empty() => {
                sys.wire.remove(pick % sys.wire.len());
                Vec::new()
            }
            6 => {
                let g = sys.group(rank);
                let round = (choice >> 16) as usize % g.schedule.num_rounds();
                let requester = g.schedule.rounds[round].sends[0];
                let epoch = match (choice >> 24) % 4 {
                    0 => g.entered().saturating_sub(1), // live, or just completed
                    1 => g.completed.saturating_sub(1), // archived
                    2 => g.completed.saturating_sub(2), // older
                    _ => g.entered(),                   // not entered: unsent
                };
                let pkt = nack(requester, GroupId(1), epoch, u16::try_from(round).unwrap());
                sys.deliver((rank, pkt))
            }
            7 => sys.timer(rank),
            _ if sys.idle(rank) && sys.group(rank).entered() < max_epochs => sys.doorbell(rank),
            _ => Vec::new(),
        }
    }

    /// An allreduce action read as the barrier action it must equal: a
    /// `Reduce { value: 0 }` packet is a barrier packet.
    fn as_barrier(mut action: CollAction) -> CollAction {
        if let CollAction::Send { pkt, .. } = &mut action {
            if pkt.kind == (CollKind::Reduce { value: 0 }) {
                pkt.kind = CollKind::Barrier;
            }
        }
        action
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// A barrier group's bit-vector record against the payload record
        /// it replaces: an all-zero `Allreduce { op: Max }` group runs the
        /// same dissemination schedule but keeps payload records. Under one
        /// random adversary (reordering, duplicates, drops, NACKs for live,
        /// archived, older and unsent rounds, timers) both systems emit the
        /// same actions, step for step, at every N from 2 to 9.
        #[test]
        fn barrier_bits_match_the_payload_record(
            script in proptest::collection::vec(proptest::any::<u64>(), 0..400),
        ) {
            for n in 2..=9 {
                let mut barrier = System::new(n, GroupOp::Barrier);
                let mut reduce = System::new(n, GroupOp::Allreduce { op: ReduceOp::Max });
                for (step, &choice) in script.iter().enumerate() {
                    let b = adversary_step(&mut barrier, choice, 6);
                    let r: Vec<CollAction> = adversary_step(&mut reduce, choice, 6)
                        .into_iter()
                        .map(as_barrier)
                        .collect();
                    proptest::prop_assert_eq!(b, r, "n={}, step {}", n, step);
                }
            }
        }
    }

    /// Run `sys` for `epochs` epochs with a fifth of deliveries lost, so
    /// recovery goes through timers, NACKs and retransmissions.
    fn run_lossy(sys: &mut System, epochs: u64, seed: u64) {
        let n = sys.engines.len();
        let mut rng = proptest::TestRng::new(seed);
        while (0..n).any(|r| sys.group(r).completed < epochs) {
            for rank in 0..n {
                if sys.idle(rank) && sys.group(rank).entered() < epochs {
                    let _ = sys.doorbell(rank);
                }
            }
            if sys.wire.is_empty() {
                for rank in 0..n {
                    let _ = sys.timer(rank);
                }
                continue;
            }
            let i = rng.below(sys.wire.len() as u64) as usize;
            let msg = sys.wire.remove(i);
            if rng.below(5) != 0 {
                let _ = sys.deliver(msg);
            }
        }
    }

    #[test]
    fn barrier_groups_hold_no_payload_storage() {
        let mut barrier = System::new(8, GroupOp::Barrier);
        run_lossy(&mut barrier, 50, 1);
        let mut reduce = System::new(8, GroupOp::Allreduce { op: ReduceOp::Max });
        run_lossy(&mut reduce, 50, 1);
        for rank in 0..8 {
            assert_eq!(barrier.group(rank).completed, 50);
            assert!(barrier.group(rank).data.is_none(), "rank {rank}");
            assert!(reduce.group(rank).data.is_some(), "rank {rank}");
        }
        let retransmits: u64 = (0..8).map(|r| barrier.group(r).retransmits).sum();
        assert!(retransmits > 0, "the run lost no packet a NACK recovered");
    }
}
