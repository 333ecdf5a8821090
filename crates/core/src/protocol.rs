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
//!   masks, replacing per-packet send records. A barrier epoch is exactly
//!   these bits; only the data collectives, whose packets carry values,
//!   keep payload vectors beside them,
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
//! every rank's entry into `e`) bounds arrivals to `host_epoch + 1`, so the
//! banking window is at most one epoch deep — asserted in debug builds.
//!
//! ## Allocation-free steady state
//!
//! The one-epoch banking bound means at most two epochs' arrivals coexist,
//! so banking needs no map: a fixed array of `2 × num_rounds` slots indexed
//! by `(epoch parity, round)` holds every arrival as one bit of its slot's
//! mask. A barrier group stores nothing else: its send record is a `u64`
//! copied into the archive at completion, and it never allocates a payload
//! vector. A data collective also banks each arrival's payload in a vector
//! its slot sizes once at construction, and its per-epoch `sent_payloads`
//! vector rotates through a two-deep recycle (live → archive → spare →
//! live). Either way the steady state touches the heap zero times per
//! operation — the root `alloc_steady` test counts.

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
    /// Whether this operation's packets carry values, so its epochs keep
    /// payload records beside their bit vectors. A barrier's packets carry
    /// nothing: its epoch is its bit vectors alone.
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

/// Per-(epoch parity, round) arrival bookkeeping: the paper's bit vector.
///
/// Because banking is at most one epoch deep (module docs), two epochs'
/// arrivals never share a parity, so a fixed `2 × num_rounds` array of these
/// slots replaces a keyed map. `epoch` tags which epoch currently owns the
/// slot; a slot is recycled in place (mask cleared, payloads zeroed) when an
/// arrival two epochs later claims it. `payloads` holds a data collective's
/// banked values, one per expected sender; a barrier's stays empty.
#[derive(Clone, Debug, Default)]
struct RoundSlot {
    epoch: u64,
    mask: u64,
    payloads: Vec<Option<CollKind>>,
}

/// The in-progress epoch.
#[derive(Clone, Debug)]
struct LiveEpoch {
    epoch: u64,
    /// Next round whose sends have not been issued.
    next_send_round: usize,
    /// Accumulator (bcast value / reduce partial / unused for barrier).
    acc: u64,
    /// Allgather state: contribution per rank.
    gathered: Vec<Option<u64>>,
    /// Alltoall state: items this NIC currently holds in transit.
    held: Vec<AllToAllItem>,
    /// Alltoall state: values received for this rank, by origin.
    row: Vec<Option<u64>>,
    /// Last time this epoch made forward progress (NACK pacing).
    last_progress: SimTime,
    /// The epoch's send record: bit `r` is set once round `r`'s original
    /// sends go out and are recorded. A NACK for a round whose bit is clear
    /// is not served.
    sent: u64,
    /// What a data collective sent in each round, beside its bit (for NACK
    /// retransmission). Empty, and never allocated, for a barrier, whose
    /// resend is always `CollKind::Barrier`.
    sent_payloads: Vec<Option<CollKind>>,
    /// Netdump id of the record that last advanced this epoch (the doorbell
    /// dispatch or the most recent consumed arrival). Sends and completions
    /// emitted by a transition parent on this; timer NACKs for a stalled
    /// epoch parent on it too, tying the detour to the point of the stall.
    cause: CauseId,
}

/// One group's protocol state.
#[derive(Clone)]
struct GroupState {
    spec: GroupSpec,
    schedule: Schedule,
    /// Number of doorbells seen (next expected doorbell epoch).
    host_epoch: u64,
    /// Epochs fully completed.
    completed: u64,
    live: Option<LiveEpoch>,
    /// Arrival slots indexed `(epoch & 1) * num_rounds + round`; a data
    /// collective's payload vectors are sized once at construction and
    /// reused forever.
    slots: Vec<RoundSlot>,
    /// Epoch whose send record `archive_sent` (and `archive`) holds, for
    /// late NACKs. Exactly one epoch deep: a NACK for anything older can
    /// only come from a requester that has itself already completed that
    /// epoch (it reached the current one), so its retransmission would be
    /// filtered as a stale duplicate anyway.
    archive_epoch: Option<u64>,
    /// Send record (`LiveEpoch::sent`) of the most recently completed epoch.
    archive_sent: u64,
    /// Sent payloads of that epoch (data collectives; empty for a barrier).
    archive: Vec<Option<CollKind>>,
    /// Recycled `sent_payloads` storage for the next doorbell (the vector
    /// the previous completion displaced from `archive`).
    spare_payloads: Vec<Option<CollKind>>,
    nacks_sent: u64,
    retransmits: u64,
    /// Completed alltoall rows per epoch (test observability).
    rows_history: Vec<Vec<u64>>,
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
        let data = spec.op.carries_data();
        let slots = (0..2 * schedule.num_rounds())
            .map(|i| RoundSlot {
                epoch: 0,
                mask: 0,
                payloads: if data {
                    vec![None; schedule.rounds[i % schedule.num_rounds()].recv_from.len()]
                } else {
                    Vec::new()
                },
            })
            .collect();
        GroupState {
            spec,
            schedule,
            host_epoch: 0,
            completed: 0,
            live: None,
            slots,
            archive_epoch: None,
            archive_sent: 0,
            archive: Vec::new(),
            spare_payloads: Vec::new(),
            nacks_sent: 0,
            retransmits: 0,
            rows_history: Vec::new(),
            fault_skip_payload_record: false,
        }
    }

    fn n(&self) -> usize {
        self.spec.members.len()
    }

    fn slot_index(&self, epoch: u64, round: usize) -> usize {
        (epoch & 1) as usize * self.schedule.num_rounds() + round
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

    /// Fold the consumed round's payloads into the accumulator state. A
    /// barrier round has nothing to fold: consuming it clears its mask.
    fn consume_round(&mut self, epoch: u64, round: usize) {
        if self.schedule.rounds[round].recv_from.is_empty() {
            return;
        }
        let idx = self.slot_index(epoch, round);
        let GroupState {
            spec, live, slots, ..
        } = self;
        let slot = &mut slots[idx];
        debug_assert_eq!(
            slot.epoch, epoch,
            "consuming a round the slot does not hold"
        );
        slot.mask = 0;
        if !spec.op.carries_data() {
            return;
        }
        let live = live.as_mut().expect("consume without live epoch");
        for payload in slot.payloads.iter_mut().filter_map(Option::take) {
            match (&spec.op, payload) {
                (GroupOp::Broadcast { .. }, CollKind::Bcast { value }) => {
                    live.acc = value;
                }
                (GroupOp::Allreduce { op }, CollKind::Reduce { value }) => {
                    live.acc = op.combine(live.acc, value);
                }
                (GroupOp::Allgather, CollKind::Gather { base_rank, values }) => {
                    let n = live.gathered.len();
                    for (k, v) in values.into_iter().enumerate() {
                        let r = (base_rank as usize + k) % n;
                        live.gathered[r] = Some(v);
                    }
                }
                (GroupOp::Alltoall, CollKind::AllToAll { items }) => {
                    for item in items {
                        if item.dst as usize == spec.my_rank {
                            live.row[item.origin as usize] = Some(item.value);
                        } else {
                            live.held.push(item);
                        }
                    }
                }
                (op, payload) => {
                    panic!("payload {payload:?} does not match group op {op:?}")
                }
            }
        }
    }

    /// Build the payload for a send in `round`, removing in-transit items
    /// that move this phase (alltoall).
    fn payload_for_round(&mut self, round: usize) -> CollKind {
        if matches!(self.spec.op, GroupOp::Alltoall) {
            // Bruck phase m: forward every held item whose remaining
            // distance to its destination has bit m set.
            let n = self.n();
            let me = self.spec.my_rank;
            let live = self.live.as_mut().expect("send without live epoch");
            let (moving, staying): (Vec<_>, Vec<_>) = live.held.drain(..).partition(|item| {
                let remaining = (item.dst as usize + n - me) % n;
                remaining & (1 << round) != 0
            });
            live.held = staying;
            return CollKind::AllToAll { items: moving };
        }
        let live = self.live.as_ref().expect("send without live epoch");
        match self.spec.op {
            GroupOp::Barrier => CollKind::Barrier,
            GroupOp::Broadcast { .. } => CollKind::Bcast { value: live.acc },
            GroupOp::Allreduce { .. } => CollKind::Reduce { value: live.acc },
            GroupOp::Allgather => {
                // Bruck block sizes: 2^m per round, with the final round
                // truncated to the n − 2^m entries the receiver still lacks.
                let n = self.n();
                let len = (1usize << round).min(n - (1usize << round));
                let me = self.spec.my_rank;
                let base = (me + n - (len - 1)) % n;
                let values: Vec<u64> = (0..len)
                    .map(|k| {
                        let r = (base + k) % n;
                        live.gathered[r].expect("gathered window incomplete at send time")
                    })
                    .collect();
                CollKind::Gather {
                    base_rank: u32::try_from(base).expect("group rank exceeds u32"),
                    values,
                }
            }
            GroupOp::Alltoall => unreachable!("handled by the early return above"),
        }
    }

    /// The operation result delivered with `HostDone`.
    fn result(&self) -> u64 {
        let live = self.live.as_ref().expect("result without live epoch");
        match self.spec.op {
            GroupOp::Barrier => 0,
            GroupOp::Broadcast { .. } | GroupOp::Allreduce { .. } => live.acc,
            GroupOp::Allgather => live
                .gathered
                .iter()
                .map(|v| v.expect("allgather incomplete at completion"))
                .fold(0u64, u64::wrapping_add),
            GroupOp::Alltoall => {
                assert!(
                    live.held.is_empty(),
                    "undelivered alltoall items at completion"
                );
                live.row
                    .iter()
                    .map(|v| v.expect("alltoall row incomplete at completion"))
                    .fold(0u64, u64::wrapping_add)
            }
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
                // Every round's arrivals consumed and all sends issued.
                let value = self.result();
                if matches!(self.spec.op, GroupOp::Alltoall) {
                    let row = self
                        .live
                        .as_ref()
                        .expect("checked above")
                        .row
                        .iter()
                        .map(|v| v.expect("checked in result()"))
                        .collect();
                    self.rows_history.push(row);
                }
                let live = self.live.take().expect("checked above");
                // The epoch's send record becomes the archive, serving late
                // NACKs for this epoch. A data collective rotates its
                // payload storage with it: the just-sent vector becomes the
                // archive, and the vector it displaces is cleared and kept
                // as the spare the next doorbell will reuse. Steady state:
                // two vectors, zero allocations; a barrier's are empty.
                self.archive_epoch = Some(epoch);
                self.archive_sent = live.sent;
                let mut retired = std::mem::replace(&mut self.archive, live.sent_payloads);
                retired.clear();
                self.spare_payloads = retired;
                self.completed = epoch + 1;
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
                Some(self.payload_for_round(r))
            };
            let skip = self.fault_skip_payload_record;
            let live = self.live.as_mut().expect("checked above");
            if payload.is_some() && !skip {
                live.sent |= 1u64 << r;
            }
            if self.spec.op.carries_data() {
                live.sent_payloads[r] = if skip {
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
        let data = self.spec.op.carries_data();
        debug_assert!(
            data || matches!(pkt.kind, CollKind::Barrier),
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
            for p in entry.payloads.iter_mut() {
                *p = None;
            }
        }
        if entry.mask & (1u64 << slot) != 0 {
            return; // duplicate retransmission
        }
        entry.mask |= 1u64 << slot;
        if data {
            entry.payloads[slot] = Some(pkt.kind.clone());
        }
    }

    /// Payload records this group has room for, over every payload vector
    /// it owns: zero for a barrier, whose epochs are their bit vectors.
    fn payload_capacity(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.payloads.capacity())
            .sum::<usize>()
            + self.live.as_ref().map_or(0, |l| l.sent_payloads.capacity())
            + self.archive.capacity()
            + self.spare_payloads.capacity()
    }

    /// What this rank sent in `round` of `epoch`, if its send record holds
    /// that round: the live epoch's record (a round below the send
    /// frontier), or the one archived epoch's.
    fn recorded_send(&self, epoch: u64, round: usize) -> Option<CollKind> {
        let (sent, payloads) = match self.live.as_ref() {
            Some(live) if live.epoch == epoch => (live.sent, &live.sent_payloads),
            _ if self.archive_epoch == Some(epoch) => (self.archive_sent, &self.archive),
            _ => return None,
        };
        if sent & (1u64 << round) == 0 {
            return None; // not sent (yet); the normal path will deliver it
        }
        if self.spec.op.carries_data() {
            payloads[round].clone()
        } else {
            Some(CollKind::Barrier)
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
        &self.group(id).rows_history
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
    /// `rows_history`), causal bookkeeping (`cause`) and wall-clock pacing
    /// (`last_progress`, which [`PaperCollective::canonicalize_times`]
    /// zeroes before fingerprinting): two states with equal fingerprints
    /// are behaviourally equivalent under the checker's abstract clock.
    pub fn state_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for g in &self.groups {
            g.spec.id.hash(&mut h);
            g.host_epoch.hash(&mut h);
            g.completed.hash(&mut h);
            g.archive_epoch.hash(&mut h);
            g.archive_sent.hash(&mut h);
            g.archive.hash(&mut h);
            match g.live.as_ref() {
                None => 0u8.hash(&mut h),
                Some(l) => {
                    1u8.hash(&mut h);
                    l.epoch.hash(&mut h);
                    l.next_send_round.hash(&mut h);
                    l.acc.hash(&mut h);
                    l.gathered.hash(&mut h);
                    l.held.hash(&mut h);
                    l.row.hash(&mut h);
                    l.sent.hash(&mut h);
                    l.sent_payloads.hash(&mut h);
                }
            }
            for s in &g.slots {
                s.epoch.hash(&mut h);
                s.mask.hash(&mut h);
                s.payloads.hash(&mut h);
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
            let data = g.spec.op.carries_data();
            if g.completed > g.host_epoch {
                return Err(format!(
                    "group {id:?}: completed {} epochs but host only entered {}",
                    g.completed, g.host_epoch
                ));
            }
            if let Some(l) = g.live.as_ref() {
                if l.epoch + 1 != g.host_epoch {
                    return Err(format!(
                        "group {id:?}: live epoch {} does not match host epoch {}",
                        l.epoch, g.host_epoch
                    ));
                }
                if l.next_send_round > rounds {
                    return Err(format!(
                        "group {id:?}: send frontier {} beyond the {rounds}-round schedule",
                        l.next_send_round
                    ));
                }
                if data && l.sent_payloads.len() != rounds {
                    return Err(format!(
                        "group {id:?}: sent_payloads sized {} for a {rounds}-round schedule",
                        l.sent_payloads.len()
                    ));
                }
                for r in 0..l.next_send_round {
                    if !g.schedule.rounds[r].sends.is_empty() && l.sent & (1u64 << r) == 0 {
                        return Err(format!(
                            "group {id:?}: round {r} sends issued without a sent_payloads \
                             record — NACKs for this round can never be served"
                        ));
                    }
                }
                if (l.next_send_round..64).any(|r| l.sent & (1u64 << r) != 0) {
                    return Err(format!(
                        "group {id:?}: send record {:#x} has bits at or beyond the send \
                         frontier {}",
                        l.sent, l.next_send_round
                    ));
                }
                if data {
                    check_sent_payloads(id, "live", l.sent, &l.sent_payloads)?;
                }
            }
            if data && g.archive_epoch.is_some() {
                check_sent_payloads(id, "archived", g.archive_sent, &g.archive)?;
            }
            if !data {
                let stored = g.payload_capacity();
                if stored != 0 {
                    return Err(format!(
                        "group {id:?}: barrier group holds payload storage for {stored} \
                         records; its epochs are their bit vectors alone"
                    ));
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
                for (slot, p) in s.payloads.iter().enumerate() {
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

/// A data collective's send record: the round's bit is set exactly when
/// `payloads` holds what the round sent.
fn check_sent_payloads(
    id: GroupId,
    which: &str,
    sent: u64,
    payloads: &[Option<CollKind>],
) -> Result<(), String> {
    for (r, p) in payloads.iter().enumerate() {
        if (sent & (1u64 << r) != 0) != p.is_some() {
            return Err(format!(
                "group {id:?}: {which} send record bit {r} disagrees with its sent_payloads \
                 entry {p:?}"
            ));
        }
    }
    Ok(())
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
            epoch, state.host_epoch,
            "doorbell epoch out of order (group {group:?})"
        );
        assert!(
            state.live.is_none(),
            "host entered group {group:?} before the previous operation completed"
        );
        state.host_epoch += 1;
        let n = state.n();
        let me = state.spec.my_rank;
        let mut gathered = vec![
            None;
            if matches!(state.spec.op, GroupOp::Allgather) {
                n
            } else {
                0
            }
        ];
        let mut held = Vec::new();
        let mut row = Vec::new();
        let acc = match state.spec.op {
            GroupOp::Barrier => 0,
            GroupOp::Broadcast { root } => {
                if me == root {
                    operand.scalar()
                } else {
                    0
                }
            }
            GroupOp::Allreduce { .. } => operand.scalar(),
            GroupOp::Allgather => {
                gathered[me] = Some(operand.scalar());
                0
            }
            GroupOp::Alltoall => {
                let CollOperand::Vector(values) = operand else {
                    panic!("alltoall requires a vector operand (one value per rank)");
                };
                assert_eq!(
                    values.len(),
                    n,
                    "alltoall operand must have one value per rank"
                );
                row = vec![None; n];
                row[me] = Some(values[me]);
                held = values
                    .iter()
                    .enumerate()
                    .filter(|&(dst, _)| dst != me)
                    .map(|(dst, &value)| AllToAllItem {
                        origin: u32::try_from(me).expect("group rank exceeds u32"),
                        dst: u32::try_from(dst).expect("group rank exceeds u32"),
                        value,
                    })
                    .collect();
                0
            }
        };
        // A data collective reuses the vector retired by the completion
        // before last; only its first two doorbells ever allocate it. A
        // barrier's stays empty.
        let mut sent_payloads = std::mem::take(&mut state.spare_payloads);
        if state.spec.op.carries_data() {
            sent_payloads.clear();
            sent_payloads.resize(state.schedule.num_rounds(), None);
        }
        state.live = Some(LiveEpoch {
            epoch,
            next_send_round: 0,
            acc,
            gathered,
            held,
            row,
            last_progress: now,
            sent: 0,
            sent_payloads,
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
            pkt.epoch <= state.host_epoch,
            "arrival more than one epoch ahead (epoch {}, host at {})",
            pkt.epoch,
            state.host_epoch
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
            let epoch = self.group(rank).host_epoch;
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
                    0 => g.host_epoch.saturating_sub(1), // live, or just completed
                    1 => g.completed.saturating_sub(1),  // archived
                    2 => g.completed.saturating_sub(2),  // older
                    _ => g.host_epoch,                   // not entered: unsent
                };
                let pkt = nack(requester, GroupId(1), epoch, u16::try_from(round).unwrap());
                sys.deliver((rank, pkt))
            }
            7 => sys.timer(rank),
            _ if sys.idle(rank) && sys.group(rank).host_epoch < max_epochs => sys.doorbell(rank),
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
                if sys.idle(rank) && sys.group(rank).host_epoch < epochs {
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
            assert_eq!(barrier.group(rank).payload_capacity(), 0, "rank {rank}");
            assert!(reduce.group(rank).payload_capacity() > 0, "rank {rank}");
        }
        let retransmits: u64 = (0..8).map(|r| barrier.group(r).retransmits).sum();
        assert!(retransmits > 0, "the run lost no packet a NACK recovered");
    }
}
