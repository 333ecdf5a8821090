//! The NIC ↔ collective-protocol boundary.
//!
//! The paper's protocol logic (schedules, bit vectors, NACK policy) lives in
//! `nicbar-core`; the GM NIC only knows this trait. The NIC invokes the
//! engine on the three stimuli that exist at NIC level — a host doorbell, an
//! arriving collective packet, a timer sweep — and executes the returned
//! [`CollAction`]s with the *collective* cost model (dedicated queue, static
//! packet) or, under ablation, with point-to-point-equivalent surcharges.

use crate::types::{CollPacket, GroupId};
use nicbar_net::NodeId;
use nicbar_sim::engine::AsAny;
use nicbar_sim::{CauseId, SimTime};

/// The host's operand to a collective doorbell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollOperand {
    /// A single word (barrier: ignored; reduce: contribution; bcast at the
    /// root: the payload).
    Scalar(u64),
    /// A word per rank (alltoall: the personalized row).
    Vector(Vec<u64>),
}

impl CollOperand {
    /// The scalar view (panics on vectors — scalar ops must not receive
    /// vector operands).
    pub fn scalar(&self) -> u64 {
        match self {
            CollOperand::Scalar(v) => *v,
            CollOperand::Vector(_) => panic!("vector operand for a scalar collective"),
        }
    }
}

/// Actions a collective engine asks its NIC to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollAction {
    /// Transmit a collective packet (from the group's static send packet).
    Send {
        /// Destination NIC.
        dst: NodeId,
        /// The packet.
        pkt: CollPacket,
        /// True when this send repeats an earlier one (NACK-triggered
        /// retransmission) — lets the NIC attribute it to the retransmit
        /// phase instead of a first-time fire.
        retx: bool,
        /// Netdump id of the stimulus that caused this send — the record
        /// the NIC's `fire`/`nack`/`retransmit` record will parent on. For
        /// doorbell/packet-triggered sends this is the stimulus record; for
        /// timer-generated NACKs it is the record that last advanced the
        /// stalled epoch.
        cause: CauseId,
    },
    /// Deliver operation completion to the host.
    HostDone {
        /// Process group.
        group: GroupId,
        /// Completed epoch.
        epoch: u64,
        /// Result value (0 for barrier).
        value: u64,
        /// Netdump id of the stimulus that completed the operation (the
        /// last-enabling arrival or the doorbell itself).
        cause: CauseId,
    },
}

/// The reusable action scratch the NIC hands to its collective engine.
///
/// The engine appends with [`ActionBuf::push_with`], which builds each
/// action straight into the buffer's spare slot; the NIC walks the
/// actions in place through [`ActionBuf::as_slice`], then
/// [`ActionBuf::clear`]s the buffer, keeping its capacity for the next
/// stimulus. Ownership rule: the *caller* clears after walking — an engine
/// must never clear a buffer it is handed, only append, so callers can
/// batch several stimuli into one walk if they choose.
#[derive(Debug, Default)]
pub struct ActionBuf {
    actions: Vec<CollAction>,
}

impl ActionBuf {
    /// An empty buffer (no capacity reserved yet).
    pub fn new() -> Self {
        ActionBuf::default()
    }

    /// Append the action `build` returns, built in place: room for it is
    /// reserved first, so `build` writes the action straight into the
    /// buffer rather than into a stack temporary that a push would then
    /// copy.
    #[inline(always)]
    pub fn push_with(&mut self, build: impl FnOnce() -> CollAction) {
        self.actions.reserve(1);
        let len = self.actions.len();
        // SAFETY: `reserve(1)` above guarantees `capacity() > len`, so
        // slot `len` lies inside the allocation and holds no live action.
        // The length grows only after the write, so a panic inside `build`
        // leaves the buffer as it was.
        unsafe {
            self.actions.as_mut_ptr().add(len).write(build());
            self.actions.set_len(len + 1);
        }
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Read-only view of the buffered actions.
    pub fn as_slice(&self) -> &[CollAction] {
        &self.actions
    }

    /// Drain all buffered actions in order, keeping the capacity.
    pub fn drain(&mut self) -> std::vec::Drain<'_, CollAction> {
        self.actions.drain(..)
    }

    /// Drop all buffered actions, keeping the capacity.
    pub fn clear(&mut self) {
        self.actions.clear();
    }
}

/// A NIC-resident collective protocol engine.
///
/// Implementations must be deterministic state machines: every method is a
/// pure transition on `(state, stimulus) → (state, actions)`, with the
/// actions appended to the caller-owned [`ActionBuf`] (steady state stays
/// allocation-free once its capacity is warm). Time-dependent behaviour (the
/// receiver-driven NACK timer) is expressed through
/// [`NicCollective::next_deadline`], which the NIC uses to arm its timer
/// sweep.
pub trait NicCollective: AsAny + Send + 'static {
    /// Host posted a collective doorbell with its operand. `cause` is the
    /// netdump id of the NIC's dispatch record for the doorbell; actions it
    /// enables must carry it (or [`CauseId::NONE`] when the dump is off).
    fn on_doorbell(
        &mut self,
        now: SimTime,
        group: GroupId,
        epoch: u64,
        operand: &CollOperand,
        cause: CauseId,
        actions: &mut ActionBuf,
    );

    /// A collective packet arrived from the wire. `cause` is the netdump id
    /// of the NIC's arrival record for this packet.
    fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &CollPacket,
        cause: CauseId,
        actions: &mut ActionBuf,
    );

    /// Timer sweep: emit NACKs for overdue expected packets, retransmit
    /// NACKed sends, etc.
    fn on_timer(&mut self, now: SimTime, actions: &mut ActionBuf);

    /// Earliest future instant at which `on_timer` needs to run, if any.
    fn next_deadline(&self) -> Option<SimTime>;
}

/// A collective engine that supports nothing — the default for NICs in
/// clusters that only exercise the point-to-point protocol.
pub struct NullCollective;

impl NicCollective for NullCollective {
    fn on_doorbell(
        &mut self,
        _now: SimTime,
        group: GroupId,
        _epoch: u64,
        _operand: &CollOperand,
        _cause: CauseId,
        _actions: &mut ActionBuf,
    ) {
        panic!("no collective engine installed on this NIC (group {group:?})");
    }

    fn on_packet(
        &mut self,
        _now: SimTime,
        pkt: &CollPacket,
        _cause: CauseId,
        _actions: &mut ActionBuf,
    ) {
        panic!("unexpected collective packet {pkt:?} on a NIC with no collective engine");
    }

    fn on_timer(&mut self, _now: SimTime, _actions: &mut ActionBuf) {}

    fn next_deadline(&self) -> Option<SimTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CollKind;

    #[test]
    fn null_collective_times_out_quietly() {
        let mut n = NullCollective;
        let mut buf = ActionBuf::new();
        n.on_timer(SimTime::ZERO, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(n.next_deadline(), None);
    }

    #[test]
    #[should_panic(expected = "no collective engine")]
    fn null_collective_rejects_doorbells() {
        NullCollective.on_doorbell(
            SimTime::ZERO,
            GroupId(0),
            0,
            &CollOperand::Scalar(0),
            CauseId::NONE,
            &mut ActionBuf::new(),
        );
    }

    #[test]
    fn action_buf_drains_in_order_and_keeps_capacity() {
        let mut buf = ActionBuf::new();
        for epoch in 0..4 {
            buf.push_with(|| CollAction::HostDone {
                group: GroupId(1),
                epoch,
                value: 0,
                cause: CauseId::NONE,
            });
        }
        assert_eq!(buf.len(), 4);
        let epochs: Vec<u64> = buf
            .drain()
            .map(|a| match a {
                CollAction::HostDone { epoch, .. } => epoch,
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(epochs, vec![0, 1, 2, 3]);
        assert!(buf.is_empty());
        assert!(buf.actions.capacity() >= 4, "capacity must be retained");
    }

    /// In-place pushes into an empty buffer, through several capacity
    /// growths: a walk by reference sees every action in push order, and
    /// `clear` empties the buffer without giving its capacity back.
    #[test]
    fn action_buf_builds_in_place_through_growths() {
        let mut buf = ActionBuf::new();
        assert_eq!(buf.actions.capacity(), 0);
        let mut growths = 0;
        let mut cap = 0;
        for epoch in 0..40u64 {
            buf.push_with(|| {
                if epoch % 2 == 0 {
                    CollAction::Send {
                        dst: NodeId(epoch as usize),
                        pkt: CollPacket {
                            src: NodeId(0),
                            group: GroupId(1),
                            epoch,
                            round: 0,
                            kind: CollKind::Barrier,
                        },
                        retx: false,
                        cause: CauseId::NONE,
                    }
                } else {
                    CollAction::HostDone {
                        group: GroupId(1),
                        epoch,
                        value: epoch * 3,
                        cause: CauseId::NONE,
                    }
                }
            });
            if buf.actions.capacity() != cap {
                growths += 1;
                cap = buf.actions.capacity();
            }
        }
        assert!(growths >= 3, "only {growths} capacity growths");
        assert_eq!(buf.len(), 40);
        for (i, action) in buf.as_slice().iter().enumerate() {
            let i = i as u64;
            match action {
                CollAction::Send { dst, pkt, .. } => {
                    assert_eq!(i % 2, 0);
                    assert_eq!((dst.0 as u64, pkt.epoch), (i, i));
                }
                CollAction::HostDone { epoch, value, .. } => {
                    assert_eq!(i % 2, 1);
                    assert_eq!((*epoch, *value), (i, i * 3));
                }
            }
        }
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.actions.capacity(), cap, "clear must keep the capacity");
    }

    #[test]
    fn operand_scalar_view() {
        assert_eq!(CollOperand::Scalar(7).scalar(), 7);
    }

    #[test]
    #[should_panic(expected = "vector operand")]
    fn operand_vector_is_not_scalar() {
        let _ = CollOperand::Vector(vec![1, 2]).scalar();
    }
}
