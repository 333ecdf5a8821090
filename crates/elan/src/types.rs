//! Elan3 NIC-level objects: RDMA descriptors and NIC-resident events.
//!
//! Elan3's defining mechanism (for this paper) is the *chained event*: an
//! event word in NIC memory with a counter; RDMA descriptors can be armed to
//! fire when an event trips, and RDMA arrivals can set events at the remote
//! NIC. §7 of the paper builds the entire NIC-based barrier out of exactly
//! this: "set up a list of chained RDMA descriptors at the NIC from
//! user-level ... triggered only upon the arrival of a remote event".

use nicbar_net::NodeId;

/// Index into a NIC's descriptor table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DescId(pub u32);

/// Index into a NIC's event table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub u32);

/// What happens when an event trips.
///
/// `Copy` is load-bearing: the NIC hot path copies each of a tripped
/// event's actions out of the program's flat action array while it runs
/// them (one barrier epoch trips every gate event once).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventAction {
    /// Launch an RDMA descriptor (the chain link).
    FireDesc(DescId),
    /// Raise a completion event to the host with an opaque cookie.
    NotifyHost {
        /// Delivered to the application's `on_coll_done`.
        cookie: u64,
    },
}

/// A NIC-resident event word, one record per event: its counter, its
/// owner group in the occupancy ledger and where its actions sit in the
/// program's flat action array.
///
/// Elan events are counters: `set_event` increments `sets`; whenever `sets`
/// reaches the current `threshold` the actions run and the threshold
/// advances by `rearm`. Because arrivals *accumulate*, a neighbour that
/// races ahead into barrier epoch `k+1` can set the event early and the
/// count is simply banked until this node's own progress catches up — the
/// property that makes consecutive chained-RDMA barriers safe without host
/// re-arming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NicEvent {
    /// Total sets received so far.
    pub sets: u64,
    /// Sets needed for the next trip.
    pub threshold: u64,
    /// Threshold advance per trip (sets required per epoch).
    pub rearm: u64,
    /// Occupancy-ledger owner group.
    pub group: u64,
    /// First of this event's actions in [`NicProgram`]'s action array.
    first_action: u32,
    /// Number of actions run on each trip.
    action_count: u32,
}

impl NicEvent {
    /// Record one set; returns how many times the event tripped (usually 0
    /// or 1, but banked early sets can release several trips at once).
    pub fn set(&mut self) -> u32 {
        self.sets += 1;
        let mut trips = 0;
        while self.sets >= self.threshold {
            self.threshold += self.rearm;
            trips += 1;
        }
        trips
    }

    /// Index range of this event's actions in its program's action array.
    pub fn actions(&self) -> std::ops::Range<usize> {
        let first = self.first_action as usize;
        first..first + self.action_count as usize
    }
}

/// An RDMA descriptor armed in NIC memory.
///
/// `Copy` (no heap inside): firing a descriptor reads it out of the table
/// without cloning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RdmaDesc {
    /// Destination NIC.
    pub dst: NodeId,
    /// Payload bytes (0 for a pure event-fire RDMA, the barrier case).
    pub bytes: u32,
    /// Event set at the destination NIC on arrival.
    pub remote_event: Option<EventId>,
    /// Event set locally when the RDMA has been issued (used to gate the
    /// next chain link on *this node's own* progress).
    pub local_event: Option<EventId>,
}

/// One descriptor-table record: the descriptor, its owner group in the
/// occupancy ledger, and how often it has fired, which stands in for the
/// barrier seq in ledger owner stamps (a chained barrier fires each link
/// once per epoch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NicDesc {
    /// The armed descriptor.
    pub desc: RdmaDesc,
    /// Occupancy-ledger owner group.
    pub group: u64,
    /// Times the descriptor has fired.
    pub fires: u64,
}

/// Per-node NIC programming, armed from user level before the run (empty
/// for hosts that only use tports or the hardware barrier): the tables the
/// NIC runs on, in the layout it reads them.
///
/// A chain builder fills one program per node with [`NicProgram::desc`]
/// and [`NicProgram::event`], and the NIC takes the tables over as they
/// are: one record per descriptor, one per event, and every event's
/// actions in one flat array.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NicProgram {
    descs: Vec<NicDesc>,
    events: Vec<NicEvent>,
    actions: Vec<EventAction>,
    /// Completion-cookie → group registrations applied to this node's host
    /// (multi-group chains deliver distinct cookies per group).
    pub cookie_groups: Vec<(u64, u64)>,
}

impl NicProgram {
    /// An empty program with room for `descs` descriptors, `events` events
    /// and `actions` actions in all, so a builder that knows its table
    /// sizes arms them without regrowing.
    pub fn with_capacity(descs: usize, events: usize, actions: usize) -> Self {
        NicProgram {
            descs: Vec::with_capacity(descs),
            events: Vec::with_capacity(events),
            actions: Vec::with_capacity(actions),
            cookie_groups: Vec::new(),
        }
    }

    /// Arm a descriptor owned by `group`; returns its id.
    pub fn desc(&mut self, desc: RdmaDesc, group: u64) -> DescId {
        let id = DescId(u32::try_from(self.descs.len()).expect("descriptor table overflow"));
        self.descs.push(NicDesc {
            desc,
            group,
            fires: 0,
        });
        id
    }

    /// Arm an event owned by `group` that trips every `per_epoch` sets and
    /// runs `actions`; returns its id.
    ///
    /// # Panics
    /// Panics if `per_epoch` is zero.
    pub fn event(&mut self, per_epoch: u64, group: u64, actions: &[EventAction]) -> EventId {
        assert!(per_epoch > 0, "event threshold must be positive");
        let id = EventId(u32::try_from(self.events.len()).expect("event table overflow"));
        let first_action = u32::try_from(self.actions.len()).expect("action array overflow");
        self.actions.extend_from_slice(actions);
        self.events.push(NicEvent {
            sets: 0,
            threshold: per_epoch,
            rearm: per_epoch,
            group,
            first_action,
            action_count: u32::try_from(actions.len()).expect("action array overflow"),
        });
        id
    }

    /// The descriptor table.
    pub fn descs(&self) -> &[NicDesc] {
        &self.descs
    }

    /// The event table.
    pub fn events(&self) -> &[NicEvent] {
        &self.events
    }

    /// The actions `event` runs on each trip.
    pub fn actions(&self, event: &NicEvent) -> &[EventAction] {
        &self.actions[event.actions()]
    }

    /// The three tables, for the NIC to take over.
    pub(crate) fn into_tables(self) -> (Vec<NicDesc>, Vec<NicEvent>, Vec<EventAction>) {
        (self.descs, self.events, self.actions)
    }
}

/// Fixed wire overhead of an Elan RDMA transaction (route + header +
/// event-write), bytes.
pub const RDMA_WIRE_OVERHEAD: u32 = 32;

/// Wire overhead of a Tports (tagged message) send.
pub const TPORT_WIRE_OVERHEAD: u32 = 40;

/// A user-level message tag for the Tports layer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TportTag(pub u32);

/// Tag marking bulk-traffic tport messages, mirroring the GM substrate's
/// bulk tag: the NIC classifies these streams as first-class background
/// owners in the occupancy ledger.
pub const BULK_TPORT_TAG: TportTag = TportTag(0xFFFF_FFFF);

#[cfg(test)]
mod tests {
    use super::*;

    /// A program holding one event that trips every `per_epoch` sets.
    fn one_event(per_epoch: u64) -> NicEvent {
        let mut p = NicProgram::default();
        p.event(per_epoch, 0, &[]);
        p.events()[0]
    }

    #[test]
    fn event_trips_at_threshold() {
        let mut e = one_event(2);
        assert_eq!(e.set(), 0);
        assert_eq!(e.set(), 1);
        assert_eq!(e.set(), 0);
        assert_eq!(e.set(), 1);
    }

    #[test]
    fn early_sets_are_banked_across_epochs() {
        let mut e = one_event(1);
        // Three neighbours race three epochs ahead…
        assert_eq!(e.set(), 1);
        assert_eq!(e.set(), 1);
        assert_eq!(e.set(), 1);
        // …each set released one trip; nothing is lost.
        assert_eq!(e.sets, 3);
        assert_eq!(e.threshold, 4);
    }

    #[test]
    fn burst_of_banked_sets_releases_multiple_trips() {
        // threshold 2: one local set banked, then two remote sets at once
        // cannot happen in one call, but a single set can release several
        // trips if rearm lagged — construct directly:
        let mut e = NicEvent {
            sets: 3,
            threshold: 4,
            rearm: 2,
            ..one_event(2)
        };
        assert_eq!(e.set(), 1); // sets=4 -> trips at 4, next threshold 6
        assert_eq!(e.set(), 0);
        assert_eq!(e.set(), 1);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        one_event(0);
    }

    #[test]
    fn events_index_one_flat_action_array() {
        let mut p = NicProgram::default();
        let a = p.event(
            1,
            7,
            &[
                EventAction::FireDesc(DescId(0)),
                EventAction::FireDesc(DescId(1)),
            ],
        );
        let b = p.event(2, 8, &[]);
        let c = p.event(3, 9, &[EventAction::NotifyHost { cookie: 5 }]);
        assert_eq!((a, b, c), (EventId(0), EventId(1), EventId(2)));
        let events = p.events();
        assert_eq!(
            p.actions(&events[0]),
            &[
                EventAction::FireDesc(DescId(0)),
                EventAction::FireDesc(DescId(1))
            ]
        );
        assert!(p.actions(&events[1]).is_empty());
        assert_eq!(
            p.actions(&events[2]),
            &[EventAction::NotifyHost { cookie: 5 }]
        );
        assert_eq!(
            events.iter().map(|e| e.group).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        let (_, _, actions) = p.into_tables();
        assert_eq!(actions.len(), 3);
    }
}
