//! The Elan3 NIC model: a descriptor table, an event table, and a serial
//! DMA/event processor.
//!
//! There is no NIC thread (the paper deliberately avoids one, §7): all
//! behaviour is chained RDMA descriptors fired by event trips. The NIC also
//! forwards hardware-barrier doorbells to the switch-level barrier unit and
//! delivers tport messages to the host.

use crate::events::{ElanEvent, ElanPayload};
use crate::host::ELAN_SPAN_GROUP;
use crate::params::ElanParams;
use crate::thread::{ElanThread, NoThread, ThreadAction, THREAD_MSG_BYTES};
use crate::types::{
    DescId, EventAction, EventId, NicDesc, NicEvent, NicProgram, TportTag, BULK_TPORT_TAG,
    RDMA_WIRE_OVERHEAD, TPORT_WIRE_OVERHEAD,
};
use nicbar_net::{NodeId, WireRx};
use nicbar_sim::counter_id;
use nicbar_sim::{
    CausalKind, CauseId, Component, ComponentId, Ctx, Occ, Owner, PacketLog, ResKind, SimTime,
    SpanEvent,
};

/// Occupancy-ledger owner of a tport stream, by its tag.
fn tport_owner(tag: TportTag, rank: u32) -> Owner {
    if tag == BULK_TPORT_TAG {
        Owner::traffic(rank)
    } else {
        Owner::p2p(rank)
    }
}

/// The Elan3 NIC component.
pub struct ElanNic {
    node: NodeId,
    params: ElanParams,
    /// This NIC's wire receive port (shared routing model + private
    /// destination-port contention state). QsNet is hardware-reliable, so
    /// the model's drop probability must be zero (asserted at build).
    wire: WireRx,
    /// Component id of NIC 0; NIC `d` is `nic0 + d` (contiguous layout).
    nic0: ComponentId,
    host: ComponentId,
    /// The switch-level hardware barrier unit, if the cluster has one.
    hw_unit: Option<ComponentId>,

    /// The DMA/event processor is a serial resource.
    engine_free: SimTime,

    /// User-armed RDMA descriptors (set up from user level at init), one
    /// record each with its owner group and fire count.
    descs: Vec<NicDesc>,
    /// NIC-resident events, one record each with its owner group and its
    /// range of `actions`.
    events: Vec<NicEvent>,
    /// Every event's trip actions, back to back.
    actions: Vec<EventAction>,
    /// The thread processor's handler (the §7 alternative mechanism;
    /// [`NoThread`] unless explicitly installed).
    thread: Box<dyn ElanThread>,
    /// The actions the thread requested for the stimulus being handled;
    /// walked and cleared after every call, its capacity kept.
    thread_actions: Vec<ThreadAction>,
}

impl ElanNic {
    /// Build a NIC armed with `program`'s descriptor and event tables
    /// (the "set up from user level" step of §7; its one-time cost is not
    /// on the per-barrier critical path). The NIC takes the tables over as
    /// the program laid them out.
    pub fn new(
        node: NodeId,
        params: ElanParams,
        wire: WireRx,
        nic0: ComponentId,
        host: ComponentId,
        hw_unit: Option<ComponentId>,
        program: NicProgram,
    ) -> Self {
        let (descs, events, actions) = program.into_tables();
        for d in &descs {
            if let Some(EventId(e)) = d.desc.local_event {
                assert!((e as usize) < events.len(), "dangling local event");
            }
        }
        assert_eq!(
            wire.model().drop_prob(),
            0.0,
            "QsNet is hardware-reliable; loss injection is a GM-only concept"
        );
        ElanNic {
            node,
            params,
            wire,
            nic0,
            host,
            hw_unit,
            engine_free: SimTime::ZERO,
            descs,
            events,
            actions,
            thread: Box::new(NoThread),
            thread_actions: Vec::new(),
        }
    }

    /// Install a thread-processor handler (the §7 alternative the paper
    /// measured against; used by the Moody-style reduction).
    pub fn install_thread(&mut self, thread: Box<dyn ElanThread>) {
        self.thread = thread;
    }

    /// Execute the thread's pending actions: sends go through the
    /// descriptor path (the thread issues RDMAs like anything else on the
    /// NIC), completions to the host. The buffer is taken for the walk and
    /// put back cleared, so the thread path allocates nothing once warm.
    fn run_thread_actions(&mut self, ctx: &mut Ctx<'_, ElanEvent>, cause: CauseId) {
        let mut actions = std::mem::take(&mut self.thread_actions);
        for &action in &actions {
            match action {
                ThreadAction::Send { dst, tag, value } => {
                    assert_ne!(dst, self.node, "thread self-send");
                    let owner = Owner::coll(ELAN_SPAN_GROUP, 0, self.node.0 as u32);
                    let now = ctx.now();
                    let t = self.engine(ctx, now, self.params.nic_desc_proc, owner);
                    ctx.count_id(counter_id!("elan.thread_sent"), 1);
                    // Netdump: thread-processor send, parented on the
                    // doorbell/message that woke the thread.
                    let fire = ctx.packet(|| {
                        PacketLog::new(cause, CausalKind::Fire)
                            .nodes(self.node.0 as u32, dst.0 as u32)
                            .detail(tag as u64, value)
                    });
                    self.inject(
                        ctx,
                        t,
                        dst,
                        THREAD_MSG_BYTES,
                        ElanPayload::Thread { tag, value },
                        fire,
                    );
                }
                ThreadAction::NotifyHost { cookie } => {
                    ctx.count_id(counter_id!("elan.host_notify"), 1);
                    // Span: thread-processor completion (no event id; the
                    // thread notifies directly).
                    ctx.span(|| SpanEvent::Notify {
                        unit: u64::MAX,
                        cookie,
                    });
                    let notify = ctx.packet(|| {
                        PacketLog::new(cause, CausalKind::Notify)
                            .at_node(self.node.0 as u32)
                            .detail(cookie, 0)
                    });
                    ctx.send_at(
                        self.engine_free + self.params.host_event_visible,
                        self.host,
                        ElanEvent::HostCollDone {
                            cookie,
                            cause: notify,
                        },
                    );
                }
            }
        }
        actions.clear();
        self.thread_actions = actions;
    }

    /// Claim the serial DMA/event processor for `cost` starting no earlier
    /// than `now`; returns `(start, done)`.
    fn engine_claim(&mut self, now: SimTime, cost: SimTime) -> (SimTime, SimTime) {
        let start = now.max(self.engine_free);
        self.engine_free = start + cost;
        (start, self.engine_free)
    }

    /// Occupy the DMA/event processor for `cost` on `owner`'s behalf. Every
    /// charge emits a ledger hold (and a wait when the engine was busy), so
    /// holds tile each busy period exactly — the invariant the interference
    /// attribution's coverage gate relies on.
    fn engine(
        &mut self,
        ctx: &mut Ctx<'_, ElanEvent>,
        now: SimTime,
        cost: SimTime,
        owner: Owner,
    ) -> SimTime {
        let (start, done) = self.engine_claim(now, cost);
        let node = self.node.0 as u32;
        if start > now {
            ctx.ledger(|| Occ::wait(ResKind::ElanEngine, now, start, node, owner));
        }
        ctx.ledger(|| Occ::hold(ResKind::ElanEngine, start, done, node, owner));
        done
    }

    /// Occupancy-ledger owner of activity gated on event `ev`: the group the
    /// chain builder armed it with, and the event's completed-trip count
    /// standing in for the barrier seq.
    /// Only the ledger reads owners, so while the log is off (`recording`
    /// false) this skips the event-table lookup and its division, and
    /// returns a stand-in nothing records.
    fn event_owner(&self, recording: bool, ev: EventId, rank: u32) -> Owner {
        if !recording {
            return Owner::fabric(rank);
        }
        let e = &self.events[ev.0 as usize];
        Owner::coll(e.group, e.threshold / e.rearm - 1, rank)
    }

    /// Owner of an arriving wire packet, classified at the receiving port
    /// (a stand-in while the log is off, as for `event_owner`).
    fn payload_owner(&self, recording: bool, payload: &ElanPayload, src: NodeId) -> Owner {
        let rank = src.0 as u32;
        match payload {
            ElanPayload::Thread { .. } => Owner::coll(ELAN_SPAN_GROUP, 0, rank),
            ElanPayload::Rdma { remote_event } => match remote_event {
                Some(ev) => self.event_owner(recording, *ev, rank),
                None => Owner::coll(ELAN_SPAN_GROUP, 0, rank),
            },
            ElanPayload::Tport { tag, .. } => tport_owner(*tag, rank),
        }
    }

    /// Commit a packet to the wire at time `t`: routed flight latency from
    /// the shared wire model, presenting at the destination NIC's input
    /// port as an [`ElanEvent::Inject`]. Port contention resolves there,
    /// at the receiver.
    fn inject(
        &mut self,
        ctx: &mut Ctx<'_, ElanEvent>,
        t: SimTime,
        dst: NodeId,
        bytes: u32,
        payload: ElanPayload,
        cause: CauseId,
    ) {
        let flight = self.wire.model().flight(self.node, dst, bytes);
        let target = ComponentId(self.nic0.0 + dst.0);
        ctx.send_at(
            t + flight,
            target,
            ElanEvent::Inject {
                src: self.node,
                dst,
                bytes,
                payload,
                cause,
            },
        );
    }

    /// A packet presents at this NIC's input port after its routed flight:
    /// admit it through the port (contention in arrival order) and hand it
    /// to the protocol as an [`ElanEvent::Arrive`]. QsNet never drops.
    fn on_inject(
        &mut self,
        ctx: &mut Ctx<'_, ElanEvent>,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        payload: ElanPayload,
        cause: CauseId,
    ) {
        debug_assert_eq!(dst, self.node, "packet presented at the wrong NIC");
        ctx.count_id(counter_id!("elan.wire"), 1);
        // Span: the wire crossing.
        ctx.span(|| SpanEvent::Wire {
            src: src.0 as u64,
            dst: dst.0 as u64,
            bytes: bytes as u64,
        });
        let admission = self.wire.admit(ctx.now(), bytes);
        // Ledger: the admitted packet's owner occupies this rx port for
        // `[arrive, until)`; a queued packet also waited behind earlier
        // holders.
        let owner = self.payload_owner(ctx.recording(), &payload, src);
        let node = self.node.0 as u32;
        let routed = ctx.now();
        if admission.port_wait > SimTime::ZERO {
            ctx.ledger(|| {
                Occ::wait(ResKind::LinkPort, routed, admission.arrive, node, owner)
                    .unit(self.node.0 as u64)
            });
        }
        ctx.ledger(|| {
            Occ::hold(
                ResKind::LinkPort,
                admission.arrive,
                admission.until,
                node,
                owner,
            )
            .unit(self.node.0 as u64)
        });
        // Netdump: wire traversal with the link-occupancy tag (bytes +
        // destination-port queuing wait).
        let wire = ctx.packet(|| {
            PacketLog::new(cause, CausalKind::Wire)
                .nodes(src.0 as u32, dst.0 as u32)
                .detail(bytes as u64, admission.port_wait.as_ns())
        });
        ctx.send_at(
            admission.arrive,
            ctx.self_id(),
            ElanEvent::Arrive {
                src,
                payload,
                cause: wire,
            },
        );
    }

    /// Launch a descriptor: inject the RDMA and set its local event.
    fn fire_desc(&mut self, ctx: &mut Ctx<'_, ElanEvent>, desc: DescId, cause: CauseId) {
        let NicDesc {
            desc: d,
            group,
            fires,
        } = self.descs[desc.0 as usize];
        self.descs[desc.0 as usize].fires = fires + 1;
        let owner = Owner::coll(group, fires, self.node.0 as u32);
        let now = ctx.now();
        let t = self.engine(ctx, now, self.params.nic_desc_proc, owner);
        assert_ne!(d.dst, self.node, "RDMA loopback descriptor");
        ctx.count_id(counter_id!("elan.rdma_sent"), 1);
        // Span: descriptor launch.
        ctx.span(|| SpanEvent::Fire {
            unit: desc.0 as u64,
            dst: d.dst.0 as u64,
        });
        // Netdump: descriptor launch, parented on whatever tripped it (the
        // host doorbell or the chain link's event record).
        let fire = ctx.packet(|| {
            PacketLog::new(cause, CausalKind::Fire)
                .nodes(self.node.0 as u32, d.dst.0 as u32)
                .detail(desc.0 as u64, (RDMA_WIRE_OVERHEAD + d.bytes) as u64)
        });
        self.inject(
            ctx,
            t,
            d.dst,
            RDMA_WIRE_OVERHEAD + d.bytes,
            ElanPayload::Rdma {
                remote_event: d.remote_event,
            },
            fire,
        );
        if let Some(le) = d.local_event {
            // The local "issued" event trips as soon as the descriptor is
            // processed; it gates the next chain link on our own progress.
            self.set_event(ctx, t, le, owner, fire);
        }
    }

    /// Set an event; run any tripped actions. `cause` is the netdump record
    /// of the stimulus performing the `set` — in a counting event the trip
    /// happens on the *last* set, so tripped actions correctly parent on the
    /// last-enabling stimulus.
    fn set_event(
        &mut self,
        ctx: &mut Ctx<'_, ElanEvent>,
        at: SimTime,
        ev: EventId,
        owner: Owner,
        cause: CauseId,
    ) {
        let node = self.node.0 as u32;
        // Ledger: each set banks one count in the event slot; each trip
        // drains a threshold's worth. `unit` is the event id, so the
        // analyzer can follow a single slot's fill level.
        ctx.ledger(|| Occ::acquire(ResKind::EventSlot, at, node, owner).unit(ev.0 as u64));
        let event = &mut self.events[ev.0 as usize];
        let trips = event.set();
        if trips == 0 {
            return;
        }
        let actions = event.actions();
        for _ in 0..trips {
            ctx.ledger(|| Occ::release(ResKind::EventSlot, at, node, owner).unit(ev.0 as u64));
        }
        for _ in 0..trips {
            for &action in &self.actions[actions.clone()] {
                match action {
                    EventAction::FireDesc(d) => {
                        // Chain through the serial engine via a self event.
                        ctx.send_at(
                            at.max(ctx.now()),
                            ctx.self_id(),
                            ElanEvent::FireDesc { desc: d, cause },
                        );
                    }
                    EventAction::NotifyHost { cookie } => {
                        ctx.count_id(counter_id!("elan.host_notify"), 1);
                        // Span: completion surfaced to the host.
                        ctx.span(|| SpanEvent::Notify {
                            unit: ev.0 as u64,
                            cookie,
                        });
                        let notify = ctx.packet(|| {
                            PacketLog::new(cause, CausalKind::Notify)
                                .at_node(self.node.0 as u32)
                                .detail(cookie, ev.0 as u64)
                        });
                        ctx.send_at(
                            at + self.params.host_event_visible,
                            self.host,
                            ElanEvent::HostCollDone {
                                cookie,
                                cause: notify,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Test access to an event's state.
    pub fn event(&self, ev: EventId) -> &NicEvent {
        &self.events[ev.0 as usize]
    }

    /// Mutable access to the installed thread handler (result harvesting).
    pub fn thread_mut(&mut self) -> &mut dyn ElanThread {
        self.thread.as_mut()
    }
}

impl Component<ElanEvent> for ElanNic {
    fn handle(&mut self, msg: ElanEvent, ctx: &mut Ctx<'_, ElanEvent>) {
        match msg {
            ElanEvent::Doorbell { desc, cause } | ElanEvent::FireDesc { desc, cause } => {
                self.fire_desc(ctx, desc, cause);
            }
            ElanEvent::SetEvent { event, cause } => {
                let owner = self.event_owner(ctx.recording(), event, self.node.0 as u32);
                let now = ctx.now();
                let t = self.engine(ctx, now, self.params.nic_event_proc, owner);
                // Netdump: the NIC picks up the host's event poke.
                let dispatch = ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::NicDispatch)
                        .at_node(self.node.0 as u32)
                        .detail(event.0 as u64, 0)
                });
                self.set_event(ctx, t, event, owner, dispatch);
            }
            ElanEvent::TportPost {
                dst,
                tag,
                len,
                cause,
            } => {
                let owner = tport_owner(tag, self.node.0 as u32);
                let now = ctx.now();
                let t = self.engine(ctx, now, self.params.nic_desc_proc, owner);
                ctx.count_id(counter_id!("elan.tport_sent"), 1);
                let fire = ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::Fire)
                        .nodes(self.node.0 as u32, dst.0 as u32)
                        .detail(tag.0 as u64, len as u64)
                });
                self.inject(
                    ctx,
                    t,
                    dst,
                    TPORT_WIRE_OVERHEAD + len,
                    ElanPayload::Tport { tag, len },
                    fire,
                );
            }
            ElanEvent::HwSyncPost { epoch, cause } => {
                let unit = self
                    .hw_unit
                    .expect("hardware barrier used on a cluster without a hw unit");
                let owner = Owner::coll(ELAN_SPAN_GROUP, epoch, self.node.0 as u32);
                let now = ctx.now();
                let t = self.engine(ctx, now, self.params.nic_desc_proc, owner);
                // Netdump: readiness forwarded to the switch-level unit.
                let fire = ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::Fire)
                        .at_node(self.node.0 as u32)
                        .detail(epoch, 0)
                });
                ctx.send_at(
                    t,
                    unit,
                    ElanEvent::HwArrive {
                        node: self.node,
                        epoch,
                        cause: fire,
                    },
                );
            }
            ElanEvent::ThreadPost { value, cause } => {
                let owner = Owner::coll(ELAN_SPAN_GROUP, 0, self.node.0 as u32);
                let now = ctx.now();
                let t = self.engine(ctx, now, self.params.nic_thread_proc, owner);
                let dispatch = ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::NicDispatch)
                        .at_node(self.node.0 as u32)
                        .detail(value, 0)
                });
                self.thread.on_doorbell(t, value, &mut self.thread_actions);
                self.run_thread_actions(ctx, dispatch);
            }
            ElanEvent::Inject {
                src,
                dst,
                bytes,
                payload,
                cause,
            } => {
                self.on_inject(ctx, src, dst, bytes, payload, cause);
            }
            ElanEvent::Arrive {
                src,
                payload,
                cause,
            } => {
                // Span: arrival, detail word shared across payload kinds
                // (see `ElanPayload::arrive_info`).
                ctx.span(|| SpanEvent::Arrive {
                    src: src.0 as u64,
                    info: payload.arrive_info(),
                });
                let arrive = ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::Arrive)
                        .nodes(src.0 as u32, self.node.0 as u32)
                        .detail(payload.arrive_info(), 0)
                });
                let owner = self.payload_owner(ctx.recording(), &payload, src);
                match payload {
                    ElanPayload::Thread { tag, value } => {
                        // Wake the thread processor: heavier than a raw event.
                        let now = ctx.now();
                        let t = self.engine(ctx, now, self.params.nic_thread_proc, owner);
                        ctx.count_id(counter_id!("elan.thread_recv"), 1);
                        self.thread
                            .on_msg(t, src, tag, value, &mut self.thread_actions);
                        self.run_thread_actions(ctx, arrive);
                    }
                    ElanPayload::Rdma { remote_event } => {
                        let now = ctx.now();
                        let t = self.engine(ctx, now, self.params.nic_event_proc, owner);
                        ctx.count_id(counter_id!("elan.rdma_recv"), 1);
                        if let Some(ev) = remote_event {
                            self.set_event(ctx, t, ev, owner, arrive);
                        }
                    }
                    ElanPayload::Tport { tag, len } => {
                        let now = ctx.now();
                        let t = self.engine(ctx, now, self.params.nic_tport_recv, owner);
                        ctx.count_id(counter_id!("elan.tport_recv"), 1);
                        ctx.send_at(
                            t + self.params.host_event_visible,
                            self.host,
                            ElanEvent::HostRecv {
                                src,
                                tag,
                                len,
                                cause: arrive,
                            },
                        );
                    }
                }
            }
            ElanEvent::HwDone { epoch, cause } => {
                // Hardware barrier completion: surface to the host like a
                // local event.
                let owner = Owner::coll(ELAN_SPAN_GROUP, epoch, self.node.0 as u32);
                let now = ctx.now();
                let t = self.engine(ctx, now, self.params.nic_event_proc, owner);
                let notify = ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::Notify)
                        .at_node(self.node.0 as u32)
                        .detail(hw_cookie(epoch), 0)
                });
                ctx.send_at(
                    t + self.params.host_event_visible,
                    self.host,
                    ElanEvent::HostCollDone {
                        cookie: hw_cookie(epoch),
                        cause: notify,
                    },
                );
            }
            other => panic!("Elan NIC {:?} got unexpected event {other:?}", self.node),
        }
    }
}

/// Cookie namespace for hardware-barrier completions (top bit set,
/// distinguishing them from user chain cookies).
pub fn hw_cookie(epoch: u64) -> u64 {
    (1 << 63) | epoch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw_cookie_is_tagged() {
        assert_eq!(hw_cookie(5) & (1 << 63), 1 << 63);
        assert_eq!(hw_cookie(5) & !(1 << 63), 5);
    }
}
