//! The host side of the Elan substrate: application trait and library-cost
//! charging, mirroring `nicbar_gm::host` for the Quadrics world.

use crate::events::ElanEvent;
use crate::params::ElanParams;
use crate::types::{DescId, EventId, TportTag};
use nicbar_net::NodeId;
use nicbar_sim::counter_id;
use nicbar_sim::engine::AsAny;
use nicbar_sim::{
    CausalKind, CauseId, Component, ComponentId, Ctx, PacketLog, SimRng, SimTime, SpanEvent,
};
use std::collections::BTreeMap;

/// Default group id used for `op.begin`/`op.end` span events: classic Elan
/// collectives have no group abstraction (one chain per cluster), so every
/// host reports this constant and spans are keyed by entry sequence.
/// Multi-group chain programs register their own ids per completion cookie
/// (see [`ElanHost::register_cookie_group`]).
pub const ELAN_SPAN_GROUP: u64 = 0xE1;

/// Actions an Elan application can request during a callback.
enum HostAction {
    Doorbell {
        desc: DescId,
    },
    SetEvent {
        event: EventId,
        group: u64,
    },
    ThreadDoorbell {
        value: u64,
    },
    Tport {
        dst: NodeId,
        tag: TportTag,
        len: u32,
    },
    HwSync,
    Timer {
        delay: SimTime,
    },
}

/// API surface for Elan applications.
pub struct ElanApi<'a> {
    now: SimTime,
    node: NodeId,
    n: usize,
    rng: &'a mut SimRng,
    actions: Vec<HostAction>,
}

impl<'a> ElanApi<'a> {
    /// Simulated time of the callback.
    pub fn now(&self) -> SimTime {
        self.now
    }
    /// This process's node.
    pub fn node(&self) -> NodeId {
        self.node
    }
    /// Cluster size.
    pub fn num_nodes(&self) -> usize {
        self.n
    }
    /// Workload randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Fire an armed RDMA descriptor (the per-barrier trigger of §7).
    pub fn doorbell(&mut self, desc: DescId) {
        self.actions.push(HostAction::Doorbell { desc });
    }

    /// Set a NIC event on behalf of a specific collective group: the entry
    /// trigger of one group's chain in a multi-group program. Spans and
    /// the occupancy ledger key the operation on `group`.
    pub fn set_nic_event_for_group(&mut self, event: EventId, group: u64) {
        self.actions.push(HostAction::SetEvent { event, group });
    }

    /// Post a doorbell to the NIC's thread processor with an operand (the
    /// §7 alternative mechanism; starts a thread-based collective).
    pub fn thread_doorbell(&mut self, value: u64) {
        self.actions.push(HostAction::ThreadDoorbell { value });
    }

    /// Send a tagged (tport) message — the host-level messaging Elanlib's
    /// tree barrier is built on.
    pub fn tport_send(&mut self, dst: NodeId, tag: TportTag, len: u32) {
        self.actions.push(HostAction::Tport { dst, tag, len });
    }

    /// Enter the hardware barrier (`elan_hgsync` fast path).
    pub fn hw_sync(&mut self) {
        self.actions.push(HostAction::HwSync);
    }

    /// Schedule an `on_timer` callback (models a compute phase).
    pub fn set_timer(&mut self, delay: SimTime) {
        self.actions.push(HostAction::Timer { delay });
    }
}

/// A simulated process on a Quadrics node.
pub trait ElanApp: AsAny + Send + 'static {
    /// Process start (t = 0).
    fn on_start(&mut self, api: &mut ElanApi<'_>);
    /// A tport message arrived.
    fn on_recv(&mut self, api: &mut ElanApi<'_>, src: NodeId, tag: TportTag, len: u32) {
        let _ = (api, src, tag, len);
    }
    /// A chained-RDMA completion (or hardware barrier) fired with `cookie`.
    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64);
    /// Timer callback.
    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        let _ = api;
    }
}

/// The host component for one Quadrics node.
pub struct ElanHost {
    node: NodeId,
    n: usize,
    nic: ComponentId,
    params: ElanParams,
    app: Box<dyn ElanApp>,
    cpu_free: SimTime,
    hw_epoch: u64,
    /// Collective entries per group (span sequence numbers; multi-group
    /// chains advance each group's sequence independently).
    coll_begun: BTreeMap<u64, u64>,
    /// Collective completions observed, per group.
    coll_done: BTreeMap<u64, u64>,
    /// Completion-cookie → group registrations for multi-group chains.
    /// Unregistered cookies fall back to [`ELAN_SPAN_GROUP`].
    cookie_group: BTreeMap<u64, u64>,
    /// Reusable buffer for the actions requested during one callback —
    /// lent to [`ElanApi`] via `mem::take` and reclaimed after the drain so
    /// steady-state dispatches do not allocate.
    action_scratch: Vec<HostAction>,
}

impl ElanHost {
    /// Build the host for `node` with its application.
    pub fn new(
        node: NodeId,
        n: usize,
        nic: ComponentId,
        params: ElanParams,
        app: Box<dyn ElanApp>,
    ) -> Self {
        ElanHost {
            node,
            n,
            nic,
            params,
            app,
            cpu_free: SimTime::ZERO,
            hw_epoch: 0,
            coll_begun: BTreeMap::new(),
            coll_done: BTreeMap::new(),
            cookie_group: BTreeMap::new(),
            action_scratch: Vec::new(),
        }
    }

    /// Register which group a chain completion cookie belongs to, so span
    /// and netdump records key `op.end` on the right `(group, seq)`.
    pub fn register_cookie_group(&mut self, cookie: u64, group: u64) {
        self.cookie_group.insert(cookie, group);
    }

    /// Downcast the application (post-run inspection).
    pub fn app_ref<T: 'static>(&self) -> Option<&T> {
        (*self.app).as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of the application.
    pub fn app_mut<T: 'static>(&mut self) -> Option<&mut T> {
        (*self.app).as_any_mut().downcast_mut::<T>()
    }

    fn cpu(&mut self, now: SimTime, cost: SimTime) -> SimTime {
        let start = now.max(self.cpu_free);
        self.cpu_free = start + cost;
        self.cpu_free
    }

    /// Span: this host enters its next collective operation (NIC chain,
    /// thread collective, or hardware barrier — all lock-step, so every
    /// host's per-entry sequence numbers agree). Returns the `host-enter`
    /// netdump record, the chain root of this rank's contribution.
    fn span_op_begin(&mut self, ctx: &mut Ctx<'_, ElanEvent>, group: u64) -> CauseId {
        let seq = *self.coll_begun.get(&group).unwrap_or(&0);
        ctx.span(|| SpanEvent::OpBegin { group, seq });
        let cause = ctx.packet(|| {
            PacketLog::new(CauseId::NONE, CausalKind::HostEnter)
                .at_node(self.node.0 as u32)
                .key(group, seq)
        });
        self.coll_begun.insert(group, seq + 1);
        cause
    }

    fn dispatch<F>(&mut self, ctx: &mut Ctx<'_, ElanEvent>, entry_cost: SimTime, f: F)
    where
        F: FnOnce(&mut dyn ElanApp, &mut ElanApi<'_>),
    {
        let at = self.cpu(ctx.now(), entry_cost);
        let mut api = ElanApi {
            now: at,
            node: self.node,
            n: self.n,
            rng: ctx.rng(),
            actions: std::mem::take(&mut self.action_scratch),
        };
        f(self.app.as_mut(), &mut api);
        let mut actions = api.actions;
        for action in actions.drain(..) {
            match action {
                HostAction::Doorbell { desc } => {
                    let t = self.cpu(ctx.now(), self.params.host_doorbell);
                    ctx.count_id(counter_id!("elan.doorbell"), 1);
                    // Netdump: chain root for a raw descriptor launch.
                    let cause = ctx.packet(|| {
                        PacketLog::new(CauseId::NONE, CausalKind::HostPost)
                            .at_node(self.node.0 as u32)
                            .detail(desc.0 as u64, 0)
                    });
                    ctx.send_at(t, self.nic, ElanEvent::Doorbell { desc, cause });
                }
                HostAction::SetEvent { event, group } => {
                    let t = self.cpu(ctx.now(), self.params.host_doorbell);
                    ctx.count_id(counter_id!("elan.set_event"), 1);
                    let cause = self.span_op_begin(ctx, group);
                    ctx.send_at(t, self.nic, ElanEvent::SetEvent { event, cause });
                }
                HostAction::ThreadDoorbell { value } => {
                    let t = self.cpu(ctx.now(), self.params.host_doorbell);
                    ctx.count_id(counter_id!("elan.thread_doorbell"), 1);
                    let cause = self.span_op_begin(ctx, ELAN_SPAN_GROUP);
                    ctx.send_at(t, self.nic, ElanEvent::ThreadPost { value, cause });
                }
                HostAction::Tport { dst, tag, len } => {
                    let t = self.cpu(ctx.now(), self.params.host_tport_send);
                    ctx.count_id(counter_id!("elan.host_tport"), 1);
                    // Netdump: chain root for a host-level message (the
                    // Elanlib tree barrier's hops each start here).
                    let cause = ctx.packet(|| {
                        PacketLog::new(CauseId::NONE, CausalKind::HostPost)
                            .nodes(self.node.0 as u32, dst.0 as u32)
                            .detail(len as u64, 0)
                    });
                    ctx.send_at(
                        t,
                        self.nic,
                        ElanEvent::TportPost {
                            dst,
                            tag,
                            len,
                            cause,
                        },
                    );
                }
                HostAction::HwSync => {
                    let epoch = self.hw_epoch;
                    self.hw_epoch += 1;
                    let t = self.cpu(ctx.now(), self.params.host_doorbell);
                    ctx.count_id(counter_id!("elan.hw_sync"), 1);
                    let cause = self.span_op_begin(ctx, ELAN_SPAN_GROUP);
                    ctx.send_at(t, self.nic, ElanEvent::HwSyncPost { epoch, cause });
                }
                HostAction::Timer { delay } => {
                    ctx.send_at(self.cpu_free + delay, ctx.self_id(), ElanEvent::AppTimer);
                }
            }
        }
        self.action_scratch = actions;
    }
}

impl Component<ElanEvent> for ElanHost {
    fn handle(&mut self, msg: ElanEvent, ctx: &mut Ctx<'_, ElanEvent>) {
        match msg {
            ElanEvent::AppStart => {
                self.dispatch(ctx, SimTime::ZERO, |app, api| app.on_start(api));
            }
            ElanEvent::AppTimer => {
                self.dispatch(ctx, SimTime::ZERO, |app, api| app.on_timer(api));
            }
            ElanEvent::HostRecv {
                src,
                tag,
                len,
                cause,
            } => {
                // Netdump: host-level delivery (tport messaging has no
                // separate notify stage; the arrival surfaces directly).
                ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::Notify)
                        .nodes(src.0 as u32, self.node.0 as u32)
                        .detail(tag.0 as u64, len as u64)
                });
                let poll = self.params.host_poll;
                self.dispatch(ctx, poll, |app, api| app.on_recv(api, src, tag, len));
            }
            ElanEvent::HostCollDone { cookie, cause } => {
                // Span: completion observed, before the app callback so a
                // re-entering app's next op.begin follows its op.end.
                let group = self
                    .cookie_group
                    .get(&cookie)
                    .copied()
                    .unwrap_or(ELAN_SPAN_GROUP);
                let seq = *self.coll_done.get(&group).unwrap_or(&0);
                ctx.span(|| SpanEvent::OpEnd { group, seq });
                // Netdump: this rank's chain ends here.
                ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::HostExit)
                        .at_node(self.node.0 as u32)
                        .key(group, seq)
                        .detail(cookie, 0)
                });
                self.coll_done.insert(group, seq + 1);
                let poll = self.params.host_poll;
                self.dispatch(ctx, poll, |app, api| app.on_coll_done(api, cookie));
            }
            other => panic!("Elan host {:?} got unexpected event {other:?}", self.node),
        }
    }
}
