//! The host side of GM: a user-level library model and the application
//! trait.
//!
//! A [`GmHost`] owns one application ([`GmApp`]) — the simulated process on
//! that node. Applications are event-driven state machines: callbacks fire
//! on message delivery, send completion, collective completion and timers,
//! and issue new operations through the [`GmApi`] handle. The host charges
//! library CPU costs and doorbell (PIO) latencies before anything reaches
//! the NIC — exactly the overhead the NIC-based barrier keeps off the
//! critical path after initiation.

use crate::collective::CollOperand;
use crate::events::GmEvent;
use crate::params::GmParams;
use crate::types::{GroupId, MsgId, MsgTag, SendToken};
use nicbar_net::NodeId;
use nicbar_sim::counter_id;
use nicbar_sim::engine::AsAny;
use nicbar_sim::{
    CausalKind, CauseId, Component, ComponentId, Ctx, PacketLog, SimRng, SimTime, SpanEvent,
};
use std::collections::BTreeMap;

/// Actions an application can request during a callback.
enum HostAction {
    Send {
        dst: NodeId,
        len: u32,
        tag: MsgTag,
        msg_id: MsgId,
    },
    Collective {
        group: GroupId,
        operand: CollOperand,
    },
    PostRecv {
        count: u32,
    },
    Timer {
        delay: SimTime,
    },
}

/// The API surface an application sees during a callback — a small model of
/// the GM user library plus the paper's proposed collective API (§3).
pub struct GmApi<'a> {
    now: SimTime,
    node: NodeId,
    n: usize,
    rng: &'a mut SimRng,
    actions: Vec<HostAction>,
    next_msg_id: &'a mut MsgId,
}

impl<'a> GmApi<'a> {
    /// Simulated time at which the callback runs (library costs already
    /// charged).
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

    /// Workload randomness (deterministic per run seed).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Send `len` bytes to `dst` with `tag`; returns the message id passed
    /// to `on_send_done` when the message is fully acknowledged.
    pub fn send(&mut self, dst: NodeId, len: u32, tag: MsgTag) -> MsgId {
        let msg_id = *self.next_msg_id;
        *self.next_msg_id += 1;
        self.actions.push(HostAction::Send {
            dst,
            len,
            tag,
            msg_id,
        });
        msg_id
    }

    /// Enter a NIC-based collective operation on `group`. For a barrier,
    /// `value` is ignored; for reduce it is this process's contribution; for
    /// broadcast it is the payload at the root. Completion arrives via
    /// `on_coll_done`.
    pub fn collective(&mut self, group: GroupId, value: u64) {
        self.actions.push(HostAction::Collective {
            group,
            operand: CollOperand::Scalar(value),
        });
    }

    /// Enter a NIC-based collective with a per-rank vector operand
    /// (alltoall: element `j` is this rank's value for rank `j`).
    pub fn collective_vec(&mut self, group: GroupId, values: Vec<u64>) {
        self.actions.push(HostAction::Collective {
            group,
            operand: CollOperand::Vector(values),
        });
    }

    /// Post `count` additional receive buffers.
    pub fn post_recv(&mut self, count: u32) {
        self.actions.push(HostAction::PostRecv { count });
    }

    /// Arrange an `on_timer` callback after `delay` (models a compute
    /// phase).
    pub fn set_timer(&mut self, delay: SimTime) {
        self.actions.push(HostAction::Timer { delay });
    }
}

/// A simulated application process. All callbacks receive the [`GmApi`] to
/// issue further operations.
///
/// The `AsAny` supertrait lets harnesses downcast a finished application to
/// its concrete type to read out measurements.
pub trait GmApp: AsAny + Send + 'static {
    /// The process started (t = 0).
    fn on_start(&mut self, api: &mut GmApi<'_>);
    /// A message arrived.
    fn on_recv(&mut self, api: &mut GmApi<'_>, src: NodeId, tag: MsgTag, len: u32);
    /// A send was fully acknowledged.
    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        let _ = (api, msg_id);
    }
    /// A NIC-based collective completed.
    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, epoch: u64, value: u64) {
        let _ = (api, group, epoch, value);
    }
    /// A timer set via [`GmApi::set_timer`] fired.
    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        let _ = api;
    }
}

/// The host component: runs the application, charges library costs, and
/// talks to the NIC over the modeled I/O bus.
pub struct GmHost {
    node: NodeId,
    n: usize,
    nic: ComponentId,
    params: GmParams,
    app: Box<dyn GmApp>,
    /// Host CPU busy-until (the process is single-threaded).
    cpu_free: SimTime,
    next_msg_id: MsgId,
    coll_epochs: BTreeMap<GroupId, u64>,
    /// Reusable buffer for the actions an application requests during one
    /// callback. Lent to [`GmApi`] via `mem::take`, drained here, and put
    /// back so its capacity is reused — in the steady state a dispatch does
    /// not allocate.
    action_scratch: Vec<HostAction>,
}

impl GmHost {
    /// Build the host for `node` with its application.
    pub fn new(
        node: NodeId,
        n: usize,
        nic: ComponentId,
        params: GmParams,
        app: Box<dyn GmApp>,
    ) -> Self {
        GmHost {
            node,
            n,
            nic,
            params,
            app,
            cpu_free: SimTime::ZERO,
            next_msg_id: 1,
            coll_epochs: BTreeMap::new(),
            action_scratch: Vec::new(),
        }
    }

    /// Downcast the application to its concrete type (post-run inspection).
    pub fn app_ref<T: 'static>(&self) -> Option<&T> {
        // Deref the box first so `as_any` dispatches through the vtable
        // rather than matching the blanket impl on the `Box` itself.
        (*self.app).as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of the application.
    pub fn app_mut<T: 'static>(&mut self) -> Option<&mut T> {
        (*self.app).as_any_mut().downcast_mut::<T>()
    }

    /// Charge host CPU for `cost` starting no earlier than `now`.
    fn cpu(&mut self, now: SimTime, cost: SimTime) -> SimTime {
        let start = now.max(self.cpu_free);
        self.cpu_free = start + cost;
        self.cpu_free
    }

    /// Run one application callback and translate its requested actions
    /// into NIC doorbells, charging library + PIO costs.
    fn dispatch<F>(&mut self, ctx: &mut Ctx<'_, GmEvent>, entry_cost: SimTime, f: F)
    where
        F: FnOnce(&mut dyn GmApp, &mut GmApi<'_>),
    {
        let at = self.cpu(ctx.now(), entry_cost);
        let mut api = GmApi {
            now: at,
            node: self.node,
            n: self.n,
            rng: ctx.rng(),
            actions: std::mem::take(&mut self.action_scratch),
            next_msg_id: &mut self.next_msg_id,
        };
        f(self.app.as_mut(), &mut api);
        let mut actions = api.actions;
        for action in actions.drain(..) {
            match action {
                HostAction::Send {
                    dst,
                    len,
                    tag,
                    msg_id,
                } => {
                    let t = self.cpu(ctx.now(), self.params.host_send_overhead);
                    ctx.count_id(counter_id!("gm.host_send"), 1);
                    // Netdump: chain root for this message's data packets.
                    let cause = ctx.packet(|| {
                        PacketLog::new(CauseId::NONE, CausalKind::HostPost)
                            .nodes(self.node.0 as u32, dst.0 as u32)
                            .detail(len as u64, 0)
                    });
                    ctx.send_at(
                        t + self.params.pio_write,
                        self.nic,
                        GmEvent::SendPost(SendToken {
                            msg_id,
                            dst,
                            len,
                            tag,
                            offset: 0,
                            coll: None,
                            cause,
                        }),
                    );
                }
                HostAction::Collective { group, operand } => {
                    let epoch = self.coll_epochs.entry(group).or_insert(0);
                    let this_epoch = *epoch;
                    *epoch += 1;
                    let t = self.cpu(ctx.now(), self.params.host_coll_call);
                    ctx.count_id(counter_id!("gm.host_coll"), 1);
                    // Span: this host enters epoch `this_epoch` of `group`.
                    ctx.span(|| SpanEvent::OpBegin {
                        group: group.0 as u64,
                        seq: this_epoch,
                    });
                    // Netdump: chain root of this rank's contribution to the
                    // barrier DAG.
                    let cause = ctx.packet(|| {
                        PacketLog::new(CauseId::NONE, CausalKind::HostEnter)
                            .at_node(self.node.0 as u32)
                            .key(group.0 as u64, this_epoch)
                    });
                    ctx.send_at(
                        t + self.params.pio_write,
                        self.nic,
                        GmEvent::CollPost {
                            group,
                            epoch: this_epoch,
                            operand,
                            cause,
                        },
                    );
                }
                HostAction::PostRecv { count } => {
                    let t = self.cpu(ctx.now(), self.params.host_repost);
                    ctx.send_at(
                        t + self.params.pio_write,
                        self.nic,
                        GmEvent::RecvPost {
                            count,
                            capacity: self.params.mtu,
                        },
                    );
                }
                HostAction::Timer { delay } => {
                    ctx.send_at(self.cpu_free + delay, ctx.self_id(), GmEvent::AppTimer);
                }
            }
        }
        self.action_scratch = actions;
    }
}

impl Component<GmEvent> for GmHost {
    fn handle(&mut self, msg: GmEvent, ctx: &mut Ctx<'_, GmEvent>) {
        match msg {
            GmEvent::AppStart => {
                self.dispatch(ctx, SimTime::ZERO, |app, api| app.on_start(api));
            }
            GmEvent::AppTimer => {
                self.dispatch(ctx, SimTime::ZERO, |app, api| app.on_timer(api));
            }
            GmEvent::RecvDelivered { src, tag, len } => {
                // Poll + dispatch, then repost the consumed buffer (library
                // housekeeping real GM apps do).
                let poll = self.params.host_recv_poll;
                self.dispatch(ctx, poll, |app, api| {
                    api.post_recv(1);
                    app.on_recv(api, src, tag, len);
                });
            }
            GmEvent::SendDone { msg_id } => {
                let poll = self.params.host_recv_poll;
                self.dispatch(ctx, poll, |app, api| app.on_send_done(api, msg_id));
            }
            GmEvent::CollDone {
                group,
                epoch,
                value,
                cause,
            } => {
                // Span: completion observed, before the app callback so a
                // re-entering app's next op.begin follows its op.end.
                ctx.span(|| SpanEvent::OpEnd {
                    group: group.0 as u64,
                    seq: epoch,
                });
                // Netdump: this rank's chain ends here; the analyzer keys
                // spans off these records.
                ctx.packet(|| {
                    PacketLog::new(cause, CausalKind::HostExit)
                        .at_node(self.node.0 as u32)
                        .key(group.0 as u64, epoch)
                        .detail(value, 0)
                });
                let poll = self.params.host_recv_poll;
                self.dispatch(ctx, poll, |app, api| {
                    app.on_coll_done(api, group, epoch, value)
                });
            }
            other => panic!("host {:?} got unexpected event {other:?}", self.node),
        }
    }
}
