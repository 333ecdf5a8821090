//! The discrete-event scheduler.
//!
//! An [`Engine`] owns a set of [`Component`]s and a priority queue of typed
//! events. Each simulator in the workspace (GM/Myrinet, Elan/Quadrics)
//! instantiates `Engine<M>` with its own message enum `M`, so event payloads
//! are statically typed — no `Any` downcasts on the hot path.
//!
//! ## Determinism: content-based event keys
//!
//! Events are ordered by a 128-bit key: simulated time in the high 64 bits
//! and a *content subkey* in the low 64. The subkey is `(source << 40) |
//! count`, where `source` identifies who scheduled the event (0 for
//! external [`Engine::schedule_at`] injections, `component id + 1` for
//! handler sends) and `count` is that source's cumulative send counter. The
//! key is therefore a pure function of the simulation's own causal history
//! — *not* of global insertion order — so the same event carries the same
//! key whether the engine runs alone or as one shard of the parallel
//! engine ([`crate::parallel`]), and ties in simulated time resolve
//! identically everywhere: per source, sends deliver in issue order (FIFO);
//! across sources, by source id. Combined with per-component RNG streams
//! (forked once from the master seed, independent of draw order elsewhere)
//! this makes runs bit-for-bit reproducible across reruns and shard counts.
//! The integration test suite relies on this to compare whole counter sets
//! across engines.
//!
//! ## Hot path
//!
//! [`Engine::step`] pops from the indexed 4-ary heap (see
//! [`crate::queue`]), resolves the target component with a split borrow —
//! no `Option::take` / reinstall round-trip — and hands the handler a
//! [`Ctx`] that keys and pushes follow-up events *directly* into the queue.

use crate::causal::{CauseId, PacketLog};
use crate::counters::Counters;
use crate::ledger::{LedgerRecord, Occ};
use crate::parallel::{RawEvent, RawObs, ShardLink};
use crate::queue::{pack, EventQueue, PoppedEvent};
use crate::rng::SimRng;
use crate::span::SpanEvent;
use crate::time::SimTime;
use crate::trace::Trace;
use std::any::Any;
use std::fmt;

/// Bits of the event subkey holding the per-source send count; the
/// remaining high bits hold the source id (component id + 1, or 0 for
/// external injections).
pub(crate) const SUB_BITS: u32 = 40;
/// Mask of the count field.
pub(crate) const COUNT_MASK: u64 = (1 << SUB_BITS) - 1;
/// Most components one engine can key: component id + 1 must fit the
/// source field above the count.
pub const MAX_COMPONENTS: usize = (1 << (64 - SUB_BITS)) - 1;

/// Per-component event-source state: the cumulative send count (the count
/// half of every subkey this component generates) and its private RNG
/// stream, forked lazily from the engine's master seed.
#[derive(Default)]
pub(crate) struct SourceState {
    pub(crate) count: u64,
    pub(crate) rng: Option<Box<SimRng>>,
}

/// Index of a component within an [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ComponentId(pub usize);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Object-safe `Any` access for components, so tests and harnesses can reach
/// into a concrete component after a run (`Engine::component_mut`).
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An actor in the simulation. Components receive events through
/// [`Component::handle`] and react by scheduling further events via the
/// [`Ctx`]; they must not share mutable state by any other means.
///
/// `Send` is required so a component can be owned by a worker thread of the
/// parallel engine; components never run concurrently with themselves and
/// need no internal synchronization.
pub trait Component<M>: AsAny + Send {
    /// Process one event addressed to this component.
    fn handle(&mut self, msg: M, ctx: &mut Ctx<'_, M>);
}

/// Handle given to a component while it processes an event.
///
/// Sends are keyed `(time, source, per-source count)` at push time and go
/// straight into the engine's event queue, so a handler's same-time sends
/// are delivered in exactly the order it issued them.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ComponentId,
    /// Precomputed `(self_id + 1) << SUB_BITS` — the source half of every
    /// subkey this handler generates.
    sub_hi: u64,
    /// This component's cumulative send count (the count half).
    count: &'a mut u64,
    queue: &'a mut EventQueue<M>,
    /// This component's private RNG stream, forked lazily from `master`.
    rng_slot: &'a mut Option<Box<SimRng>>,
    master: &'a SimRng,
    trace: &'a mut Trace,
    counters: &'a mut Counters,
    halt: &'a mut bool,
    /// Present when this engine runs as a shard of the parallel engine:
    /// routes cross-shard sends into per-destination outboxes.
    link: Option<&'a mut ShardLink<M>>,
    /// True when the record log is on, computed once per delivery so every
    /// emit call on the disabled path is a single predictable branch on an
    /// already-loaded bool.
    recording: bool,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Id of the component currently handling the event.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Key and enqueue one event: locally, or — when running as a shard and
    /// the target lives elsewhere — into the cross-shard outbox.
    #[inline]
    fn dispatch(&mut self, at: SimTime, target: ComponentId, msg: M) {
        debug_assert!(*self.count < COUNT_MASK, "per-source send count overflow");
        let key = pack(at, self.sub_hi | *self.count);
        *self.count += 1;
        match self.link.as_deref_mut() {
            Some(link) if !link.is_local(target) => link.deposit(key, at, target, msg),
            _ => self.queue.push(key, target, msg),
        }
    }

    /// Schedule `msg` for `target` after `delay` (possibly zero; zero-delay
    /// events are still delivered after the current handler returns, in
    /// scheduling order).
    #[inline]
    pub fn send(&mut self, delay: SimTime, target: ComponentId, msg: M) {
        self.dispatch(self.now + delay, target, msg);
    }

    /// Schedule `msg` for an absolute time `at`.
    ///
    /// A past `at` is **always clamped to the current time** — identically in
    /// debug and release builds, so optimized and unoptimized runs deliver
    /// the same event order. Each clamp increments the `sim.clamped_sends`
    /// counter; a simulation that is supposed to never look backwards can
    /// assert that counter stays zero.
    #[inline]
    pub fn send_at(&mut self, at: SimTime, target: ComponentId, msg: M) {
        let at = if at < self.now {
            self.counters
                .add_id(crate::counter_id!("sim.clamped_sends"), 1);
            self.now
        } else {
            at
        };
        self.dispatch(at, target, msg);
    }

    /// Schedule `msg` for this component after `delay`.
    #[inline]
    pub fn send_self(&mut self, delay: SimTime, msg: M) {
        self.send(delay, self.self_id, msg);
    }

    /// Schedule a whole burst of `(delay, target, msg)` events in one queue
    /// pass (see [`crate::queue`]); cheaper than repeated [`Ctx::send`] for
    /// large fan-outs. Delivery order among same-time events is iteration
    /// order, exactly as if each had been sent individually.
    pub fn send_batch(&mut self, batch: impl IntoIterator<Item = (SimTime, ComponentId, M)>) {
        let now = self.now;
        if self.link.is_some() {
            // Sharded: each event may route to a different outbox; the keys
            // are content-based, so per-item dispatch delivers identically.
            for (delay, target, msg) in batch {
                self.dispatch(now + delay, target, msg);
            }
            return;
        }
        let sub_hi = self.sub_hi;
        let Ctx { queue, count, .. } = self;
        queue.push_batch(batch.into_iter().map(|(delay, target, msg)| {
            let key = pack(now + delay, sub_hi | **count);
            **count += 1;
            (key, target, msg)
        }));
    }

    /// This component's private RNG stream.
    ///
    /// Forked from the engine's master seed on first use, keyed by component
    /// id — so a component's draw sequence depends only on its own history,
    /// not on how many draws *other* components made. That independence is
    /// what keeps randomized runs bit-identical between the sequential
    /// engine and any sharding of the parallel one.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        let master = self.master;
        let id = self.self_id.0 as u64;
        self.rng_slot
            .get_or_insert_with(|| Box::new(master.fork(id + 1)))
    }

    /// Bump a named counter (interns the name; hot call sites should prefer
    /// [`Ctx::count_id`] with a [`crate::counter_id!`]-cached id).
    #[inline]
    pub fn count(&mut self, key: &'static str, amount: u64) {
        self.counters.add(key, amount);
    }

    /// Bump a counter by interned id — the hot path: one indexed add, no
    /// string hashing.
    #[inline]
    pub fn count_id(&mut self, id: crate::counters::CounterId, amount: u64) {
        self.counters.add_id(id, amount);
    }

    /// Emit a typed event attributed to this component into the record
    /// log, which also folds it into the per-operation spans. When the log
    /// is off — the common case — this is a single predictable branch and
    /// the event is never built into a record.
    #[inline]
    pub fn span(&mut self, event: SpanEvent) {
        if self.recording {
            self.span_slow(event);
        }
    }

    #[cold]
    fn span_slow(&mut self, event: SpanEvent) {
        self.trace.record_span(self.now, self.self_id, event);
    }

    /// Record a wire-visible event into the log's packet column, returning
    /// its [`CauseId`] so follow-on events can name it as their parent.
    /// When the log is off this is a single predictable branch and returns
    /// [`CauseId::NONE`]. A shard of the parallel engine hands out
    /// provisional ids, which the merge remaps to the sequential run's.
    #[inline]
    pub fn packet(&mut self, log: PacketLog) -> CauseId {
        if !self.recording {
            return CauseId::NONE;
        }
        self.packet_slow(log)
    }

    #[cold]
    fn packet_slow(&mut self, log: PacketLog) -> CauseId {
        self.trace.record_packet(self.now, self.self_id, log)
    }

    /// Record a resource-occupancy event into the log's ledger column. When
    /// the log is off this is a single predictable branch and the record is
    /// never built.
    #[inline]
    pub fn ledger(&mut self, occ: Occ) {
        if self.recording {
            self.ledger_slow(occ);
        }
    }

    #[cold]
    fn ledger_slow(&mut self, occ: Occ) {
        self.trace.record_ledger(LedgerRecord {
            t0: occ.t0,
            t1: occ.t1,
            component: self.self_id,
            op: occ.op,
            res: occ.res,
            node: occ.node,
            unit: occ.unit,
            owner: occ.owner,
        });
    }

    /// Stop the engine after the current handler returns. Pending events are
    /// retained (the engine can be resumed with another `run*` call).
    #[inline]
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// Outcome of a bounded run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Idle,
    /// A component called [`Ctx::halt`].
    Halted,
    /// The deadline passed with events still pending.
    DeadlineReached,
    /// The event-count budget was exhausted with events still pending.
    BudgetExhausted,
}

/// A deterministic discrete-event simulation engine over message type `M`.
///
/// Fields are `pub(crate)` so the parallel engine (`crate::parallel`) can
/// split one built engine into per-shard engines and merge results back;
/// everything outside this crate goes through the accessor methods.
pub struct Engine<M: 'static> {
    pub(crate) components: Vec<Option<Box<dyn Component<M>>>>,
    pub(crate) queue: EventQueue<M>,
    pub(crate) now: SimTime,
    /// Master RNG: never drawn from directly, only forked per component.
    pub(crate) rng: SimRng,
    /// Per-component source state (send count + private RNG stream), one
    /// record per component so a delivery's lookup is a single indexed
    /// access on one cache line.
    pub(crate) srcs: Vec<SourceState>,
    /// Send count of the external source (`schedule_*` injections).
    pub(crate) ext_count: u64,
    pub(crate) trace: Trace,
    pub(crate) counters: Counters,
    pub(crate) halted: bool,
    pub(crate) events_processed: u64,
}

impl<M: 'static> Engine<M> {
    /// Create an engine whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Engine {
            components: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            srcs: Vec::new(),
            ext_count: 0,
            trace: Trace::disabled(),
            counters: Counters::new(),
            halted: false,
            events_processed: 0,
        }
    }

    /// Reserve a component slot, returning its id. Useful when components
    /// need each other's ids at construction time; fill the slot later with
    /// [`Engine::install`].
    pub fn reserve_id(&mut self) -> ComponentId {
        let id = ComponentId(self.components.len());
        debug_assert!(
            self.components.len() < MAX_COMPONENTS,
            "component count exceeds the event-key source field"
        );
        self.components.push(None);
        self.srcs.push(SourceState::default());
        id
    }

    /// Install a component into a reserved slot.
    ///
    /// # Panics
    /// Panics if the slot is already occupied.
    pub fn install<C: Component<M> + 'static>(&mut self, id: ComponentId, component: C) {
        assert!(
            self.components[id.0].is_none(),
            "component slot {id} already occupied"
        );
        self.components[id.0] = Some(Box::new(component));
    }

    /// Add a component, returning its id (reserve + install in one step).
    pub fn add<C: Component<M> + 'static>(&mut self, component: C) -> ComponentId {
        let id = self.reserve_id();
        self.install(id, component);
        id
    }

    /// Number of component slots (installed or reserved).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if no components exist.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Inject an event from outside the simulation at absolute time `at`
    /// (must be `>= now`). External injections are key source 0: at equal
    /// times they deliver before any handler-scheduled event, in injection
    /// order.
    pub fn schedule_at(&mut self, at: SimTime, target: ComponentId, msg: M) {
        assert!(at >= self.now, "scheduling into the past");
        debug_assert!(self.ext_count < COUNT_MASK, "external send count overflow");
        let key = pack(at, self.ext_count);
        self.ext_count += 1;
        self.queue.push(key, target, msg);
    }

    /// Inject an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, target: ComponentId, msg: M) {
        self.schedule_at(self.now + delay, target, msg);
    }

    /// Inject a batch of `(at, target, msg)` events in one queue pass —
    /// cheaper than repeated [`Engine::schedule_at`] for large workload
    /// set-ups. Same-time events are delivered in iteration order.
    ///
    /// # Panics
    /// Panics if any event time is before `now`.
    pub fn schedule_batch(&mut self, batch: impl IntoIterator<Item = (SimTime, ComponentId, M)>) {
        let now = self.now;
        let Engine {
            queue, ext_count, ..
        } = self;
        queue.push_batch(batch.into_iter().map(|(at, target, msg)| {
            assert!(at >= now, "scheduling into the past");
            let key = pack(at, *ext_count);
            *ext_count += 1;
            (key, target, msg)
        }));
    }

    /// Current simulated time (the timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The engine-wide counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The record log.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Turn the record log on.
    pub fn enable_trace(&mut self) {
        self.trace.enable();
    }

    /// Mutable access to the record log (replacing it, setting the span
    /// fold's participants).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Downcast access to a concrete component, for post-run inspection.
    pub fn component_ref<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        // `as_deref` yields `&dyn Component<M>` so `as_any` dispatches through
        // the vtable to the concrete type (calling it on the `Box` directly
        // would match the blanket impl for the box itself).
        self.components[id.0]
            .as_deref()
            .and_then(|c| c.as_any().downcast_ref::<T>())
    }

    /// Downcast mutable access to a concrete component.
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.components[id.0]
            .as_deref_mut()
            .and_then(|c| c.as_any_mut().downcast_mut::<T>())
    }

    /// Deliver the single earliest event. Returns `false` if the queue was
    /// empty.
    ///
    /// # Panics
    /// Panics if the event targets an empty component slot.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        self.deliver(event, None, None);
        true
    }

    /// Deliver one already-popped event to its component.
    ///
    /// `link` is present when this engine runs as a shard of the parallel
    /// engine (cross-shard sends go to outboxes); `raw` is present when the
    /// shard records, and takes the delivery's boundary in the shard's log
    /// for the deterministic post-run merge.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        event: PoppedEvent<M>,
        link: Option<&mut ShardLink<M>>,
        raw: Option<&mut RawObs>,
    ) {
        debug_assert!(
            event.time >= self.now,
            "event queue went backwards: event at {} for {:?} behind clock {}",
            event.time,
            event.target,
            self.now
        );
        self.now = event.time;
        self.events_processed += 1;
        let recording = self.trace.is_enabled();
        // Split borrow: the target component and the Ctx fields are disjoint
        // parts of `self`, so the handler runs without moving the component
        // out of its slot and back.
        let Engine {
            components,
            queue,
            now,
            rng,
            srcs,
            trace,
            counters,
            halted,
            ..
        } = self;
        let component = components[event.target.0]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("event for uninstalled component {}", event.target));
        let src = &mut srcs[event.target.0];
        let mut ctx = Ctx {
            now: *now,
            self_id: event.target,
            sub_hi: (event.target.0 as u64 + 1) << SUB_BITS,
            count: &mut src.count,
            queue,
            rng_slot: &mut src.rng,
            master: rng,
            trace,
            counters,
            halt: halted,
            link,
            recording,
        };
        component.handle(event.msg, &mut ctx);
        if recording {
            let kept = self.trace.settle();
            if let Some(r) = raw {
                // The merge needs an entry for *every* delivered event —
                // even record-less ones — because the cross-shard merge
                // order is decided by delivered-event keys, not by record
                // keys.
                r.events.push(RawEvent::new(event.key, kept));
            }
        }
    }

    /// Run until the queue drains or a component halts. Returns the final
    /// simulated time.
    ///
    /// This is the hot loop: with no deadline and no budget to check it
    /// pops and delivers directly, one queue access per event (unlike
    /// [`Engine::run_bounded`], which must peek before committing to a pop).
    pub fn run(&mut self) -> SimTime {
        self.halted = false;
        while !self.halted {
            let Some(event) = self.queue.pop() else { break };
            self.deliver(event, None, None);
        }
        self.now
    }

    /// Run until `deadline` (inclusive), the queue drains, or a component
    /// halts.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run_bounded(deadline, u64::MAX)
    }

    /// Run with both a time deadline and an event-count budget — the budget
    /// guards tests against accidental event storms (a protocol bug that
    /// retransmits forever should fail fast, not hang).
    pub fn run_bounded(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        self.halted = false;
        let mut budget = max_events;
        loop {
            if self.halted {
                return RunOutcome::Halted;
            }
            let Some(next) = self.queue.peek_time() else {
                return RunOutcome::Idle;
            };
            if next > deadline {
                return RunOutcome::DeadlineReached;
            }
            if budget == 0 {
                return RunOutcome::BudgetExhausted;
            }
            budget -= 1;
            self.step();
        }
    }

    /// Deliver every pending event with `time < end_ns` — one conservative
    /// window of a sharded run. Cross-shard sends go to `link`'s outboxes;
    /// while the shard records, `raw` takes each delivery's boundary in its
    /// log for the deterministic post-run merge. Returns the number of
    /// events delivered. Stops early if a component halts (`self.halted` is
    /// *not* reset here — the parallel engine owns halt propagation).
    pub(crate) fn run_window(
        &mut self,
        end_ns: u64,
        link: &mut ShardLink<M>,
        mut raw: Option<&mut RawObs>,
    ) -> u64 {
        debug_assert_eq!(
            link.window_ends[link.my_shard()],
            end_ns,
            "worker must pre-set the per-destination window vector"
        );
        let mut delivered = 0;
        while !self.halted {
            let Some(next) = self.queue.peek_time() else {
                break;
            };
            if next.as_ns() >= end_ns {
                break;
            }
            let event = self.queue.pop().expect("peeked event vanished");
            self.deliver(event, Some(link), raw.as_deref_mut());
            delivered += 1;
        }
        delivered
    }

    /// Earliest pending event time, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Msg {
        Tick(u32),
        Record(u32),
        Stop,
    }

    /// Sends `Record(i)` to a sink every microsecond, `n` times, then stops
    /// the engine.
    struct Ticker {
        sink: ComponentId,
        remaining: u32,
    }

    impl Component<Msg> for Ticker {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match msg {
                Msg::Tick(i) => {
                    ctx.send(SimTime::ZERO, self.sink, Msg::Record(i));
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        ctx.send_self(SimTime::MICROSECOND, Msg::Tick(i + 1));
                    } else {
                        ctx.send(SimTime::ZERO, self.sink, Msg::Stop);
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    struct Sink {
        seen: Vec<(SimTime, u32)>,
    }

    impl Component<Msg> for Sink {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match msg {
                Msg::Record(i) => {
                    ctx.count("records", 1);
                    ctx.span(SpanEvent::Arrive {
                        src: 0,
                        info: u64::from(i),
                    });
                    self.seen.push((ctx.now(), i));
                }
                Msg::Stop => ctx.halt(),
                _ => unreachable!(),
            }
        }
    }

    fn build(n: u32) -> (Engine<Msg>, ComponentId, ComponentId) {
        let mut engine: Engine<Msg> = Engine::new(0);
        let ticker_id = engine.reserve_id();
        let sink_id = engine.reserve_id();
        engine.install(
            ticker_id,
            Ticker {
                sink: sink_id,
                remaining: n,
            },
        );
        engine.install(sink_id, Sink { seen: Vec::new() });
        engine.schedule_at(SimTime::ZERO, ticker_id, Msg::Tick(0));
        (engine, ticker_id, sink_id)
    }

    #[test]
    fn events_delivered_in_time_order() {
        let (mut engine, _, sink) = build(4);
        assert_eq!(engine.run_until(SimTime::MAX), RunOutcome::Halted);
        let sink = engine.component_ref::<Sink>(sink).unwrap();
        let times: Vec<u64> = sink.seen.iter().map(|(t, _)| t.as_ns()).collect();
        assert_eq!(times, vec![0, 1_000, 2_000, 3_000, 4_000]);
        let ids: Vec<u32> = sink.seen.iter().map(|(_, i)| *i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ties_resolve_in_scheduling_order() {
        struct Collector {
            order: Vec<u32>,
        }
        impl Component<Msg> for Collector {
            fn handle(&mut self, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
                if let Msg::Record(i) = msg {
                    self.order.push(i);
                }
            }
        }
        let mut engine: Engine<Msg> = Engine::new(0);
        let c = engine.add(Collector { order: Vec::new() });
        // All at t=5us, scheduled 3,1,2 — must deliver 3,1,2.
        for i in [3u32, 1, 2] {
            engine.schedule_at(SimTime::from_us(5.0), c, Msg::Record(i));
        }
        engine.run();
        assert_eq!(
            engine.component_ref::<Collector>(c).unwrap().order,
            vec![3, 1, 2]
        );
    }

    #[test]
    fn handler_scheduled_ties_keep_issue_order() {
        struct Burst {
            sink: ComponentId,
        }
        impl Component<Msg> for Burst {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                for i in 0..5 {
                    ctx.send(SimTime::from_us(1.0), self.sink, Msg::Record(i));
                }
            }
        }
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink_id = engine.reserve_id();
        let burst_id = engine.reserve_id();
        engine.install(sink_id, Sink { seen: Vec::new() });
        engine.install(burst_id, Burst { sink: sink_id });
        engine.schedule_at(SimTime::ZERO, burst_id, Msg::Tick(0));
        engine.run();
        let ids: Vec<u32> = engine
            .component_ref::<Sink>(sink_id)
            .unwrap()
            .seen
            .iter()
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn batched_sends_keep_issue_order() {
        struct BatchBurst {
            sink: ComponentId,
        }
        impl Component<Msg> for BatchBurst {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                let sink = self.sink;
                ctx.send_batch((0..5).map(|i| (SimTime::from_us(1.0), sink, Msg::Record(i))));
            }
        }
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink_id = engine.reserve_id();
        let burst_id = engine.reserve_id();
        engine.install(sink_id, Sink { seen: Vec::new() });
        engine.install(burst_id, BatchBurst { sink: sink_id });
        engine.schedule_at(SimTime::ZERO, burst_id, Msg::Tick(0));
        engine.run();
        let ids: Vec<u32> = engine
            .component_ref::<Sink>(sink_id)
            .unwrap()
            .seen
            .iter()
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn schedule_batch_matches_individual_schedules() {
        let run = |batched: bool| {
            let mut engine: Engine<Msg> = Engine::new(0);
            let sink = engine.add(Sink { seen: Vec::new() });
            let events =
                (0..64u32).map(|i| (SimTime::from_ns((i % 7) as u64), sink, Msg::Record(i)));
            if batched {
                engine.schedule_batch(events);
            } else {
                for (at, target, msg) in events {
                    engine.schedule_at(at, target, msg);
                }
            }
            engine.run();
            engine.component_ref::<Sink>(sink).unwrap().seen.clone()
        };
        assert_eq!(run(true), run(false));
    }

    /// Same-time sends from different components interleave by component id
    /// (the key's source field), regardless of issue order — the property
    /// the parallel merge depends on.
    #[test]
    fn cross_component_ties_order_by_source_id() {
        struct At {
            sink: ComponentId,
            tag: u32,
        }
        impl Component<Msg> for At {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                // Absolute target time, so both components aim at the same
                // instant even though their handlers fire at different times.
                ctx.send_at(SimTime::from_us(1.0), self.sink, Msg::Record(self.tag));
            }
        }
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink = engine.add(Sink { seen: Vec::new() });
        let a = engine.add(At { sink, tag: 10 });
        let b = engine.add(At { sink, tag: 20 });
        // Fire b's handler before a's: both aim at the same instant, and
        // the sink still sees a's message (lower component id) first.
        engine.schedule_at(SimTime::ZERO, b, Msg::Tick(0));
        engine.schedule_at(SimTime::from_ns(1), a, Msg::Tick(0));
        engine.run();
        let ids: Vec<u32> = engine
            .component_ref::<Sink>(sink)
            .unwrap()
            .seen
            .iter()
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(ids, vec![10, 20]);
    }

    #[test]
    fn run_until_deadline_stops_early() {
        let (mut engine, _, _) = build(100);
        let outcome = engine.run_until(SimTime::from_us(10.5));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(engine.now(), SimTime::from_us(10.0));
        assert!(engine.pending_events() > 0);
        // Resume to completion.
        assert_eq!(engine.run_until(SimTime::MAX), RunOutcome::Halted);
    }

    fn sink_ids(engine: &Engine<Msg>, sink: ComponentId) -> Vec<u32> {
        let sink = engine.component_ref::<Sink>(sink).unwrap();
        sink.seen.iter().map(|(_, i)| *i).collect()
    }

    /// A delivery whose handler schedules nothing leaves the queue's root
    /// vacant; the pending count and next time must still be exact.
    #[test]
    fn pending_and_next_time_exact_after_a_silent_last_handler() {
        let us = |t: u64| SimTime::from_ns(t * 1_000);
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink = engine.add(Sink { seen: Vec::new() });
        for i in 0..20u64 {
            let t = i * 7 % 20 + 1;
            engine.schedule_at(us(t), sink, Msg::Record(t as u32));
        }
        assert_eq!(engine.run_until(us(5)), RunOutcome::DeadlineReached);
        assert_eq!(engine.now(), us(5));
        assert_eq!(engine.pending_events(), 15);
        assert_eq!(engine.next_event_time(), Some(us(6)));
        assert_eq!(engine.run_until(SimTime::MAX), RunOutcome::Idle);
        assert_eq!(engine.pending_events(), 0);
        assert_eq!(engine.next_event_time(), None);
        assert_eq!(sink_ids(&engine, sink), (1..=20).collect::<Vec<u32>>());
    }

    /// An external injection after `step` refills the vacant root, and
    /// delivery still follows key order.
    #[test]
    fn schedule_after_step_refills_the_root_in_key_order() {
        let us = |t: u64| SimTime::from_ns(t * 1_000);
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink = engine.add(Sink { seen: Vec::new() });
        for t in [3u64, 1, 4, 8, 6, 2, 7, 5] {
            engine.schedule_at(us(t), sink, Msg::Record(t as u32 * 10));
        }
        assert!(engine.step());
        assert_eq!(engine.pending_events(), 7);
        // Past every pending key first (it takes the root and sinks to a
        // leaf), then a tie with a pending event, then the current time.
        engine.schedule_at(us(9), sink, Msg::Record(90));
        engine.schedule_at(us(4), sink, Msg::Record(41));
        engine.schedule_at(us(1), sink, Msg::Record(11));
        assert_eq!(engine.pending_events(), 10);
        assert_eq!(engine.next_event_time(), Some(us(1)));
        engine.run();
        assert_eq!(
            sink_ids(&engine, sink),
            vec![10, 11, 20, 30, 40, 41, 50, 60, 70, 80, 90]
        );
    }

    #[test]
    fn budget_exhaustion_reports() {
        let (mut engine, _, _) = build(1000);
        let outcome = engine.run_bounded(SimTime::MAX, 10);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(engine.events_processed(), 10);
    }

    #[test]
    fn queue_drain_reports_idle() {
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink = engine.add(Sink { seen: Vec::new() });
        engine.schedule_at(SimTime::from_us(1.0), sink, Msg::Record(7));
        assert_eq!(engine.run_until(SimTime::MAX), RunOutcome::Idle);
        assert_eq!(engine.now(), SimTime::from_us(1.0));
    }

    #[test]
    fn counters_and_trace_capture_activity() {
        let (mut engine, _, _) = build(9);
        engine.enable_trace();
        engine.run();
        assert_eq!(engine.counters().get("records"), 10);
        assert_eq!(engine.trace().count("arrive"), 10);
        let infos: Vec<u64> = engine
            .trace()
            .iter()
            .map(|r| match r.event {
                SpanEvent::Arrive { info, .. } => info,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(infos, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn log_records_and_folds_spans_emitted_through_ctx() {
        use crate::span::{Phase, SpanEvent};

        struct Op {
            sink: ComponentId,
        }
        impl Component<Msg> for Op {
            fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                match msg {
                    Msg::Tick(0) => {
                        ctx.span(SpanEvent::OpBegin { group: 7, seq: 0 });
                        ctx.send_self(SimTime::MICROSECOND, Msg::Tick(1));
                    }
                    Msg::Tick(1) => {
                        ctx.span(SpanEvent::Fire { unit: 0, dst: 1 });
                        ctx.send_self(SimTime::MICROSECOND, Msg::Tick(2));
                    }
                    Msg::Tick(2) => {
                        ctx.span(SpanEvent::OpEnd { group: 7, seq: 0 });
                        ctx.send(SimTime::ZERO, self.sink, Msg::Stop);
                    }
                    _ => unreachable!(),
                }
            }
        }
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink = engine.add(Sink { seen: Vec::new() });
        let op = engine.add(Op { sink });
        engine.enable_trace();
        engine.trace_mut().set_participants(1);
        engine.schedule_at(SimTime::ZERO, op, Msg::Tick(0));
        engine.run();
        // One log: the span records are retained and folded.
        assert_eq!(engine.trace().len(), 3);
        let spans = engine.trace().completed();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].total(), SimTime::from_us(2.0));
        assert_eq!(spans[0].phase(Phase::Fire), 1_000);
        assert_eq!(spans[0].phase(Phase::Host), 1_000);
    }

    #[test]
    fn component_downcast() {
        let (mut engine, ticker, sink) = build(1);
        engine.run();
        assert!(engine.component_ref::<Sink>(sink).is_some());
        assert!(engine.component_ref::<Ticker>(sink).is_none());
        assert!(engine.component_mut::<Ticker>(ticker).is_some());
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_install_panics() {
        let mut engine: Engine<Msg> = Engine::new(0);
        let id = engine.add(Sink { seen: Vec::new() });
        engine.install(id, Sink { seen: Vec::new() });
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let (mut engine, ticker, _) = build(3);
        engine.run();
        engine.schedule_at(SimTime::ZERO, ticker, Msg::Tick(0));
    }

    #[test]
    fn send_at_clamps_past_times_and_counts() {
        struct BackSender {
            sink: ComponentId,
        }
        impl Component<Msg> for BackSender {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                // Deliberately aim one microsecond into the past.
                ctx.send_at(SimTime::ZERO, self.sink, Msg::Record(9));
            }
        }
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink_id = engine.reserve_id();
        let back_id = engine.reserve_id();
        engine.install(sink_id, Sink { seen: Vec::new() });
        engine.install(back_id, BackSender { sink: sink_id });
        engine.schedule_at(SimTime::from_us(1.0), back_id, Msg::Tick(0));
        engine.run();
        let sink = engine.component_ref::<Sink>(sink_id).unwrap();
        // Clamped to the send time, not dropped or delivered early.
        assert_eq!(sink.seen, vec![(SimTime::from_us(1.0), 9)]);
        assert_eq!(engine.counters().get("sim.clamped_sends"), 1);
    }

    #[test]
    fn send_at_future_times_do_not_count_as_clamped() {
        struct FwdSender {
            sink: ComponentId,
        }
        impl Component<Msg> for FwdSender {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                ctx.send_at(SimTime::from_us(2.0), self.sink, Msg::Record(1));
            }
        }
        let mut engine: Engine<Msg> = Engine::new(0);
        let sink_id = engine.reserve_id();
        let fwd_id = engine.reserve_id();
        engine.install(sink_id, Sink { seen: Vec::new() });
        engine.install(fwd_id, FwdSender { sink: sink_id });
        engine.schedule_at(SimTime::ZERO, fwd_id, Msg::Tick(0));
        engine.run();
        assert_eq!(engine.counters().get("sim.clamped_sends"), 0);
        assert_eq!(engine.now(), SimTime::from_us(2.0));
    }

    /// Each component's RNG stream is independent of every other
    /// component's draw volume — the property that keeps randomized runs
    /// identical across shard counts.
    #[test]
    fn component_rng_streams_are_draw_independent() {
        struct Drawer {
            draws: usize,
            got: Vec<u64>,
        }
        impl Component<Msg> for Drawer {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                for _ in 0..self.draws {
                    let v = ctx.rng().next_u64();
                    self.got.push(v);
                }
            }
        }
        let run = |other_draws: usize| {
            let mut engine: Engine<Msg> = Engine::new(7);
            let a = engine.add(Drawer {
                draws: 3,
                got: Vec::new(),
            });
            let b = engine.add(Drawer {
                draws: other_draws,
                got: Vec::new(),
            });
            engine.schedule_at(SimTime::ZERO, b, Msg::Tick(0));
            engine.schedule_at(SimTime::MICROSECOND, a, Msg::Tick(0));
            engine.run();
            engine.component_ref::<Drawer>(a).unwrap().got.clone()
        };
        // However many draws b makes (even before a runs), a's stream is
        // unchanged.
        assert_eq!(run(0), run(17));
    }

    #[test]
    fn determinism_across_reruns() {
        let run = || {
            let (mut engine, _, sink) = build(50);
            engine.run();
            let sink = engine.component_ref::<Sink>(sink).unwrap();
            (engine.now(), engine.events_processed(), sink.seen.clone())
        };
        assert_eq!(run(), run());
    }
}
