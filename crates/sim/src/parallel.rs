//! Rank-sharded conservative parallel execution of an [`Engine`].
//!
//! [`ParallelEngine`] partitions a fully-built engine's components across
//! worker threads (one shard each, see [`crate::partition`]), each running
//! its own event queue, and synchronizes them with the conservative
//! time-window protocol — with *adaptive per-shard lookahead*: at every
//! window boundary each shard publishes its earliest pending event time
//! `next_i`, and every worker (deterministically, from the same published
//! values) computes each shard's granted window end
//!
//! ```text
//! EAT(i) = min over m of ( next_m + dist(m, i) )     (dist(i, i) = 0)
//! W(j)   = min over i != j of ( EAT(i) + L(i, j) )
//! ```
//!
//! where `L(i, j)` is the per-pair minimum cross-shard message latency
//! ([`LatencyMatrix`]) and `dist` its shortest-path closure
//! ([`LatencyMatrix::closure`]). Shard `j` executes local events strictly
//! below `W(j)` without any further coordination. The *earliest-activation
//! time* `EAT(i)` lower-bounds the execution time of any event shard `i`
//! can ever run from this window on: events already in its queue are
//! `>= next_i >= EAT(i)`, and anything that could wake it travels a relay
//! chain from some shard `m` costing at least `next_m + dist(m, i)`. The
//! naïve bound `W(j) = min(next_i + L(i, j))` is **unsound**: a shard
//! whose queue is momentarily empty publishes `next = MAX` and constrains
//! nobody, yet a message from a busy shard can wake it and its reply then
//! lands in the past of a peer that ran ahead. With `EAT`, an idle shard
//! still constrains its neighbours through the cheapest chain that could
//! reach it. Safety: every event shard `i` executes this window has time
//! `t >= EAT(i)`, so anything it sends to `j` arrives at
//! `t + L(i, j) >= W(j)` — never inside `j`'s window. Monotonicity: each
//! shard's next minimum is at or past its previous window end, itself at
//! least its previous `EAT` (triangle inequality of `dist`), so granted
//! windows never move backwards across epochs and per-shard delivery
//! streams stay key-sorted. Progress: the shard(s) holding the global
//! minimum `H` get `W > H` (every `EAT >= H` and `L > 0`). The classic
//! global window `[H, H + min L)` is the special case where every pair
//! shares the worst-case bound; the per-pair form lets far-apart shards
//! run further ahead per synchronization. Cross-shard sends travel through
//! per-pair mailboxes and are integrated before the next window is chosen.
//!
//! ## Why the result is byte-identical to the sequential engine
//!
//! Event keys are content-based (`(time, source, per-source count)` — see
//! [`crate::engine`]), so an event's key does not depend on which thread
//! pushed it or when. Within one shard, events are delivered in exactly the
//! order the sequential engine would deliver them *restricted to that
//! shard*: same-time event creation is always intra-shard (cross-shard
//! arrivals lag by ≥ `L`), so each shard's pending set — and therefore its
//! pop sequence — evolves independently of the interleaving. Per-component
//! RNG streams and per-source send counts make every handler's behaviour a
//! function of its own delivery sequence alone. The global sequential
//! delivery order is then reconstructible after the fact: it is the k-way
//! merge of the per-shard delivery sequences that always takes the stream
//! whose *head event key* is smallest (the sequential engine's pending-set
//! minimum always lives at the head of exactly one shard's stream).
//!
//! ## Deterministic observability merge
//!
//! The record log ([`crate::Trace`]) must hold its span, packet and ledger
//! records in the *global* delivery order, apply its bound and fold its
//! spans exactly as a sequential run does. Each shard engine therefore
//! records through the same [`crate::Ctx`] path into its own log, which has
//! no bound and no span fold, and notes one boundary per delivered event
//! (`RawObs`: the event key plus the records it added to each column;
//! record-less events included, because the merge order is decided by
//! delivered-event keys, not record keys). After the run the shards'
//! boundary lists are k-way merged by head event key, and each delivery's
//! records are replayed into the base log through the same append calls,
//! column by column, and settled against the bound as the sequential
//! engine settles each delivery. Packet ids are assigned at replay time,
//! so they match the sequential run exactly; during the run a shard's log
//! hands out *provisional* ids counting up from `(shard + 1) << 40`, which
//! the replay remaps — including ids that components stored and re-use as
//! causal parents many windows later.
//!
//! ## Lock-free mailboxes, scratch ownership, steady-state allocation
//!
//! Cross-shard batches move through per-`(from, to)` pairs of bounded SPSC
//! rings (`SpscRing`, private to the crate): the sender pushes its full outbox
//! vector onto the pair's `full` ring after executing a window (between
//! the two barriers), and the receiver drains it at its next window open
//! (before barrier 1), returning the emptied vector on the pair's `free`
//! ring for the sender to reuse. The two-barrier protocol means a pair can
//! hold at most one undrained batch at a time, so capacity 2 never
//! overflows, a deposit is one `Release` store, and no third shard ever
//! contends on the pair. Draining *before* the window decision preserves
//! the identity argument: a batch deposited in window `w` is integrated
//! into the receiver's queue before the window-`w+1` horizon is computed,
//! exactly when the old mutex mailboxes handed it over. Every mutable
//! structure remains owned by exactly one thread at any time, and the
//! vector ping-pong keeps a steady-state window allocation-free; the
//! counting-allocator gate (`tests/alloc_steady.rs`) enforces this.
//!
//! ## Documented divergences from the sequential engine
//!
//! * **Event budget** ([`ParallelEngine::run_bounded`]): enforced at window
//!   granularity (the run stops at the first window boundary at or past the
//!   budget), not per event. Time deadlines are exact.
//! * **Halt**: a [`crate::Ctx::halt`] stops the halting shard immediately
//!   but other shards finish the current window first. The barrier driver
//!   layer never halts mid-protocol, so the parity witness is unaffected.

use crate::causal::{CauseId, PacketRecord};
use crate::engine::{ComponentId, Engine, RunOutcome};
use crate::ledger::LedgerRecord;
use crate::partition::{LatencyMatrix, ShardMap};
use crate::queue::{pack, SpscRing};
use crate::telemetry::{EngineProf, ProfClock, ShardProf};
use crate::time::SimTime;
use crate::trace::{Counts, Trace};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Routes a shard's sends: local targets to the local queue, cross-shard
/// targets into per-destination outboxes.
pub(crate) struct ShardLink<M> {
    table: Arc<Vec<u32>>,
    my_shard: u32,
    /// Granted window end (exclusive, ns) of every *destination* shard for
    /// the window currently executing; a cross-shard send to shard `j`
    /// must land at or beyond `window_ends[j]` (the per-pair lookahead
    /// guarantee). Recomputed by the worker at every window decision.
    pub(crate) window_ends: Vec<u64>,
    /// One outbox per destination shard (own slot unused).
    pub(crate) outboxes: Vec<Vec<(u128, ComponentId, M)>>,
}

impl<M> ShardLink<M> {
    #[inline]
    pub(crate) fn is_local(&self, target: ComponentId) -> bool {
        self.table[target.0] == self.my_shard
    }

    /// This link's own shard index (for window-bound sanity checks).
    #[inline]
    pub(crate) fn my_shard(&self) -> usize {
        self.my_shard as usize
    }

    #[inline]
    pub(crate) fn deposit(&mut self, key: u128, at: SimTime, target: ComponentId, msg: M) {
        let shard = self.table[target.0] as usize;
        debug_assert!(
            at.as_ns() >= self.window_ends[shard],
            "cross-shard send from shard {} at {at} (target {target:?}) lands inside \
             shard {shard}'s window (end {} ns): the pair's lookahead is overstated",
            self.my_shard,
            self.window_ends[shard]
        );
        self.outboxes[shard].push((key, target, msg));
    }
}

/// One delivery's boundary in a shard's log: the key of the delivered
/// event and how many span, packet and ledger records its handler added.
pub(crate) struct RawEvent {
    key: u128,
    spans: u32,
    packets: u32,
    ledger: u32,
}

impl RawEvent {
    /// The boundary of the delivery of `key`, which added `kept`.
    pub(crate) fn new(key: u128, kept: Counts) -> Self {
        RawEvent {
            key,
            spans: kept.spans as u32,
            packets: kept.packets as u32,
            ledger: kept.ledger as u32,
        }
    }
}

/// Bit position of the shard tag inside a provisional [`CauseId`].
const PKT_TAG_SHIFT: u32 = 40;
const PKT_IDX_MASK: u64 = (1 << PKT_TAG_SHIFT) - 1;

/// A recording shard's delivery boundaries since the last merge.
#[derive(Default)]
pub(crate) struct RawObs {
    pub(crate) events: Vec<RawEvent>,
}

#[inline]
fn is_provisional(id: CauseId) -> bool {
    id.0 > PKT_IDX_MASK
}

/// The real id of `id`: provisional shard ids are looked up in the merge's
/// per-shard remap tables, everything else is already real.
fn real_id(pkt_remap: &[Vec<CauseId>], id: CauseId) -> CauseId {
    if !is_provisional(id) {
        return id;
    }
    let from = ((id.0 >> PKT_TAG_SHIFT) - 1) as usize;
    pkt_remap[from][(id.0 & PKT_IDX_MASK) as usize]
}

/// One worker shard: its engine slice plus the cross-shard plumbing.
struct ShardState<M: 'static> {
    engine: Engine<M>,
    link: ShardLink<M>,
    raw: RawObs,
    /// Self-profiler, armed by [`ParallelEngine::enable_prof`]. `None` is
    /// the zero-cost default: every hook in the worker loop is one
    /// `Option` branch per *window*, and the disabled path allocates
    /// nothing (the steady-state allocation gate runs with it off).
    prof: Option<Box<ShardProf>>,
}

/// One batch of cross-shard sends: `(event key, destination, message)`
/// triples from one sender window.
type Batch<M> = Vec<(u128, ComponentId, M)>;

/// One cross-shard mailbox (a single `(from, to)` shard pair): full
/// batches travel sender → receiver on `full`; emptied vectors come back
/// on `free` so the steady state recycles instead of allocating. The
/// two-barrier window protocol bounds the pair to one undrained batch at
/// a time, so capacity 2 on each ring can never overflow.
struct Mailbox<M> {
    full: SpscRing<Batch<M>>,
    free: SpscRing<Batch<M>>,
}

impl<M> Mailbox<M> {
    fn new() -> Self {
        Mailbox {
            full: SpscRing::new(2),
            free: SpscRing::new(2),
        }
    }
}

/// The rank-sharded conservative parallel engine.
///
/// Wraps a fully-built (but not yet run) [`Engine`], splitting its
/// components, queue, and RNG streams across `shards` workers. All result
/// surfaces — counters, the record log, `now`, `events_processed` — are
/// byte-identical to running the original engine sequentially, for any
/// shard count from two up (see the module docs for why).
pub struct ParallelEngine<M: 'static> {
    /// The residual original engine: owns the merged record log, the
    /// counters, the clock, and the external send counter. Its component
    /// slots and queue are empty (moved into the shards).
    base: Engine<M>,
    shards: Vec<ShardState<M>>,
    table: Arc<Vec<u32>>,
    /// Per-pair conservative lookahead bounds funding the adaptive windows.
    latency: LatencyMatrix,
    /// Per-pair mailboxes, indexed `[from * K + to]`.
    mail: Vec<Mailbox<M>>,
    /// Per shard: provisional packet index → real packet id.
    pkt_remap: Vec<Vec<CauseId>>,
    /// Components per shard (partition balance, reported by the profiler).
    shard_sizes: Vec<usize>,
}

impl<M: Send + 'static> ParallelEngine<M> {
    /// Split `engine` across `map.shards()` workers with one global
    /// conservative lookahead (the minimum latency of any cross-shard
    /// message; typically the fabric's one-hop zero-byte latency). Every
    /// pair gets the same bound — see [`ParallelEngine::with_latency`] for
    /// the per-pair form.
    ///
    /// # Panics
    /// Panics if the map has fewer than two shards, does not cover the
    /// engine's components, or if the lookahead is zero (a zero lookahead
    /// admits no parallel window).
    pub fn new(engine: Engine<M>, map: ShardMap, lookahead: SimTime) -> Self {
        let latency = LatencyMatrix::uniform(map.shards(), lookahead);
        Self::with_latency(engine, map, latency)
    }

    /// Split `engine` across `map.shards()` workers with per-pair
    /// conservative lookahead bounds: `latency.get(i, j)` must lower-bound
    /// every message a shard-`i` component can send to a shard-`j`
    /// component. Tighter-than-true bounds are always safe (uniform global
    /// minimum is the degenerate case); overstated bounds break the
    /// byte-identity guarantee and trip a debug assert on deposit.
    ///
    /// # Panics
    /// Panics if the map has fewer than two shards (one shard is the
    /// sequential engine's job), does not cover the engine's components, or
    /// if the matrix's shard count differs from the map's.
    pub fn with_latency(mut engine: Engine<M>, map: ShardMap, latency: LatencyMatrix) -> Self {
        assert!(
            map.shards() >= 2,
            "the parallel engine needs at least two shards, got {}",
            map.shards()
        );
        assert!(
            map.table().len() == engine.len(),
            "shard map covers {} components, engine has {}",
            map.table().len(),
            engine.len()
        );
        assert!(
            latency.shards() == map.shards(),
            "latency matrix covers {} shards, map has {}",
            latency.shards(),
            map.shards()
        );
        let k = map.shards();
        let shard_sizes = map.shard_sizes();
        let table = Arc::new(map.into_table());
        let num = engine.len();
        let mut shards: Vec<ShardState<M>> = (0..k)
            .map(|s| ShardState {
                engine: Engine::shard_shell(&engine, num, (s as u64 + 1) << PKT_TAG_SHIFT),
                link: ShardLink {
                    table: Arc::clone(&table),
                    my_shard: s as u32,
                    window_ends: vec![0; k],
                    outboxes: (0..k).map(|_| Vec::new()).collect(),
                },
                raw: RawObs::default(),
                prof: None,
            })
            .collect();
        // Move every component (and its RNG stream and send count) to its
        // owning shard.
        for c in 0..num {
            let s = table[c] as usize;
            let sh = &mut shards[s].engine;
            sh.components[c] = engine.components[c].take();
            sh.srcs[c] = std::mem::take(&mut engine.srcs[c]);
        }
        // Route the pending (externally scheduled) events to their shards,
        // keys preserved.
        while let Some(ev) = engine.queue.pop() {
            let s = table[ev.target.0] as usize;
            shards[s].engine.queue.push(ev.key, ev.target, ev.msg);
        }
        let mail = (0..k * k).map(|_| Mailbox::new()).collect();
        ParallelEngine {
            base: engine,
            shards,
            table,
            latency,
            mail,
            pkt_remap: (0..k).map(|_| Vec::new()).collect(),
            shard_sizes,
        }
    }

    /// Arm the per-shard self-profiler (see [`crate::telemetry`]). All
    /// shards share one wall-clock epoch so their timelines align; calling
    /// this again restarts the capture from empty.
    pub fn enable_prof(&mut self) {
        let k = self.shards.len();
        let clock = ProfClock::new();
        for sh in &mut self.shards {
            sh.prof = Some(Box::new(ShardProf::new(k, clock)));
        }
    }

    /// Snapshot the self-profiler capture, or `None` if
    /// [`ParallelEngine::enable_prof`] was never called.
    pub fn prof_snapshot(&self) -> Option<EngineProf> {
        let mut data = Vec::with_capacity(self.shards.len());
        for (s, sh) in self.shards.iter().enumerate() {
            let mut d = sh.prof.as_ref()?.data(s as u32);
            d.components = self.shard_sizes.get(s).copied().unwrap_or(0);
            data.push(d);
        }
        Some(EngineProf {
            shards: self.shards.len(),
            lookahead_ns: self.latency.min_ns(),
            data,
        })
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The minimum conservative lookahead over all shard pairs (what a
    /// global-window protocol would grant every window).
    pub fn lookahead(&self) -> SimTime {
        SimTime::from_ns(self.latency.min_ns())
    }

    /// Current simulated time (maximum over shard clocks — the timestamp of
    /// the globally last delivered event, as in the sequential engine).
    pub fn now(&self) -> SimTime {
        self.base.now
    }

    /// Total events delivered (all shards).
    pub fn events_processed(&self) -> u64 {
        self.base.events_processed
    }

    /// The merged counters.
    pub fn counters(&self) -> &crate::counters::Counters {
        &self.base.counters
    }

    /// The merged record log.
    pub fn trace(&self) -> &Trace {
        &self.base.trace
    }

    /// Turn the record log on (merged deterministically after each run).
    pub fn enable_trace(&mut self) {
        self.base.trace.enable();
    }

    /// Mutable access to the merged record log.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.base.trace
    }

    /// Downcast access to a concrete component (routed to its shard).
    pub fn component_ref<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.shards[self.table[id.0] as usize]
            .engine
            .component_ref(id)
    }

    /// Downcast mutable access to a concrete component.
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.shards[self.table[id.0] as usize]
            .engine
            .component_mut(id)
    }

    /// Inject an event from outside the simulation (key source 0, exactly
    /// as [`Engine::schedule_at`] — same count, same key, same delivery).
    pub fn schedule_at(&mut self, at: SimTime, target: ComponentId, msg: M) {
        assert!(at >= self.base.now, "scheduling into the past");
        let key = pack(at, self.base.ext_count);
        self.base.ext_count += 1;
        let s = self.table[target.0] as usize;
        self.shards[s].engine.queue.push(key, target, msg);
    }

    /// Inject an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, target: ComponentId, msg: M) {
        self.schedule_at(self.base.now + delay, target, msg);
    }

    /// Earliest pending event time across all shards.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.engine.queue.peek_time())
            .min()
    }

    /// Total pending events across all shards.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.engine.queue.len()).sum()
    }

    /// Run until every queue drains or a component halts. Returns the final
    /// simulated time.
    pub fn run(&mut self) -> SimTime {
        self.run_bounded(SimTime::MAX, u64::MAX);
        self.base.now
    }

    /// Run until `deadline` (inclusive), every queue drains, or a component
    /// halts.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run_bounded(deadline, u64::MAX)
    }

    /// Run with a time deadline and an event budget. The deadline is exact
    /// (identical delivered-event set to the sequential engine); the budget
    /// is enforced at window granularity — see the module docs.
    pub fn run_bounded(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        let k = self.shards.len();
        let deadline_ns = deadline.as_ns();
        let obs = self.base.trace.is_enabled();
        for sh in &mut self.shards {
            sh.engine.halted = false;
            sh.engine.trace.enabled = obs;
        }
        let mins: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(u64::MAX)).collect();
        let events: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        let halted = AtomicBool::new(false);
        let barrier = Barrier::new(k);
        // Split the shard list (mutably, per worker) from the shared
        // read-only latency matrix so the worker closures can borrow both.
        let latency = &self.latency;
        // Shortest-path closure of the latency graph: bounds wake-up relay
        // chains in the window computation (see `shard_worker`). O(k³)
        // once per call, against O(k²) per window below.
        let relay = latency.closure();
        let relay = relay.as_slice();
        let mail = &self.mail;
        let mins = &mins;
        let events = &events;
        let halted = &halted;
        let barrier = &barrier;
        std::thread::scope(|scope| {
            for (me, state) in self.shards.iter_mut().enumerate() {
                scope.spawn(move || {
                    shard_worker(
                        me,
                        k,
                        state,
                        mins,
                        events,
                        halted,
                        barrier,
                        mail,
                        deadline_ns,
                        max_events,
                        latency,
                        relay,
                        obs,
                    );
                });
            }
        });
        // Single-threaded epilogue: fold shard results into the base engine.
        let delivered: u64 = events.iter().map(|e| e.load(Ordering::Relaxed)).sum();
        self.base.events_processed += delivered;
        for sh in &mut self.shards {
            sh.engine.counters.drain_into(&mut self.base.counters);
            if sh.engine.now > self.base.now {
                self.base.now = sh.engine.now;
            }
        }
        if obs {
            self.merge_observability();
        }
        // Reconstruct the (unanimous) worker decision from the final
        // published state, in the same priority order the workers used.
        if halted.load(Ordering::Relaxed) {
            return RunOutcome::Halted;
        }
        let h = mins
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX);
        if h == u64::MAX {
            RunOutcome::Idle
        } else if h > deadline_ns {
            RunOutcome::DeadlineReached
        } else {
            RunOutcome::BudgetExhausted
        }
    }

    /// Replay each shard's log into the base log in the exact global
    /// delivery order: a k-way merge that always takes the shard whose
    /// *head delivered-event key* is smallest. Each delivery's records go
    /// through the base log's append calls and are settled against its
    /// bound, as the sequential engine settles each delivery. Packet
    /// parents recorded under provisional shard ids are remapped to the
    /// real ids assigned here.
    fn merge_observability(&mut self) {
        let ParallelEngine {
            base,
            shards,
            pkt_remap,
            ..
        } = self;
        // Per shard: next boundary, span, packet and ledger record.
        let mut cursors = vec![(0usize, 0usize, 0usize, 0usize); shards.len()];
        loop {
            let mut best: Option<(u128, usize)> = None;
            for (s, sh) in shards.iter().enumerate() {
                if let Some(ev) = sh.raw.events.get(cursors[s].0) {
                    if best.is_none_or(|(bk, _)| ev.key < bk) {
                        best = Some((ev.key, s));
                    }
                }
            }
            let Some((_, s)) = best else { break };
            let (e, sp, pk, lg) = cursors[s];
            let log = &shards[s].engine.trace;
            let ev = &shards[s].raw.events[e];
            let (sp_end, pk_end, lg_end) = (
                sp + ev.spans as usize,
                pk + ev.packets as usize,
                lg + ev.ledger as usize,
            );
            for r in &log.iter().as_slice()[sp..sp_end] {
                base.trace.record_span(r.time, r.component, r.event);
            }
            for r in &log.packets()[pk..pk_end] {
                let real = base.trace.push_packet(PacketRecord {
                    parent: real_id(pkt_remap, r.parent),
                    ..*r
                });
                debug_assert!(
                    !is_provisional(real),
                    "packet id space collided with provisional shard ids"
                );
                pkt_remap[s].push(real);
            }
            for r in &log.ledger()[lg..lg_end] {
                base.trace.record_ledger(*r);
            }
            base.trace.settle();
            cursors[s] = (e + 1, sp_end, pk_end, lg_end);
        }
        for (sh, c) in shards.iter_mut().zip(&cursors) {
            let log = &mut sh.engine.trace;
            debug_assert_eq!(
                (c.1, c.2, c.3),
                (log.len(), log.packets().len(), log.ledger().len()),
                "unmerged shard records"
            );
            log.clear();
            sh.raw.events.clear();
        }
    }
}

impl<M: 'static> Engine<M> {
    /// An empty shard-sized shell sharing `proto`'s clock and master RNG,
    /// whose log hands out packet ids from `first_id`; components are
    /// moved in by the parallel split.
    fn shard_shell(proto: &Engine<M>, num: usize, first_id: u64) -> Engine<M> {
        let mut shell = Engine::new(0);
        shell.rng = proto.rng.clone();
        shell.now = proto.now;
        shell.trace = Trace::shard(first_id);
        shell.components = (0..num).map(|_| None).collect();
        shell.srcs = (0..num).map(|_| Default::default()).collect();
        shell
    }
}

/// One column of the record log with the log's drop count, as
/// [`ExecEngine::netdump`] and [`ExecEngine::ledger`] return it. Kept for
/// barbench until ROADMAP item 8 deletes it.
pub struct Column<'a, T>(&'a [T], u64);

impl<T> Column<'_, T> {
    /// The column's records.
    pub fn records(&self) -> &[T] {
        self.0
    }

    /// The log's one drop count.
    pub fn dropped(&self) -> u64 {
        self.1
    }
}

/// Either engine flavour behind one API, so a harness can pick sequential
/// or parallel execution per run without duplicating its driver code.
///
/// Every accessor matches the underlying engines' semantics exactly; the
/// two produce byte-identical results (see [`crate::parallel`]), so
/// switching variants never changes what a harness observes — only how
/// much wall-clock it takes to observe it.
pub enum ExecEngine<M: 'static> {
    /// The plain single-threaded engine.
    Seq(Engine<M>),
    /// The rank-sharded conservative parallel engine.
    Par(ParallelEngine<M>),
}

impl<M: Send + 'static> ExecEngine<M> {
    /// `"sequential"` or `"parallel"` — recorded in results manifests.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecEngine::Seq(_) => "sequential",
            ExecEngine::Par(_) => "parallel",
        }
    }

    /// Number of worker shards (1 for the sequential engine).
    pub fn shards(&self) -> usize {
        match self {
            ExecEngine::Seq(_) => 1,
            ExecEngine::Par(p) => p.shards(),
        }
    }

    /// Run until the queue drains or a component halts; returns final time.
    pub fn run(&mut self) -> SimTime {
        match self {
            ExecEngine::Seq(e) => e.run(),
            ExecEngine::Par(p) => p.run(),
        }
    }

    /// Run until `deadline` (inclusive), drain, or halt.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        match self {
            ExecEngine::Seq(e) => e.run_until(deadline),
            ExecEngine::Par(p) => p.run_until(deadline),
        }
    }

    /// Run with a time deadline and an event budget (window-granular on the
    /// parallel engine — see [`ParallelEngine::run_bounded`]).
    pub fn run_bounded(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        match self {
            ExecEngine::Seq(e) => e.run_bounded(deadline, max_events),
            ExecEngine::Par(p) => p.run_bounded(deadline, max_events),
        }
    }

    /// Deliver the single earliest event (sequential engine only).
    ///
    /// # Panics
    /// Panics on the parallel engine: single-stepping is inherently a
    /// sequential-timeline operation.
    pub fn step(&mut self) -> bool {
        match self {
            ExecEngine::Seq(e) => e.step(),
            ExecEngine::Par(_) => {
                panic!("step(): single-stepping needs the sequential engine")
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match self {
            ExecEngine::Seq(e) => e.now(),
            ExecEngine::Par(p) => p.now(),
        }
    }

    /// Total events delivered so far.
    pub fn events_processed(&self) -> u64 {
        match self {
            ExecEngine::Seq(e) => e.events_processed(),
            ExecEngine::Par(p) => p.events_processed(),
        }
    }

    /// Earliest pending event time across all queues.
    pub fn next_event_time(&self) -> Option<SimTime> {
        match self {
            ExecEngine::Seq(e) => e.next_event_time(),
            ExecEngine::Par(p) => p.next_event_time(),
        }
    }

    /// Total pending events across all queues.
    pub fn pending_events(&self) -> usize {
        match self {
            ExecEngine::Seq(e) => e.pending_events(),
            ExecEngine::Par(p) => p.pending_events(),
        }
    }

    /// Inject an event from outside the simulation at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, target: ComponentId, msg: M) {
        match self {
            ExecEngine::Seq(e) => e.schedule_at(at, target, msg),
            ExecEngine::Par(p) => p.schedule_at(at, target, msg),
        }
    }

    /// Inject an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, target: ComponentId, msg: M) {
        match self {
            ExecEngine::Seq(e) => e.schedule_in(delay, target, msg),
            ExecEngine::Par(p) => p.schedule_in(delay, target, msg),
        }
    }

    /// The engine-wide (merged) counters.
    pub fn counters(&self) -> &crate::counters::Counters {
        match self {
            ExecEngine::Seq(e) => e.counters(),
            ExecEngine::Par(p) => p.counters(),
        }
    }

    /// The (merged) record log.
    pub fn trace(&self) -> &Trace {
        match self {
            ExecEngine::Seq(e) => e.trace(),
            ExecEngine::Par(p) => p.trace(),
        }
    }

    /// Turn the record log on.
    pub fn enable_trace(&mut self) {
        match self {
            ExecEngine::Seq(e) => e.enable_trace(),
            ExecEngine::Par(p) => p.enable_trace(),
        }
    }

    /// Mutable record-log access.
    pub fn trace_mut(&mut self) -> &mut Trace {
        match self {
            ExecEngine::Seq(e) => e.trace_mut(),
            ExecEngine::Par(p) => p.trace_mut(),
        }
    }

    /// Turns the log on. Kept for barbench until ROADMAP item 8 deletes it.
    pub fn enable_recorder(&mut self) {
        self.enable_trace();
    }

    /// Turns the log on. Kept for barbench until ROADMAP item 8 deletes it.
    pub fn enable_netdump(&mut self) {
        self.enable_trace();
    }

    /// Turns the log on. Kept for barbench until ROADMAP item 8 deletes it.
    pub fn enable_ledger(&mut self) {
        self.enable_trace();
    }

    /// The log. Kept for barbench until ROADMAP item 8 deletes it.
    pub fn recorder(&self) -> &Trace {
        self.trace()
    }

    /// The log. Kept for barbench until ROADMAP item 8 deletes it.
    pub fn recorder_mut(&mut self) -> &mut Trace {
        self.trace_mut()
    }

    /// The packet column. Kept for barbench until ROADMAP item 8 deletes it.
    pub fn netdump(&self) -> Column<'_, PacketRecord> {
        Column(self.trace().packets(), self.trace().dropped())
    }

    /// The ledger column. Kept for barbench until ROADMAP item 8 deletes it.
    pub fn ledger(&self) -> Column<'_, LedgerRecord> {
        Column(self.trace().ledger(), self.trace().dropped())
    }

    /// Downcast access to a concrete component.
    pub fn component_ref<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        match self {
            ExecEngine::Seq(e) => e.component_ref(id),
            ExecEngine::Par(p) => p.component_ref(id),
        }
    }

    /// Downcast mutable access to a concrete component.
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        match self {
            ExecEngine::Seq(e) => e.component_mut(id),
            ExecEngine::Par(p) => p.component_mut(id),
        }
    }

    /// Arm the parallel engine's self-profiler. A no-op on the sequential
    /// engine: it has no shard structure to profile, and its "profile"
    /// would be one busy lane — run the parallel flavour to see where the
    /// wall time goes.
    pub fn enable_prof(&mut self) {
        if let ExecEngine::Par(p) = self {
            p.enable_prof();
        }
    }

    /// The self-profiler capture, if armed (always `None` on the
    /// sequential engine).
    pub fn prof_snapshot(&self) -> Option<EngineProf> {
        match self {
            ExecEngine::Seq(_) => None,
            ExecEngine::Par(p) => p.prof_snapshot(),
        }
    }
}

/// One worker's run loop: the two-barrier conservative window protocol.
///
/// Every shared write happens in phase A (before barrier 1) or in the
/// execute phase (between the barriers); every decision input is read
/// between barrier 1 and the execute phase, from values that can no longer
/// change — so all workers compute the identical decision every iteration.
#[allow(clippy::too_many_arguments)]
fn shard_worker<M: Send + 'static>(
    me: usize,
    k: usize,
    state: &mut ShardState<M>,
    mins: &[AtomicU64],
    events: &[AtomicU64],
    halted: &AtomicBool,
    barrier: &Barrier,
    mail: &[Mailbox<M>],
    deadline_ns: u64,
    max_events: u64,
    latency: &LatencyMatrix,
    relay: &[u64],
    obs: bool,
) {
    let ShardState {
        engine,
        link,
        raw,
        prof,
    } = state;
    let mut delivered_total: u64 = 0;
    // Earliest-activation scratch for the window computation, allocated
    // once per run (never inside the window loop — the counting-allocator
    // gate watches).
    let mut eat: Vec<u64> = vec![0; k];
    loop {
        // Phase A: integrate inbound batches, publish queue minimum /
        // event count / halt flag. Popping the pair's `full` ring is the
        // only synchronization a drain needs; the emptied vector goes
        // straight back on `free` for the sender to reuse.
        if let Some(p) = prof.as_deref_mut() {
            p.window_open();
        }
        let mut received: u64 = 0;
        for from in 0..k {
            if from == me {
                continue;
            }
            let mb = &mail[from * k + me];
            while let Some(mut batch) = mb.full.pop() {
                received += batch.len() as u64;
                engine.queue.push_batch(batch.drain(..));
                let _ = mb.free.push(batch);
            }
        }
        if let Some(p) = prof.as_deref_mut() {
            p.drain_end(received);
        }
        if engine.halted {
            halted.store(true, Ordering::Relaxed);
        }
        mins[me].store(
            engine.queue.peek_time().map_or(u64::MAX, |t| t.as_ns()),
            Ordering::Relaxed,
        );
        events[me].store(delivered_total, Ordering::Relaxed);
        if let Some(p) = prof.as_deref_mut() {
            p.idle_begin();
        }
        barrier.wait();
        if let Some(p) = prof.as_deref_mut() {
            p.idle_end();
        }
        // Decide: identical on every worker. Priority order matches the
        // sequential engine: halt, idle, deadline, budget.
        if halted.load(Ordering::Relaxed) {
            if let Some(p) = prof.as_deref_mut() {
                p.commit_window();
            }
            break;
        }
        let h = mins
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .min()
            .expect("at least one shard");
        if h == u64::MAX || h > deadline_ns {
            if let Some(p) = prof.as_deref_mut() {
                p.commit_window();
            }
            break;
        }
        let total: u64 = events.iter().map(|e| e.load(Ordering::Relaxed)).sum();
        if total >= max_events {
            if let Some(p) = prof.as_deref_mut() {
                p.commit_window();
            }
            break;
        }
        // Adaptive per-destination windows: every worker recomputes the
        // full vector from the same frozen published minima, so the
        // window bound — and the deposit-time soundness check — agree
        // byte-for-byte across shards. A shard's published minimum alone
        // does not bound its future sends: a shard with an empty (or
        // late) queue can be *woken* by a message from a busier shard and
        // reply long before anything currently in its own queue. The
        // earliest-activation time
        //
        //   EAT(i) = min over m of ( next_m + dist(m, i) )
        //
        // with `dist` the shortest-path closure of the latency matrix
        // (zero diagonal, so EAT(i) <= next_i), lower-bounds the
        // execution time of *any* event shard `i` can run from this
        // window on — wake-up relay chains of arbitrary depth included —
        // and the granted windows are W(j) = min over i != j of
        // ( EAT(i) + L(i, j) ). EAT is monotone across windows (every
        // event a shard integrates or keeps is at or past its previous
        // window end, itself at least its previous EAT), so granted
        // windows never move backwards and each shard's delivery stream
        // stays key-sorted for the final merge.
        for (i, e) in eat.iter_mut().enumerate() {
            *e = mins
                .iter()
                .enumerate()
                .map(|(m, v)| v.load(Ordering::Relaxed).saturating_add(relay[m * k + i]))
                .min()
                .expect("at least one shard");
        }
        for (j, w) in link.window_ends.iter_mut().enumerate() {
            *w = u64::MAX;
            for (i, e) in eat.iter().enumerate() {
                if i != j {
                    *w = (*w).min(e.saturating_add(latency.get(i, j)));
                }
            }
            *w = (*w).min(deadline_ns.saturating_add(1));
        }
        let window_end = link.window_ends[me];
        if let Some(p) = prof.as_deref_mut() {
            p.busy_begin(h, window_end, engine.pending_events() as u64);
        }
        let delivered = engine.run_window(window_end, link, if obs { Some(raw) } else { None });
        delivered_total += delivered;
        if let Some(p) = prof.as_deref_mut() {
            let advance = engine.now.as_ns().saturating_sub(h);
            p.busy_end(delivered, advance);
            p.drain_begin();
        }
        // Deposit outboxes: move the full vector into the pair's SPSC
        // ring (one `Release` store) and take a recycled empty vector
        // back as the next outbox — no steady-state allocation. The ring
        // cannot be full: the receiver drained it before barrier 1.
        for (to, outbox) in link.outboxes.iter_mut().enumerate() {
            if to == me || outbox.is_empty() {
                continue;
            }
            if let Some(p) = prof.as_deref_mut() {
                p.deposit(to, outbox.len() as u64);
            }
            let mb = &mail[me * k + to];
            let replacement = mb.free.pop().unwrap_or_default();
            let batch = std::mem::replace(outbox, replacement);
            if mb.full.push(batch).is_err() {
                unreachable!("cross-shard mailbox overflow: receiver failed to drain");
            }
        }
        if let Some(p) = prof.as_deref_mut() {
            p.drain_end(0);
            p.idle_begin();
        }
        barrier.wait();
        if let Some(p) = prof.as_deref_mut() {
            p.idle_end();
            p.commit_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{CausalKind, PacketLog};
    use crate::counters::Counters;
    use crate::engine::Component;
    use crate::ledger::Occ;
    use crate::partition::ShardMap;
    use crate::span::SpanEvent;
    use crate::{Owner, ResKind, TraceRecord};

    const HOP_NS: u64 = 500;

    #[derive(Clone, Copy)]
    enum PMsg {
        Token { hops: u32, cause: CauseId },
    }

    /// Ring node: logs arrival and the cause id it was handed, emits a
    /// ledger hold, a packet and a span record (in that order, so a
    /// delivery that fills a bounded log keeps its records in column
    /// order, not emission order), and forwards the token with a jittered
    /// (RNG-drawn) delay of at least one hop.
    struct Node {
        idx: usize,
        next: ComponentId,
        log: Vec<(u64, u32, CauseId)>,
    }

    impl Component<PMsg> for Node {
        fn handle(&mut self, msg: PMsg, ctx: &mut crate::Ctx<'_, PMsg>) {
            let PMsg::Token { hops, cause } = msg;
            let now = ctx.now();
            self.log.push((now.as_ns(), hops, cause));
            ctx.count("ring.hops", 1);
            let node = self.idx as u32;
            ctx.ledger(Occ::hold(
                ResKind::NicCpu,
                now,
                now,
                node,
                Owner::fabric(node),
            ));
            let wire = ctx.packet(
                PacketLog::new(cause, CausalKind::Wire)
                    .nodes(node, self.next.0 as u32)
                    .detail(hops as u64, 0),
            );
            ctx.span(SpanEvent::Arrive {
                src: self.idx as u64,
                info: u64::from(hops),
            });
            if hops > 0 {
                let jitter = ctx.rng().below(100);
                ctx.send(
                    SimTime::from_ns(HOP_NS + jitter),
                    self.next,
                    PMsg::Token {
                        hops: hops - 1,
                        cause: wire,
                    },
                );
            }
        }
    }

    fn build_ring(n: usize, tokens: usize) -> Engine<PMsg> {
        let mut engine: Engine<PMsg> = Engine::new(0xBA77E5);
        let ids: Vec<ComponentId> = (0..n).map(|_| engine.reserve_id()).collect();
        for (i, &id) in ids.iter().enumerate() {
            engine.install(
                id,
                Node {
                    idx: i,
                    next: ids[(i + 1) % n],
                    log: Vec::new(),
                },
            );
        }
        for t in 0..tokens {
            engine.schedule_at(
                SimTime::from_ns(t as u64 * 3),
                ids[t % n],
                PMsg::Token {
                    hops: 40,
                    cause: CauseId::NONE,
                },
            );
        }
        engine
    }

    /// Name-ordered non-zero counters, comparable across engines.
    fn named(c: &Counters) -> Vec<(&'static str, u64)> {
        c.iter().collect()
    }

    /// Everything a ring run observes, comparable across engines.
    #[derive(Debug, PartialEq)]
    struct Observed {
        now: SimTime,
        events: u64,
        counters: Vec<(&'static str, u64)>,
        logs: Vec<Vec<(u64, u32, CauseId)>>,
        spans: Vec<TraceRecord>,
        pkts: Vec<PacketRecord>,
        ledger: Vec<LedgerRecord>,
        dropped: u64,
        outcome: RunOutcome,
    }

    /// What `e` observed. Shard components are handed provisional packet
    /// ids; the nodes' logs show them as the real ids the merge assigned.
    fn observe(e: &ExecEngine<PMsg>, n: usize, outcome: RunOutcome) -> Observed {
        let log = e.trace();
        let real = |id| match e {
            ExecEngine::Seq(_) => id,
            ExecEngine::Par(p) => real_id(&p.pkt_remap, id),
        };
        Observed {
            now: e.now(),
            events: e.events_processed(),
            counters: named(e.counters()),
            logs: (0..n)
                .map(|i| {
                    let node = e.component_ref::<Node>(ComponentId(i)).unwrap();
                    node.log.iter().map(|&(t, h, c)| (t, h, real(c))).collect()
                })
                .collect(),
            spans: log.iter().copied().collect(),
            pkts: log.packets().to_vec(),
            ledger: log.ledger().to_vec(),
            dropped: log.dropped(),
            outcome,
        }
    }

    /// Run `e` with the log on (bounded at `cap` records when given).
    fn run_logged(
        mut e: ExecEngine<PMsg>,
        n: usize,
        deadline: SimTime,
        cap: Option<usize>,
    ) -> Observed {
        *e.trace_mut() = Trace::with_capacity(cap.unwrap_or(Trace::DEFAULT_CAPACITY));
        let outcome = e.run_until(deadline);
        observe(&e, n, outcome)
    }

    fn run_seq(n: usize, tokens: usize, deadline: SimTime, cap: Option<usize>) -> Observed {
        run_logged(ExecEngine::Seq(build_ring(n, tokens)), n, deadline, cap)
    }

    fn par_engine(n: usize, tokens: usize, shards: usize) -> ParallelEngine<PMsg> {
        let map = ShardMap::by_node(n, n, shards, |c| c);
        ParallelEngine::new(build_ring(n, tokens), map, SimTime::from_ns(HOP_NS))
    }

    fn run_par(
        n: usize,
        tokens: usize,
        deadline: SimTime,
        shards: usize,
        cap: Option<usize>,
    ) -> Observed {
        let p = par_engine(n, tokens, shards);
        run_logged(ExecEngine::Par(p), n, deadline, cap)
    }

    fn assert_same(a: &Observed, b: &Observed, what: &str) {
        assert_eq!(a.outcome, b.outcome, "{what}: outcome");
        assert_eq!(a.now, b.now, "{what}: final time");
        assert_eq!(a.events, b.events, "{what}: events processed");
        assert_eq!(a.counters, b.counters, "{what}: counters");
        assert_eq!(a.logs, b.logs, "{what}: per-node logs");
        assert_eq!(a.spans, b.spans, "{what}: span records");
        assert_eq!(a.pkts, b.pkts, "{what}: packet records");
        assert_eq!(a.ledger, b.ledger, "{what}: ledger records");
        assert_eq!(a.dropped, b.dropped, "{what}: dropped");
    }

    #[test]
    fn parallel_ring_matches_sequential_at_every_shard_count() {
        let seq = run_seq(12, 12, SimTime::MAX, None);
        assert_eq!(seq.outcome, RunOutcome::Idle);
        assert!(seq.events > 0);
        for shards in [2usize, 3, 5, 12] {
            let par = run_par(12, 12, SimTime::MAX, shards, None);
            assert_same(&seq, &par, &format!("{shards} shards"));
        }
    }

    /// A bound below the run's record count: the log fills mid-delivery
    /// (3 records per delivery, bound 3k + 1), and every engine keeps the
    /// same records, counts the same drops and hands the same ids to the
    /// packets that came after the bound (the nodes log the ids they are
    /// handed).
    #[test]
    fn parity_holds_when_the_log_fills() {
        let cap = 301;
        let seq = run_seq(12, 12, SimTime::MAX, Some(cap));
        assert!(seq.dropped > 0, "the bound must bite");
        assert_eq!(
            seq.spans.len() + seq.pkts.len() + seq.ledger.len(),
            cap,
            "a full log holds exactly its bound"
        );
        let last_kept = seq.pkts.last().unwrap().id;
        assert!(
            seq.logs.iter().flatten().any(|&(_, _, c)| c > last_kept),
            "packets recorded after the bound must still be handed ids"
        );
        for shards in [2usize, 3, 5] {
            let par = run_par(12, 12, SimTime::MAX, shards, Some(cap));
            assert_same(&seq, &par, &format!("bounded log, {shards} shards"));
        }
    }

    #[test]
    fn deadline_outcome_and_event_set_match() {
        let deadline = SimTime::from_ns(HOP_NS * 10 + 37);
        let seq = run_seq(8, 8, deadline, None);
        assert_eq!(seq.outcome, RunOutcome::DeadlineReached);
        for shards in [2usize, 4] {
            let par = run_par(8, 8, deadline, shards, None);
            assert_same(&seq, &par, &format!("deadline, {shards} shards"));
        }
    }

    #[test]
    fn netdump_parent_chains_survive_the_merge() {
        let seq = run_seq(6, 3, SimTime::MAX, None);
        let par = run_par(6, 3, SimTime::MAX, 3, None);
        // Walk a causal chain from the last record in both dumps: identical
        // ids all the way up proves the provisional-id remap is exact.
        let last = seq.pkts.last().unwrap().id;
        let chain_s: Vec<CauseId> = crate::chain_to(&seq.pkts, last)
            .iter()
            .map(|r| r.id)
            .collect();
        let chain_p: Vec<CauseId> = crate::chain_to(&par.pkts, last)
            .iter()
            .map(|r| r.id)
            .collect();
        assert!(chain_s.len() > 5, "chain unexpectedly short");
        assert_eq!(chain_s, chain_p);
        // No provisional id may leak into the merged dump.
        for r in &par.pkts {
            assert!(!is_provisional(r.id));
            assert!(!is_provisional(r.parent));
        }
    }

    #[test]
    fn resumed_runs_keep_merging_consistently() {
        // Split one run into several run_until calls: cross-call provisional
        // parent remaps and count/clock continuity must all hold.
        let n = 8;
        let full = run_seq(n, 4, SimTime::MAX, None);
        let mut e = ExecEngine::Par(par_engine(n, 4, 4));
        e.enable_trace();
        let mut outcome = RunOutcome::Idle;
        for slice in 1..=100u64 {
            outcome = e.run_until(SimTime::from_ns(slice * 1_000));
            if outcome == RunOutcome::Idle {
                break;
            }
        }
        assert_same(&full, &observe(&e, n, outcome), "resumed");
    }

    #[test]
    fn external_schedule_between_runs_matches_sequential() {
        let token = PMsg::Token {
            hops: 9,
            cause: CauseId::NONE,
        };
        let drive = |mut e: ExecEngine<PMsg>| {
            e.run_until(SimTime::from_us(2.0));
            e.schedule_at(e.now() + SimTime::from_ns(50), ComponentId(3), token);
            e.run_until(SimTime::MAX);
            (e.now(), e.events_processed(), named(e.counters()))
        };
        let seq = drive(ExecEngine::Seq(build_ring(6, 2)));
        assert_eq!(seq, drive(ExecEngine::Par(par_engine(6, 2, 2))));
        assert_eq!(seq, drive(ExecEngine::Par(par_engine(6, 2, 3))));
    }

    /// One shard is the sequential engine's job: the parallel engine
    /// refuses a one-shard map and names the count.
    #[test]
    #[should_panic(expected = "at least two shards, got 1")]
    fn one_shard_map_is_rejected() {
        let map = ShardMap::by_node(4, 4, 1, |c| c);
        ParallelEngine::new(build_ring(4, 1), map, SimTime::from_ns(HOP_NS));
    }

    /// Per-pair bounds tighter than the global minimum must still
    /// reproduce the sequential run exactly — adaptive windows only change
    /// how often shards synchronize, never what they deliver.
    #[test]
    fn non_uniform_latency_matrix_preserves_parity() {
        let n = 12;
        let seq = run_seq(n, 12, SimTime::MAX, None);
        for shards in [2usize, 3, 4] {
            let engine = build_ring(n, 12);
            let map = ShardMap::by_node(n, n, shards, |c| c);
            let k = map.shards();
            // Ring traffic only crosses from shard s to shard s+1 (mod k);
            // every other pair carries no messages, so a huge bound is
            // vacuously sound and lets those pairs run far ahead. The
            // deposit debug_assert checks the claim on every send.
            let lat = LatencyMatrix::from_fn(k, |i, j| {
                if j == (i + 1) % k {
                    SimTime::from_ns(HOP_NS)
                } else {
                    SimTime::from_ns(1_000_000)
                }
            });
            let p = ParallelEngine::with_latency(engine, map, lat);
            let par = run_logged(ExecEngine::Par(p), n, SimTime::MAX, None);
            assert_same(&seq, &par, &format!("non-uniform matrix, {shards} shards"));
        }
    }

    /// The self-profiler must not perturb the run (byte-identity holds with
    /// it armed) and its capture must account for the workers' wall time.
    #[test]
    fn profiled_run_is_identical_and_accounts_for_wall_time() {
        let seq = run_seq(12, 12, SimTime::MAX, None);
        let n = 12;
        let mut e = ExecEngine::Par(par_engine(n, 12, 3));
        e.enable_trace();
        assert!(e.prof_snapshot().is_none(), "profiler off by default");
        e.enable_prof();
        let outcome = e.run_until(SimTime::MAX);
        assert_same(&seq, &observe(&e, n, outcome), "profiled 3-shard run");

        let prof = e.prof_snapshot().expect("profiler armed");
        assert_eq!(prof.shards, 3);
        assert_eq!(prof.lookahead_ns, HOP_NS);
        assert_eq!(
            prof.total_events(),
            e.events_processed(),
            "profiler event count disagrees with the engine"
        );
        // The two-barrier protocol runs every shard through the same
        // window sequence.
        let wins: Vec<u64> = prof.data.iter().map(|d| d.window_count).collect();
        assert!(wins.iter().all(|&w| w == wins[0]), "{wins:?}");
        assert!(wins[0] > 1, "multi-window run expected");
        // Partition sizes ride along (12 components over 3 shards).
        assert_eq!(
            prof.data.iter().map(|d| d.components).sum::<usize>(),
            n,
            "shard component sizes must cover the engine"
        );
        // Wall-time accounting: the hooks bracket drain/idle/busy, so the
        // tracked phases must cover (almost) all measured worker wall time.
        assert!(
            prof.accounted_fraction() > 0.90,
            "only {:.1}% of worker wall time accounted",
            prof.accounted_fraction() * 100.0
        );
        let att = prof.attribution();
        assert_eq!(att.idle_ns, att.imbalance_ns + att.stall_ns);
        let (dominant, share) = att.dominant();
        assert!(share > 0.0 && share <= 1.0, "{dominant}: share {share}");
    }
}
