//! # nicbar-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate under every interconnect model in the `nicbar`
//! workspace. It provides:
//!
//! * [`SimTime`] — a nanosecond-resolution virtual clock with convenient
//!   microsecond conversions (the paper reports all latencies in µs).
//! * [`Engine`] — a typed discrete-event scheduler. Events are ordered by a
//!   *content-based* key `(time, source, per-source count)`: per source,
//!   same-time events deliver in the order they were scheduled; across
//!   sources, by source id. Because the key is a pure function of the
//!   simulation's own causal history, every run is fully deterministic —
//!   bit-for-bit identical across reruns and shard counts of the parallel
//!   engine.
//! * [`Component`] — the actor trait. NICs, hosts, buses and fabrics are all
//!   components that interact *only* through scheduled events, so the
//!   simulated concurrency is explicit and there is no hidden shared state.
//! * [`SimRng`] — a seeded counter-based RNG (ChaCha8). All randomness in a
//!   simulation flows from one seed, so identical seeds reproduce identical
//!   event traces bit-for-bit.
//! * [`Counters`] — cheap named statistics used by tests to assert protocol
//!   behaviour (packet counts, ACK counts, retransmissions, ...). Counters
//!   are the crate's one interned name table ([`counter_id!`]).
//! * [`Trace`] — the one record log: typed protocol events ([`SpanEvent`]),
//!   causal packet records ([`PacketRecord`]) and resource-occupancy records
//!   ([`LedgerRecord`]) in three columns under one switch, one bound and one
//!   drop count, plus the span fold into per-operation phase breakdowns
//!   ([`SpanSummary`]) and log2-bucketed latency histograms ([`Histogram`]).
//!   It backs the `flight`, `why-slow` and `contend` tools. Disabled by
//!   default; one branch per emit site when off.
//!
//! * [`ParallelEngine`] — a rank-sharded conservative parallel executor: one
//!   built [`Engine`] split across worker threads by a [`ShardMap`], run in
//!   lookahead-bounded time windows, with results (counters, the record
//!   log, final clock) *byte-identical* to the sequential engine at any
//!   shard count. [`ExecEngine`] wraps either flavour behind one API so
//!   harnesses pick an engine per run. See [`parallel`] for the protocol and
//!   the identity argument.
//! * [`ShardProf`] / [`EngineProf`] — the engine's *self*-observability:
//!   the per-shard window profiler (plain totals, a window-utilisation
//!   [`Histogram`] and per-window records) that the `engine_prof` bench
//!   binary turns into timelines and bottleneck attributions. Zero-cost
//!   unless armed with [`ParallelEngine::enable_prof`]. See [`telemetry`].
//!
//! ## Example
//!
//! ```
//! use nicbar_sim::{Component, ComponentId, Ctx, Engine, SimTime};
//!
//! enum Msg { Ping(u32), Pong(u32) }
//!
//! struct Player { peer: ComponentId, rallies: u32 }
//!
//! impl Component<Msg> for Player {
//!     fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
//!         match msg {
//!             Msg::Ping(n) if n > 0 => ctx.send(SimTime::from_us(1.0), self.peer, Msg::Pong(n - 1)),
//!             Msg::Pong(n) if n > 0 => ctx.send(SimTime::from_us(1.0), self.peer, Msg::Ping(n - 1)),
//!             _ => ctx.halt(),
//!         }
//!         self.rallies += 1;
//!     }
//! }
//!
//! let mut engine: Engine<Msg> = Engine::new(42);
//! let a = engine.reserve_id();
//! let b = engine.reserve_id();
//! engine.install(a, Player { peer: b, rallies: 0 });
//! engine.install(b, Player { peer: a, rallies: 0 });
//! engine.schedule_at(SimTime::ZERO, a, Msg::Ping(10));
//! engine.run();
//! assert_eq!(engine.now(), SimTime::from_us(10.0));
//! ```

#![warn(missing_docs)]

pub mod causal;
pub mod counters;
pub mod engine;
pub mod hist;
pub mod ledger;
pub mod parallel;
pub mod partition;
pub mod queue;
pub mod rng;
pub mod span;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use causal::{chain_to, find, CausalKind, CauseId, PacketLog, PacketRecord, NO_KEY, NO_NODE};
pub use counters::{intern, CounterId, Counters};
pub use engine::{Component, ComponentId, Ctx, Engine, RunOutcome, MAX_COMPONENTS};
pub use hist::Histogram;
pub use ledger::{LedgerOp, LedgerRecord, Occ, Owner, OwnerKind, ResKind, NO_UNIT};
pub use parallel::{ExecEngine, ParallelEngine};
pub use partition::{node_shard, LatencyMatrix, ShardMap};
pub use rng::SimRng;
pub use span::{Phase, SpanEvent, SpanSummary, NUM_PHASES};
pub use telemetry::{EngineProf, ProfAttribution, ProfClock, ShardProf, ShardProfData, WindowRec};
pub use time::SimTime;
pub use trace::{Trace, TraceRecord};
