//! # nicbar-core — the paper's contribution
//!
//! The NIC-based collective message passing protocol of *"Efficient and
//! Scalable Barrier over Quadrics and Myrinet with a New NIC-Based
//! Collective Message Passing Protocol"* (Yu, Buntinas, Graham, Panda —
//! IPPS 2004), implemented over the two simulated substrates:
//!
//! * [`schedule`] — the barrier algorithms of §5 (dissemination,
//!   pairwise-exchange, gather-broadcast) plus the binomial broadcast tree,
//!   as validated round schedules.
//! * [`protocol`] — the collective protocol engine of §3/§6: per-group
//!   queues, static packets, bit-vector bookkeeping, receiver-driven NACK
//!   retransmission; plugged into the GM NIC via
//!   [`nicbar_gm::NicCollective`]. Also the §9 extension collectives
//!   (broadcast, allreduce, allgather).
//! * [`elan_chain`] — §7's Quadrics lowering: schedules compiled to chained
//!   RDMA descriptors and counting events, no NIC thread.
//! * [`host_app`] / [`elan_apps`] / [`elan_thread`] — benchmark
//!   applications: host-based baselines and NIC-based drivers for both
//!   networks, the Elanlib `elan_gsync`/`elan_hgsync` comparators and the
//!   NIC-thread collectives. Every one runs the paper's §8 closed loop
//!   from one place, [`host_app::BarrierLog`], and differs from the others
//!   only in how it enters a barrier.
//! * [`traffic`] — §6.1's bulk stream, one per substrate
//!   ([`traffic::GmStream`], [`traffic::ElanStream`]), an optional part
//!   of the NIC and host barrier apps; [`contend`] — the group ids of the
//!   contention scenario, whose apps enter several groups beside it.
//! * [`scenario`] — the one way to describe and run a benchmark: a
//!   [`Scenario`] value names the substrate, group size, barrier kind
//!   ([`Barrier`]), collective groups and optional background traffic;
//!   `run` returns [`BarrierStats`], `capture` the full [`FlightData`]
//!   with the record log on, and `build` a [`Sim`] for callers that
//!   time the drain themselves. It implements the paper's methodology
//!   (§8): consecutive barriers, warm-up discarded, average latency,
//!   optional random node permutation.
//! * [`driver`] — what a run is configured with ([`RunCfg`]) and what it
//!   returns ([`BarrierStats`], [`FlightData`]).

#![warn(missing_docs)]

pub mod contend;
pub mod driver;
pub mod elan_apps;
pub mod elan_chain;
pub mod elan_thread;
pub mod host_app;
pub mod protocol;
pub mod scenario;
pub mod schedule;
pub mod traffic;

pub use contend::CONTEND_GROUP_BASE;
pub use driver::{BarrierStats, FlightData, RunCfg, BARRIER_GROUP};
pub use protocol::{GroupOp, GroupSpec, PaperCollective, ReduceOp};
pub use scenario::{Barrier, Scenario, Sim, Substrate};
pub use schedule::{ceil_log2, floor_log2, schedules_for, Algorithm, RoundPlan, Schedule};
pub use traffic::TrafficCfg;
