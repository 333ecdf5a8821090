//! # nicbar-net — interconnect topology and timing models
//!
//! Pure (engine-independent) models of the two physical networks in the
//! paper, shared by the `nicbar-gm` (Myrinet) and `nicbar-elan` (Quadrics)
//! substrates:
//!
//! * [`crossbar::WormholeClos`] — Myrinet 2000: wormhole-routed 16-port
//!   crossbar switches arranged as a Clos/spine-leaf network.
//! * [`fattree::QuaternaryFatTree`] — Quadrics QsNet: Elite switches in a
//!   quaternary fat tree (Elite-16 is the dimension-two instance used in the
//!   paper's 8-node cluster).
//! * [`timing::LinkTiming`] — per-hop and per-byte latency for wormhole
//!   routing (one serialization, pipelined through hops).
//! * [`wire::WireModel`] / [`wire::WireRx`] — the deliverable-latency
//!   model, split along ownership lines so clusters can shard across the
//!   parallel engine without cross-shard mutable state: routing latency
//!   and the loss probability, shared immutably by all NICs, and one
//!   receive port owned by each destination NIC, where concurrent arrivals
//!   queue for the port's occupancy (destination-port contention).
//! * [`permute::Permutation`] — random rank→node placements, matching the
//!   paper's randomized node-allocation methodology.
//!
//! Everything here is deterministic given a [`nicbar_sim::SimRng`]; the
//! wire model holds no interior mutability, and each receive port is
//! driven by the NIC component that owns it.

#![warn(missing_docs)]

pub mod crossbar;
pub mod fattree;
pub mod permute;
pub mod timing;
pub mod topology;
pub mod wire;

pub use crossbar::WormholeClos;
pub use fattree::QuaternaryFatTree;
pub use permute::Permutation;
pub use timing::LinkTiming;
pub use topology::{NodeId, Topology};
pub use wire::{Admission, WireModel, WireRx};
