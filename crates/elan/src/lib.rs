//! # nicbar-elan — the Quadrics/Elan3 substrate
//!
//! A deterministic discrete-event model of a QsNet cluster (Elan3 QM-400
//! NICs, Elite switches in a quaternary fat tree) as described in §4.1 and
//! §7 of the paper:
//!
//! * [`nic::ElanNic`] — descriptor table + NIC-resident counting events +
//!   serial DMA/event processor. Zero-byte RDMAs fire remote events;
//!   chained descriptors implement the NIC-based barrier with **no NIC
//!   thread**, exactly as §7 chooses.
//! * [`host::ElanHost`] / [`host::ElanApp`] — host library and application
//!   trait (doorbells, tport tagged messages, hardware barrier entry). The
//!   Elanlib tree barrier (`elan_gsync()`) is one such application:
//!   `nicbar-core` runs the gather-broadcast schedule on the host over
//!   tports, so the host is on the critical path at every tree level.
//! * [`thread::ElanThread`] — the thread processor §7 avoids: a
//!   NIC-resident handler that appends its sends and completions to a
//!   buffer the NIC reuses.
//! * [`hwbarrier::HwBarrierUnit`] — the switch-level test-and-set barrier
//!   behind `elan_hgsync()`, with the paper's contiguity and
//!   synchronization caveats modeled.
//! * the wire model ([`nicbar_net::WireModel`] / [`nicbar_net::WireRx`]) —
//!   hardware-reliable fat-tree delivery, with destination-port contention
//!   resolved at each receiving NIC. There is no central fabric component,
//!   so clusters shard cleanly across the parallel engine.
//! * [`cluster::ElanCluster`] — assembly and run helpers.

#![warn(missing_docs)]

pub mod cluster;
pub mod events;
pub mod host;
pub mod hwbarrier;
pub mod nic;
pub mod params;
pub mod thread;
pub mod types;

pub use cluster::{ElanCluster, ElanClusterSpec};
pub use events::{ElanEvent, ElanPayload};
pub use host::{ElanApi, ElanApp, ElanHost};
pub use hwbarrier::HwBarrierUnit;
pub use nic::{hw_cookie, ElanNic};
pub use params::ElanParams;
pub use thread::{ElanThread, NoThread, ThreadAction, THREAD_MSG_BYTES};
pub use types::{
    DescId, EventAction, EventId, NicDesc, NicEvent, NicProgram, RdmaDesc, TportTag, BULK_TPORT_TAG,
};
