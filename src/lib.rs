//! # nicbar — NIC-based collective message passing (IPPS 2004 reproduction)
//!
//! Facade crate re-exporting the full `nicbar` workspace: a reproduction of
//! *"Efficient and Scalable Barrier over Quadrics and Myrinet with a New
//! NIC-Based Collective Message Passing Protocol"* (Yu, Buntinas, Graham,
//! Panda — IPPS 2004).
//!
//! See `README.md` for the architecture overview and `DESIGN.md` for the
//! system inventory and per-experiment index.

#![warn(missing_docs)]

pub use nicbar_algos as algos;
pub use nicbar_core as core;
pub use nicbar_elan as elan;
pub use nicbar_gm as gm;
pub use nicbar_model as model;
pub use nicbar_mpi as mpi;
pub use nicbar_net as net;
pub use nicbar_sim as sim;

/// Commonly used items, for examples and downstream quickstarts.
pub mod prelude {
    pub use nicbar_core::{
        Algorithm, Barrier, BarrierStats, GroupOp, GroupSpec, PaperCollective, ReduceOp, RunCfg,
        Scenario,
    };
    pub use nicbar_elan::ElanParams;
    pub use nicbar_gm::{CollFeatures, GmParams, GroupId};
    pub use nicbar_model::{fit, BarrierModel};
    pub use nicbar_mpi::{MpiOp, MpiProgram, MpiWorld};
    pub use nicbar_net::NodeId;
    pub use nicbar_sim::{SimRng, SimTime};
}
