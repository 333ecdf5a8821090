//! The Elan *thread processor* — the mechanism §7 deliberately avoids.
//!
//! "Although Elan threads can be created and executed by the thread
//! processor to process the events and chain RDMA operations together, an
//! extra thread does increase the processing load to the Elan NIC. …we
//! have chosen not to set up an additional thread" (§7). The paper's
//! ref \[14\] (Moody et al.), by contrast, builds NIC-based *reductions* on
//! exactly this mechanism — data collectives need NIC-side computation,
//! which chained descriptors cannot express.
//!
//! This module models the thread processor so both designs can be compared
//! quantitatively: an [`ElanThread`] is a NIC-resident handler whose
//! invocations cost [`crate::ElanParams::elan3`]'s `nic_thread_proc`
//! (heavier than raw event processing — the paper's "increased processing
//! load"), and whose sends are issued through the ordinary descriptor
//! path.

use nicbar_net::NodeId;
use nicbar_sim::engine::AsAny;
use nicbar_sim::SimTime;

/// Actions a NIC thread can request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadAction {
    /// Issue an RDMA carrying a value word to the peer NIC's thread.
    Send {
        /// Destination NIC.
        dst: NodeId,
        /// Message tag (protocol-defined; e.g. epoch/round encoding).
        tag: u32,
        /// The value word.
        value: u64,
    },
    /// Raise a completion event to the host.
    NotifyHost {
        /// Opaque cookie.
        cookie: u64,
    },
}

/// A handler running on the Elan thread processor.
///
/// Each hook appends the actions it requests to `actions`, a buffer the
/// NIC owns and reuses across stimuli: the NIC walks and clears it after
/// every call, so a handler only ever appends.
pub trait ElanThread: AsAny + Send + 'static {
    /// The host posted a thread doorbell with an operand.
    fn on_doorbell(&mut self, now: SimTime, value: u64, actions: &mut Vec<ThreadAction>);
    /// A thread message arrived from a peer NIC.
    fn on_msg(
        &mut self,
        now: SimTime,
        src: NodeId,
        tag: u32,
        value: u64,
        actions: &mut Vec<ThreadAction>,
    );
}

/// Default for NICs without a thread: any thread stimulus is a bug.
pub struct NoThread;

impl ElanThread for NoThread {
    fn on_doorbell(&mut self, _now: SimTime, _value: u64, _actions: &mut Vec<ThreadAction>) {
        panic!("thread doorbell on a NIC with no thread installed");
    }
    fn on_msg(
        &mut self,
        _now: SimTime,
        _src: NodeId,
        _tag: u32,
        _value: u64,
        _actions: &mut Vec<ThreadAction>,
    ) {
        panic!("thread message on a NIC with no thread installed");
    }
}

/// Wire size of a thread message (RDMA overhead + tag + value).
pub const THREAD_MSG_BYTES: u32 = crate::types::RDMA_WIRE_OVERHEAD + 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no thread installed")]
    fn no_thread_rejects_doorbells() {
        NoThread.on_doorbell(SimTime::ZERO, 0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "no thread installed")]
    fn no_thread_rejects_messages() {
        NoThread.on_msg(SimTime::ZERO, NodeId(1), 0, 0, &mut Vec::new());
    }
}
