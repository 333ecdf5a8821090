//! The switch-level hardware barrier (`elan_hgsync` fast path).
//!
//! QsNet implements its hardware barrier "with an atomic test-and-set
//! operation down the NIC" (§8.2): the Elite switches combine readiness up
//! the tree and broadcast release down it. Two properties from the paper
//! are modeled:
//!
//! * the wave itself is nearly node-count independent (per-level cost on a
//!   quaternary tree, so ~log₄ N), giving the flat ≈4.2 µs line of Fig. 7;
//! * *skewed arrivals are penalized*: the test-and-set retries while
//!   laggards are missing, so a fraction of the arrival spread is added to
//!   the completion time. This is the "requires that the calling processes
//!   are well synchronized" caveat that makes the software/NIC barriers
//!   attractive in real applications.
//!
//! The unit also enforces the *contiguous nodes* restriction at
//! construction: a fragmented group simply cannot build a hardware barrier
//! (Elanlib then falls back to the `elan_gsync` tree).

use crate::events::ElanEvent;
use crate::params::ElanParams;
use nicbar_net::{NodeId, Topology};
use nicbar_sim::counter_id;
use nicbar_sim::{CausalKind, Component, ComponentId, Ctx, PacketLog, SimTime, NO_NODE};
use std::collections::BTreeMap;

/// The switch-resident barrier combining unit.
pub struct HwBarrierUnit {
    group: Vec<NodeId>,
    nics: Vec<ComponentId>,
    params: ElanParams,
    levels: u32,
    /// epoch → (arrivals so far, first arrival time)
    pending: BTreeMap<u64, (usize, SimTime)>,
}

impl HwBarrierUnit {
    /// Build the unit for `group` (must be contiguous on `topology`).
    /// `nics[i]` is the NIC component of `group[i]`.
    pub fn new(
        group: Vec<NodeId>,
        nics: Vec<ComponentId>,
        topology: &dyn Topology,
        params: ElanParams,
    ) -> Self {
        assert_eq!(group.len(), nics.len());
        assert!(
            topology.supports_hw_broadcast(group[0], &group),
            "hardware barrier requires a contiguous node range (§4.1)"
        );
        // Tree levels spanned by the group ≈ log4 of its extent.
        let mut levels = 1u32;
        while 4usize.pow(levels) < group.len() {
            levels += 1;
        }
        HwBarrierUnit {
            group,
            nics,
            params,
            levels,
            pending: BTreeMap::new(),
        }
    }

    /// Number of fat-tree levels the combining wave spans.
    pub fn levels(&self) -> u32 {
        self.levels
    }
}

impl Component<ElanEvent> for HwBarrierUnit {
    fn handle(&mut self, msg: ElanEvent, ctx: &mut Ctx<'_, ElanEvent>) {
        let ElanEvent::HwArrive { node, epoch, cause } = msg else {
            panic!("hw barrier unit got unexpected event");
        };
        debug_assert!(self.group.contains(&node));
        let now = ctx.now();
        let entry = self.pending.entry(epoch).or_insert((0, now));
        entry.0 += 1;
        if entry.0 < self.group.len() {
            return;
        }
        let (_, first) = self.pending.remove(&epoch).expect("just inserted");
        // All members arrived: run the test-and-set wave.
        let spread = now.saturating_sub(first);
        let penalty = spread
            .scale(self.params.hw_skew_factor)
            .min(self.params.hw_skew_cap);
        let done =
            now + self.params.hw_base + self.params.hw_per_level * u64::from(self.levels) + penalty;
        ctx.count_id(counter_id!("elan.hw_barrier"), 1);
        // Netdump: one record for the combining wave, parented on the last
        // arrival (the enabling stimulus of the whole release broadcast).
        let wave = ctx.packet(|| {
            PacketLog::new(cause, CausalKind::Fire)
                .nodes(node.0 as u32, NO_NODE)
                .detail(epoch, penalty.as_ns())
        });
        for &nic in &self.nics {
            ctx.send_at(done, nic, ElanEvent::HwDone { epoch, cause: wave });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicbar_net::QuaternaryFatTree;

    #[test]
    fn levels_grow_with_group_size() {
        let params = ElanParams::elan3();
        let topo = QuaternaryFatTree::new(64);
        let mk = |n: usize| {
            let group: Vec<NodeId> = (0..n).map(NodeId).collect();
            let nics: Vec<ComponentId> = (0..n).map(ComponentId).collect();
            HwBarrierUnit::new(group, nics, &topo, params.clone())
        };
        assert_eq!(mk(4).levels(), 1);
        assert_eq!(mk(8).levels(), 2);
        assert_eq!(mk(16).levels(), 2);
        assert_eq!(mk(64).levels(), 3);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn fragmented_group_rejected() {
        let params = ElanParams::elan3();
        let topo = QuaternaryFatTree::new(16);
        let group = vec![NodeId(0), NodeId(2), NodeId(4)];
        let nics = vec![ComponentId(0), ComponentId(1), ComponentId(2)];
        HwBarrierUnit::new(group, nics, &topo, params);
    }
}
