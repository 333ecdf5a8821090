//! The wire model: routing shared, contention per NIC.
//!
//! The network's physics is split along ownership lines, so that no
//! packet touches mutable state outside its sender and its receiver and
//! clusters can run on the parallel engine:
//!
//! * [`WireModel`] — the *immutable* network description (topology, link
//!   timing, loss probability), shared by every NIC through an [`Arc`].
//!   Senders use it to compute routing latency; that latency is also the
//!   conservative lookahead that funds the parallel engine's time windows
//!   ([`WireModel::min_latency`]).
//! * [`WireRx`] — one NIC's *receive port*: the only mutable wire state a
//!   packet touches at its destination. Owned by the destination NIC
//!   component, so destination-port contention resolves wherever that NIC
//!   lives — no cross-shard mutable state.
//!
//! A packet committed at `t` reaches the destination port at
//! `t + latency(hops, bytes)` (the in-flight time — an event travelling
//! NIC→NIC), and the port then admits it no earlier than the previous
//! packet's occupancy ends. Contention therefore resolves in *arrival*
//! order at the port, which is what a real input port does. Loss is drawn
//! by the receiving NIC before it calls [`WireRx::admit`], so a dropped
//! packet never occupies the port.

use crate::timing::LinkTiming;
use crate::topology::{NodeId, Topology};
use nicbar_sim::{LatencyMatrix, ShardMap, SimTime};
use std::sync::Arc;

/// Immutable description of the network: everything a sender needs to
/// compute in-flight latency, and everything a receive port needs to admit
/// packets. Shared by all NICs via [`Arc`] (it is `Send + Sync`).
pub struct WireModel {
    topology: Box<dyn Topology>,
    timing: LinkTiming,
    /// Probability that any given packet is lost (drawn at the receiver).
    drop_prob: f64,
}

impl WireModel {
    /// Build a wire model over `topology` with the given `timing`.
    pub fn new(topology: Box<dyn Topology>, timing: LinkTiming) -> Self {
        WireModel {
            topology,
            timing,
            drop_prob: 0.0,
        }
    }

    /// Set the loss-injection probability (0 disables). Builder-style
    /// because the model is immutable once shared.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drop_prob = p;
        self
    }

    /// Current loss-injection probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// The underlying topology.
    pub fn topology(&self) -> &dyn Topology {
        self.topology.as_ref()
    }

    /// The link timing parameters.
    pub fn timing(&self) -> &LinkTiming {
        &self.timing
    }

    /// In-flight latency of a `bytes`-byte packet from `src` to `dst`:
    /// the delay between the sender committing the packet and the packet
    /// presenting at the destination's input port.
    ///
    /// # Panics
    /// Panics on `src == dst` (NIC-local loopback never touches the wire).
    pub fn flight(&self, src: NodeId, dst: NodeId, bytes: u32) -> SimTime {
        assert_ne!(src, dst, "fabric loopback is not a thing");
        self.timing.latency(self.topology.hops(src, dst), bytes)
    }

    /// The minimum in-flight latency of *any* packet: one switch hop, zero
    /// payload. Every cross-NIC message takes at least this long, which
    /// makes it the conservative lookahead for the parallel engine.
    pub fn min_latency(&self) -> SimTime {
        self.timing.latency(1, 0)
    }

    /// The tightest sound conservative-lookahead matrix for a node
    /// partition: entry `(i, j)` is the zero-byte flight time over the
    /// closest cross-shard `(src in shard i, dst in shard j)` node pair —
    /// every real packet between the two shards crosses at least that many
    /// hops and carries at least zero bytes, and [`LinkTiming::latency`] is
    /// monotone in both. `shard_of[node]` maps nodes to shards.
    ///
    /// O(nodes²) in the topology's `hops`; builders gate on cluster size
    /// and fall back to [`LatencyMatrix::uniform`] over
    /// [`WireModel::min_latency`] beyond it.
    ///
    /// # Panics
    /// Panics if `shards < 2` (a single shard has no pairs to bound).
    pub fn shard_latency_matrix(&self, shard_of: &[u32], shards: usize) -> LatencyMatrix {
        assert!(shards > 1, "per-pair bounds need at least two shards");
        let mut min_hops = vec![u32::MAX; shards * shards];
        for (a, &sa) in shard_of.iter().enumerate() {
            let i = sa as usize;
            for (b, &sb) in shard_of.iter().enumerate() {
                let j = sb as usize;
                if i == j || a == b {
                    continue;
                }
                let h = self.topology.hops(NodeId(a), NodeId(b));
                let slot = &mut min_hops[i * shards + j];
                if h < *slot {
                    *slot = h;
                }
            }
        }
        LatencyMatrix::from_fn(shards, |i, j| match min_hops[i * shards + j] {
            // A pair with no node pair (an empty shard) carries no traffic,
            // so the global minimum is vacuously sound for it.
            u32::MAX => self.min_latency(),
            h => self.timing.latency(h, 0),
        })
    }

    /// The lookahead matrix a cluster builder should hand the parallel
    /// engine for shard map `map` over `nodes` nodes: the exact per-pair
    /// bounds ([`WireModel::shard_latency_matrix`]) when the O(nodes²)
    /// scan is affordable, the uniform global minimum beyond that (or at
    /// one shard, where no pair exists). Assumes the standard cluster
    /// layout — hosts are components `0..nodes`, co-located with their
    /// NICs, so node `j`'s shard is `map.shard_of(ComponentId(j))`.
    pub fn lookahead_for(&self, map: &ShardMap, nodes: usize) -> LatencyMatrix {
        const EXACT_SCAN_MAX_NODES: usize = 4096;
        let k = map.shards();
        if k > 1 && nodes <= EXACT_SCAN_MAX_NODES {
            let node_shard: Vec<u32> = (0..nodes)
                .map(|j| map.shard_of(nicbar_sim::ComponentId(j)))
                .collect();
            self.shard_latency_matrix(&node_shard, k)
        } else {
            LatencyMatrix::uniform(k, self.min_latency())
        }
    }
}

/// One NIC's receive port: a serial resource admitting arriving packets.
///
/// Owned by the destination NIC component. Each admitted packet holds the
/// port for its occupancy (a dropped packet never occupies the port — the
/// loss draw happens *before* calling [`WireRx::admit`]).
pub struct WireRx {
    model: Arc<WireModel>,
    /// Time this input port is busy until.
    port_free: SimTime,
}

/// What the port did with one arriving packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// When the packet is fully admitted (processing can start).
    pub arrive: SimTime,
    /// How long it queued behind earlier arrivals (zero if the port was
    /// free) — the link-occupancy tag on the causal netdump's wire records.
    pub port_wait: SimTime,
    /// When the port frees again: `arrive` plus this packet's occupancy.
    /// The interval `[arrive, until)` is the hold this packet's owner
    /// charges to the link port in the occupancy ledger.
    pub until: SimTime,
}

impl WireRx {
    /// A receive port over the shared wire model.
    pub fn new(model: Arc<WireModel>) -> Self {
        WireRx {
            model,
            port_free: SimTime::ZERO,
        }
    }

    /// The shared wire model.
    pub fn model(&self) -> &Arc<WireModel> {
        &self.model
    }

    /// Admit a packet presenting at the port at time `routed` (its routed
    /// arrival time). The port is serially occupied for the packet's
    /// serialization.
    pub fn admit(&mut self, routed: SimTime, bytes: u32) -> Admission {
        let arrive = routed.max(self.port_free);
        self.port_free = arrive + self.model.timing.occupancy(bytes);
        Admission {
            arrive,
            port_wait: arrive - routed,
            until: self.port_free,
        }
    }

    /// Forget port-occupancy state (between benchmark phases).
    pub fn reset(&mut self) {
        self.port_free = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::WormholeClos;
    use crate::fattree::QuaternaryFatTree;

    fn model() -> Arc<WireModel> {
        Arc::new(WireModel::new(
            Box::new(WormholeClos::myrinet2000(8)),
            LinkTiming::myrinet2000(),
        ))
    }

    #[test]
    fn flight_is_wormhole_latency_over_the_route() {
        let m = model();
        let tree = WireModel::new(
            Box::new(QuaternaryFatTree::new(8)),
            LinkTiming::qsnet_elan3(),
        );
        for wire in [&*m, &tree] {
            for (s, d, b) in [(0usize, 1usize, 8u32), (0, 5, 64), (3, 7, 0)] {
                let (s, d) = (NodeId(s), NodeId(d));
                let hops = wire.topology().hops(s, d);
                assert_eq!(wire.flight(s, d, b), wire.timing().latency(hops, b));
            }
        }
    }

    #[test]
    fn admissions_serialize_at_the_port() {
        let m = model();
        let mut rx = WireRx::new(Arc::clone(&m));
        let routed = m.flight(NodeId(1), NodeId(0), 8);
        let a1 = rx.admit(routed, 8);
        let a2 = rx.admit(routed, 8);
        let a3 = rx.admit(routed, 8);
        assert_eq!(a1.arrive, routed);
        assert_eq!(a1.port_wait, SimTime::ZERO);
        let occupancy = LinkTiming::myrinet2000().occupancy(8);
        assert_eq!(a2.arrive - a1.arrive, occupancy);
        assert_eq!(a2.port_wait, occupancy);
        assert_eq!(a3.port_wait, occupancy + occupancy);
    }

    #[test]
    fn min_latency_is_one_hop_zero_bytes() {
        let m = model();
        assert_eq!(m.min_latency(), LinkTiming::myrinet2000().latency(1, 0));
        assert_eq!(m.min_latency().as_ns(), 450);
        // No packet can beat it.
        for d in 1..8usize {
            assert!(m.flight(NodeId(0), NodeId(d), 0) >= m.min_latency());
        }
    }

    #[test]
    fn reset_clears_the_port() {
        let m = model();
        let mut rx = WireRx::new(m);
        rx.admit(SimTime::from_ns(100), 8);
        rx.reset();
        let a = rx.admit(SimTime::from_ns(100), 8);
        assert_eq!(a.port_wait, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        model().flight(NodeId(2), NodeId(2), 8);
    }

    /// Every matrix entry must lower-bound every real cross-shard flight
    /// (soundness), and equal the tightest such bound (exactness).
    #[test]
    fn shard_latency_matrix_is_tight_and_sound() {
        let m = model();
        // Nodes 0..4 on shard 0, 4..8 on shard 1.
        let shard_of: Vec<u32> = (0..8).map(|n| (n >= 4) as u32).collect();
        let lat = m.shard_latency_matrix(&shard_of, 2);
        for (i, j) in [(0usize, 1usize), (1, 0)] {
            let mut tight = u64::MAX;
            for a in 0..8usize {
                for b in 0..8usize {
                    if a == b || shard_of[a] as usize != i || shard_of[b] as usize != j {
                        continue;
                    }
                    let f = m.flight(NodeId(a), NodeId(b), 0).as_ns();
                    assert!(f >= lat.get(i, j), "flight {a}->{b} beats the bound");
                    tight = tight.min(f);
                }
            }
            assert_eq!(lat.get(i, j), tight, "bound ({i},{j}) is not tight");
        }
        assert!(lat.min_ns() >= m.min_latency().as_ns());
    }
}
