//! Property tests for the network models: hop metrics behave like metrics,
//! contention only ever delays, and permutations are bijections.

use nicbar_net::{
    LinkTiming, NodeId, Permutation, QuaternaryFatTree, Topology, WireModel, WireRx, WormholeClos,
};
use nicbar_sim::SimRng;
use proptest::prelude::*;
use std::sync::Arc;

fn topologies(n: usize) -> Vec<Box<dyn Topology>> {
    vec![
        Box::new(WormholeClos::myrinet2000(n)),
        Box::new(QuaternaryFatTree::new(n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hop counts are symmetric, zero iff loopback, and within the
    /// diameter.
    #[test]
    fn hops_form_a_sane_metric(
        n in 2usize..600,
        a_seed in 0usize..600,
        b_seed in 0usize..600,
    ) {
        let a = NodeId(a_seed % n);
        let b = NodeId(b_seed % n);
        for topo in topologies(n) {
            let h = topo.hops(a, b);
            prop_assert_eq!(h, topo.hops(b, a));
            prop_assert_eq!(h == 0, a == b);
            prop_assert!(h <= topo.diameter());
        }
    }

    /// Contention never makes a packet arrive earlier than uncontended
    /// routing, and arrivals at one port are strictly serialized.
    #[test]
    fn contention_only_delays(
        n_senders in 2usize..8,
        bytes in 0u32..512,
    ) {
        let n = 8;
        let model = Arc::new(WireModel::new(
            Box::new(WormholeClos::myrinet2000(n)),
            LinkTiming::myrinet2000(),
        ));
        let mut rx = WireRx::new(Arc::clone(&model));
        let base = LinkTiming::myrinet2000().latency(1, bytes);
        let mut arrivals = Vec::new();
        for s in 1..=n_senders {
            let routed = model.flight(NodeId(s), NodeId(0), bytes);
            let admitted = rx.admit(routed, bytes);
            prop_assert!(routed >= base);
            prop_assert!(admitted.arrive >= routed);
            arrivals.push(admitted.arrive);
        }
        for w in arrivals.windows(2) {
            prop_assert!(w[1] > w[0], "port serialization violated");
        }
    }

    /// Random permutations are bijections and seed-stable.
    #[test]
    fn permutations_are_bijective(n in 1usize..64, extra in 0usize..32, seed in 0u64..1000) {
        let cluster = n + extra;
        let p1 = Permutation::random(n, cluster, &mut SimRng::new(seed));
        let p2 = Permutation::random(n, cluster, &mut SimRng::new(seed));
        prop_assert_eq!(&p1, &p2);
        let mut nodes: Vec<usize> = p1.nodes().iter().map(|x| x.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), n);
        prop_assert!(nodes.iter().all(|&x| x < cluster));
    }
}
