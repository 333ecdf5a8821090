//! Component → shard partitioning for the parallel engine.
//!
//! The parallel engine ([`crate::parallel`]) assigns every component to
//! exactly one worker shard. Correctness only needs the *co-location*
//! invariant: components that exchange zero-lookahead messages (a host and
//! its own NIC, a NIC and its receive port) must share a shard, because
//! only cross-fabric messages carry the link latency that funds the
//! conservative lookahead window. Both cluster backends lay components out
//! as `[hosts 0..n][NICs n..2n]`, so "everything belonging to node `j`"
//! is simply every component id congruent to `j` mod `n` — and nodes are
//! then split into `shards` contiguous, balanced ranges.
//!
//! Contiguous ranges (rather than round-robin) keep each shard's dissemination
//! peers — which are `rank ± 2^k` — partially local at the low rounds, which
//! slightly reduces cross-shard mail volume.
//!
//! [`LatencyMatrix`] is the per-*pair* minimum cross-shard message latency
//! (see `DESIGN.md`, "Performance II"). The engine's conservative window
//! used to be funded by one global minimum; with the matrix each shard gets
//! its own granted window end `W(j) = min over i≠j of (EAT(i) + L(i, j))`,
//! where the earliest-activation time `EAT(i) = min over m of (next_m +
//! dist(m, i))` bounds wake-up relay chains through the shortest-path
//! closure ([`LatencyMatrix::closure`]) — so a pair of far-apart shards
//! stops re-synchronizing at the worst-case (nearest-pair) rate, and a
//! momentarily idle shard still constrains the peers that could wake it
//! (see `crate::parallel` for the derivation).

use crate::engine::ComponentId;
use crate::time::SimTime;

/// A complete component → shard assignment.
#[derive(Clone, Debug)]
pub struct ShardMap {
    table: Vec<u32>,
    shards: u32,
}

/// Shard of node `node` when `nodes` nodes are split into `shards`
/// balanced contiguous ranges: `node * shards / nodes`.
#[inline]
pub fn node_shard(node: usize, nodes: usize, shards: usize) -> u32 {
    debug_assert!(node < nodes);
    ((node as u64 * shards as u64) / nodes as u64) as u32
}

impl ShardMap {
    /// Build a map for `components` component slots over `nodes` nodes,
    /// with `node_of` giving each component's owning node. Nodes are split
    /// into `shards` balanced contiguous ranges; `shards` is clamped to
    /// `[1, nodes]`.
    pub fn by_node(
        components: usize,
        nodes: usize,
        shards: usize,
        node_of: impl Fn(usize) -> usize,
    ) -> ShardMap {
        assert!(nodes > 0, "a cluster needs at least one node");
        let shards = shards.clamp(1, nodes);
        let table = (0..components)
            .map(|c| node_shard(node_of(c), nodes, shards))
            .collect();
        ShardMap {
            table,
            shards: shards as u32,
        }
    }

    /// Number of shards this map distributes over.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Shard owning component `id`.
    #[inline]
    pub fn shard_of(&self, id: ComponentId) -> u32 {
        self.table[id.0]
    }

    /// The raw component → shard table.
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Components assigned to each shard, shard-index order. The engine
    /// self-profiler reports these next to per-shard busy times so a
    /// partition imbalance is visible at a glance.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards as usize];
        for &s in &self.table {
            sizes[s as usize] += 1;
        }
        sizes
    }

    pub(crate) fn into_table(self) -> Vec<u32> {
        self.table
    }
}

/// Per-pair minimum cross-shard message latency, in nanoseconds: the
/// conservative lookahead funding the parallel engine's per-shard windows.
/// `get(i, j)` must lower-bound the latency of *every* message a component
/// on shard `i` can send to a component on shard `j` — overstating it
/// breaks the byte-identity guarantee (and trips the debug deposit assert).
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    shards: usize,
    /// Flat `shards * shards`, ns. Diagonal entries are unused (intra-shard
    /// sends never cross a window boundary) and stored as `u64::MAX`.
    ns: Vec<u64>,
    /// Minimum off-diagonal entry (the old global lookahead).
    min_ns: u64,
}

impl LatencyMatrix {
    /// Every pair bounded by the same global minimum — always sound, since
    /// the scalar is a lower bound of each pair's true minimum.
    pub fn uniform(shards: usize, min: SimTime) -> Self {
        assert!(shards > 0, "a latency matrix needs at least one shard");
        assert!(!min.is_zero(), "parallel engine needs lookahead > 0");
        let mut ns = vec![min.as_ns(); shards * shards];
        for i in 0..shards {
            ns[i * shards + i] = u64::MAX;
        }
        LatencyMatrix {
            shards,
            ns,
            min_ns: min.as_ns(),
        }
    }

    /// Exact per-pair bounds: `f(i, j)` is the minimum latency of any
    /// message from shard `i` to shard `j` (`i != j`). Panics if any pair's
    /// bound is zero — a zero bound admits no parallel window between the
    /// pair.
    pub fn from_fn(shards: usize, mut f: impl FnMut(usize, usize) -> SimTime) -> Self {
        assert!(shards > 1, "per-pair bounds need at least two shards");
        let mut ns = vec![u64::MAX; shards * shards];
        let mut min_ns = u64::MAX;
        for i in 0..shards {
            for j in 0..shards {
                if i == j {
                    continue;
                }
                let v = f(i, j).as_ns();
                assert!(v > 0, "zero lookahead between shards {i} and {j}");
                ns[i * shards + j] = v;
                min_ns = min_ns.min(v);
            }
        }
        LatencyMatrix { shards, ns, min_ns }
    }

    /// Minimum latency of a message from shard `from` to shard `to`.
    #[inline]
    pub fn get(&self, from: usize, to: usize) -> u64 {
        self.ns[from * self.shards + to]
    }

    /// The smallest cross-pair bound — what the old global-window protocol
    /// used for every pair.
    pub fn min_ns(&self) -> u64 {
        self.min_ns
    }

    /// Shard count this matrix covers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// All-pairs shortest-path closure of the latency graph, flat
    /// row-major (`dist[i * shards + j]`), with a zero diagonal.
    ///
    /// `dist(i, j)` is the minimum total latency of any *relay chain* of
    /// messages from shard `i` to shard `j` — possibly via intermediate
    /// shards — and is what the parallel engine's window computation needs
    /// to bound wake-up cascades: a shard whose own queue is empty can
    /// still be activated by a message relayed through any path, no
    /// earlier than the sending shard's earliest event plus `dist`.
    pub fn closure(&self) -> Vec<u64> {
        let k = self.shards;
        let mut dist: Vec<u64> = self.ns.clone();
        for i in 0..k {
            dist[i * k + i] = 0;
        }
        for via in 0..k {
            for i in 0..k {
                let base = dist[i * k + via];
                if base == u64::MAX {
                    continue;
                }
                for j in 0..k {
                    let relayed = base.saturating_add(dist[via * k + j]);
                    if relayed < dist[i * k + j] {
                        dist[i * k + j] = relayed;
                    }
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_and_balanced() {
        let n = 10;
        let map = ShardMap::by_node(2 * n, n, 4, |c| c % n);
        // Host j and NIC j share a shard.
        for j in 0..n {
            assert_eq!(
                map.shard_of(ComponentId(j)),
                map.shard_of(ComponentId(n + j)),
                "host and NIC of node {j} split across shards"
            );
        }
        // Shards are contiguous in node order and non-decreasing.
        let shards: Vec<u32> = (0..n).map(|j| map.shard_of(ComponentId(j))).collect();
        assert!(shards.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*shards.last().unwrap(), 3);
        // Balanced: every shard owns 2 or 3 of the 10 nodes.
        for s in 0..4u32 {
            let owned = shards.iter().filter(|&&x| x == s).count();
            assert!((2..=3).contains(&owned), "shard {s} owns {owned} nodes");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_nodes() {
        let map = ShardMap::by_node(4, 2, 16, |c| c % 2);
        assert_eq!(map.shards(), 2);
        let map = ShardMap::by_node(4, 2, 0, |c| c % 2);
        assert_eq!(map.shards(), 1);
        assert!(map.table().iter().all(|&s| s == 0));
    }

    #[test]
    fn latency_matrix_uniform_and_exact() {
        let u = LatencyMatrix::uniform(3, SimTime::from_ns(450));
        assert_eq!(u.shards(), 3);
        assert_eq!(u.min_ns(), 450);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert_eq!(u.get(i, j), 450);
                }
            }
        }
        let m = LatencyMatrix::from_fn(3, |i, j| {
            SimTime::from_ns(100 + 100 * (i.abs_diff(j) as u64))
        });
        assert_eq!(m.get(0, 1), 200);
        assert_eq!(m.get(0, 2), 300);
        assert_eq!(m.min_ns(), 200);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn latency_matrix_rejects_zero() {
        LatencyMatrix::uniform(2, SimTime::ZERO);
    }

    #[test]
    fn latency_closure_takes_relay_shortcuts() {
        // Direct 0→2 costs 900 but relaying through 1 costs 200 + 200:
        // the closure must take the two-hop path, keep the cheaper direct
        // entries, and zero the diagonal.
        let m = LatencyMatrix::from_fn(3, |i, j| {
            SimTime::from_ns(if i.abs_diff(j) == 2 { 900 } else { 200 })
        });
        let d = m.closure();
        let at = |i: usize, j: usize| d[i * 3 + j];
        assert_eq!(at(0, 2), 400, "relay via shard 1 beats direct 900");
        assert_eq!(at(2, 0), 400);
        assert_eq!(at(0, 1), 200);
        for i in 0..3 {
            assert_eq!(d[i * 3 + i], 0, "diagonal is self-distance");
        }
        // Uniform matrices are already metric: closure == direct + zeros.
        let u = LatencyMatrix::uniform(3, SimTime::from_ns(450));
        let du = u.closure();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(du[i * 3 + j], if i == j { 0 } else { 450 });
            }
        }
    }

    #[test]
    fn shard_sizes_sum_to_component_count() {
        let n = 10;
        let map = ShardMap::by_node(2 * n, n, 4, |c| c % n);
        let sizes = map.shard_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes.iter().sum::<usize>(), 2 * n);
        // Balanced contiguous split: 2 or 3 nodes (4 or 6 components) each.
        assert!(sizes.iter().all(|&s| s == 4 || s == 6), "{sizes:?}");
    }
}
