//! What a benchmark run is configured with and what it returns: the
//! paper's methodology knobs ([`RunCfg`]: warm-up iterations discarded,
//! the average of the measured iterations reported, optional random node
//! permutation), the statistics ([`BarrierStats`]) and the full
//! observability capture ([`FlightData`]). [`crate::scenario`] runs them.

use nicbar_gm::GroupId;
use nicbar_net::{NodeId, Permutation};
use nicbar_sim::{SimRng, SimTime, Trace};

/// The collective group id used by the barrier benchmarks.
pub const BARRIER_GROUP: GroupId = GroupId(0xBA);

/// Common benchmark configuration (paper §8: 100 warm-up iterations, the
/// average of the following iterations as the latency, random node
/// permutations).
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Discarded warm-up iterations.
    pub warmup: u64,
    /// Measured iterations.
    pub iters: u64,
    /// Master seed.
    pub seed: u64,
    /// Uniform random per-process compute skew before each re-entry, µs
    /// (0 = the paper's tight loop).
    pub skew_us: f64,
    /// Fabric loss injection (GM only: a `Scenario` on the
    /// hardware-reliable Elan fabric rejects any loss).
    pub drop_prob: f64,
    /// Place ranks on a random node permutation.
    pub permute: bool,
    /// Worker shards, the one parallel-execution setting: a cluster whose
    /// shard count (clamped to its node count) is below 2, or which has the
    /// Elan hardware-barrier unit, runs on the sequential engine; any other
    /// runs on the parallel engine over contiguous node ranges.
    pub shards: usize,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            warmup: 100,
            iters: 1000,
            seed: 42,
            skew_us: 0.0,
            drop_prob: 0.0,
            permute: false,
            shards: 1,
        }
    }
}

impl RunCfg {
    /// Total epochs each process runs.
    pub fn total(&self) -> u64 {
        self.warmup + self.iters
    }

    /// Simulated-time budget for a closed-loop run: generous (no realistic
    /// barrier exceeds 10 ms even under loss), so hitting it means a hang.
    pub(crate) fn deadline(&self) -> SimTime {
        SimTime::from_us(self.total() as f64 * 10_000.0 + 1_000_000.0)
    }

    /// Rank → node placement: the identity, or a seeded random
    /// permutation under `permute`.
    pub(crate) fn members(&self, n: usize) -> Vec<NodeId> {
        if self.permute {
            let mut rng = SimRng::new(self.seed ^ 0x9E3779B97F4A7C15);
            Permutation::random(n, n, &mut rng).nodes().to_vec()
        } else {
            (0..n).map(NodeId).collect()
        }
    }
}

/// Results of one barrier benchmark run.
#[derive(Clone, Debug)]
pub struct BarrierStats {
    /// Group size.
    pub n: usize,
    /// Mean barrier latency over the measured window, µs.
    pub mean_us: f64,
    /// Per-iteration global latencies in the measured window, µs.
    pub per_iter_us: Vec<f64>,
    /// Wire packets per barrier (all kinds), averaged over every epoch.
    pub wire_per_barrier: f64,
    /// Raw engine counters at the end of the run.
    pub counters: Vec<(String, u64)>,
}

impl BarrierStats {
    /// Largest single-iteration latency in the window, µs.
    pub fn max_us(&self) -> f64 {
        self.per_iter_us.iter().copied().fold(0.0, f64::max)
    }

    /// A named counter's final value.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Reduce per-rank completion logs to global per-iteration latencies.
pub(crate) fn stats_from_logs(
    n: usize,
    cfg: &RunCfg,
    logs: Vec<&[SimTime]>,
    counters: Vec<(String, u64)>,
) -> BarrierStats {
    let total = usize::try_from(cfg.total()).expect("iteration count exceeds usize");
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(
            log.len(),
            total,
            "rank {i} completed {} of {total} barriers",
            log.len()
        );
    }
    // Barrier safety: no process may exit epoch k before every process has
    // exited k−1 (exit of k requires all entries to k, and entry to k
    // happens after own exit of k−1). Checked on every run.
    for k in 1..total {
        let min_exit_k = logs.iter().map(|l| l[k]).min().expect("n >= 1");
        let max_exit_prev = logs.iter().map(|l| l[k - 1]).max().expect("n >= 1");
        assert!(
            min_exit_k >= max_exit_prev,
            "barrier safety violated at epoch {k}: exit {min_exit_k} precedes previous epoch's last exit {max_exit_prev}"
        );
    }
    // Global completion of epoch k = the last process to finish it.
    let global: Vec<SimTime> = (0..total)
        .map(|k| logs.iter().map(|l| l[k]).max().expect("n >= 1"))
        .collect();
    assert!(cfg.warmup >= 1, "need at least one warm-up iteration");
    let w = usize::try_from(cfg.warmup).expect("warmup count exceeds usize");
    let per_iter_us: Vec<f64> = (w..total)
        .map(|k| (global[k] - global[k - 1]).as_us())
        .collect();
    let mean_us = (global[total - 1] - global[w - 1]).as_us() / cfg.iters as f64;
    let wire_total = counters
        .iter()
        .find(|(k, _)| k == "wire.total" || k == "elan.wire")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    BarrierStats {
        n,
        mean_us,
        per_iter_us,
        wire_per_barrier: wire_total as f64 / total as f64,
        counters,
    }
}

/// Everything a captured run records ([`crate::Scenario::capture`]): the
/// usual statistics plus the run's record log — span records, closed
/// spans with their latency histograms, the causal packet records and the
/// occupancy ledger, with the log's one drop count so exporters can
/// qualify the capture.
#[derive(Clone, Debug)]
pub struct FlightData {
    /// Substrate label for exporters ("gm" or "elan").
    pub substrate: &'static str,
    /// Which execution engine produced the run ("sequential" or
    /// "parallel"). Results are byte-identical across engines, so the
    /// exporters stamp this to make cross-engine diffs self-describing.
    pub engine: &'static str,
    /// Worker shard count of the producing engine (1 when sequential).
    pub shards: usize,
    /// Aggregate statistics of the run (same as an uncaptured run).
    pub stats: BarrierStats,
    /// The run's record log, moved out of the engine. Feed its packet
    /// column to `nicbar_bench`'s critical-path analyzer, and its ledger
    /// column to the interference attribution.
    pub trace: Trace,
}

impl FlightData {
    /// Byte-exact projection of everything the run observed — span records
    /// in emission order, closed spans, histograms, statistics, causal
    /// packet records, the occupancy ledger and the drop count — without
    /// the engine stamp, the one intended difference between engines.
    pub fn witness(&self) -> String {
        let t = &self.trace;
        format!(
            "substrate={}\nrecords={:?}\nspans={:?}\norphaned={}\nhists={:?}\nstats={:?}\npackets={:?}\nledger={:?}\ndropped={}\n",
            self.substrate,
            t.iter().as_slice(),
            t.completed(),
            t.orphaned(),
            t.hists(),
            self.stats,
            t.packets(),
            t.ledger(),
            t.dropped(),
        )
    }

    /// `None` when `other`'s [`witness`](Self::witness) is byte-identical
    /// to this one; otherwise where the two first differ, with 120 bytes
    /// of context from each side.
    pub fn divergence(&self, other: &FlightData) -> Option<String> {
        let (a, b) = (self.witness(), other.witness());
        if a == b {
            return None;
        }
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()));
        let lo = at.saturating_sub(120);
        let context = |w: &str| {
            String::from_utf8_lossy(&w.as_bytes()[lo..(at + 120).min(w.len())]).into_owned()
        };
        Some(format!(
            "first divergence at byte {at}\nthis:  ...{}\nother: ...{}",
            context(&a),
            context(&b)
        ))
    }
}
