//! The benchmark's workloads: how each cluster is built (plain or with the
//! tracing wrappers), how the closed barrier loop is observed, and the
//! oracle every round must pass.
//!
//! Every workload is a closed loop: each of the N simulated processes
//! enters its next barrier as soon as its previous one completes (the
//! paper's §8 methodology, warm-up epochs discarded from the latency). One
//! *round* builds a cluster for a fixed number of epochs and runs it until
//! every rank has completed them all.

use crate::tracer::{TracedColl, TracedElanApp, TracedGmApp};
use nicbar_core::elan_apps::ElanNicBarrierApp;
use nicbar_core::elan_chain::build_chains;
use nicbar_core::host_app::{BarrierLog, NicBarrierApp};
use nicbar_core::traffic::{BarrierUnderTrafficApp, TrafficCfg};
use nicbar_core::{Algorithm, BarrierStats, GroupSpec, PaperCollective, BARRIER_GROUP};
use nicbar_elan::{ElanApp, ElanCluster, ElanClusterSpec, ElanParams};
use nicbar_gm::{CollFeatures, GmApp, GmCluster, GmClusterSpec, GmParams, NicCollective};
use nicbar_net::{NodeId, Permutation};
use nicbar_sim::{RunOutcome, SimRng, SimTime, Trace};
use std::sync::Arc;

/// Trace-ring capacity for the capture workload: large enough that a round
/// evicts nothing.
const CAPTURE_TRACE_CAP: usize = 1 << 21;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// GM/LANai-XP, 8 nodes, NIC-DS, no loss: the paper's Myrinet cluster.
    PaperGm8,
    /// Elan3, 1024 nodes, NIC-DS, no loss: the paper's 1024-node projection.
    ScaleElan1024,
    /// GM, 64 nodes, NIC-DS, loss 1e-3, with bulk traffic beside the
    /// barrier (§6.1's contention case).
    TrafficGm64,
    /// GM, 64 nodes, NIC-DS, loss 1e-3, with trace ring, flight recorder,
    /// netdump and occupancy ledger all on.
    CaptureGm64,
}

/// Values a clean round must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expected {
    /// Mean barrier latency over the measured epochs, µs.
    pub mean_us: f64,
    /// Wire packets per barrier, over every epoch of the round.
    pub wire_per_barrier: f64,
    /// Engine events the whole round delivers.
    pub events: u64,
}

/// The paper's figure for a workload, if it has one.
#[derive(Clone, Copy, Debug)]
pub struct PaperAnchor {
    /// The paper's barrier latency, µs.
    pub us: f64,
    /// What kind of number it is.
    pub kind: &'static str,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGm8,
        Workload::ScaleElan1024,
        Workload::TrafficGm64,
        Workload::CaptureGm64,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGm8 => "paper-gm8",
            Workload::ScaleElan1024 => "scale-elan1024",
            Workload::TrafficGm64 => "traffic-gm64",
            Workload::CaptureGm64 => "capture-gm64",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One-line description for the output.
    pub fn describe(self) -> &'static str {
        match self {
            Workload::PaperGm8 => "GM/LANai-XP, 8 nodes, NIC-DS, no loss, recording off",
            Workload::ScaleElan1024 => "Elan3, 1024 nodes, NIC-DS, no loss, recording off",
            Workload::TrafficGm64 => {
                "GM/LANai-XP, 64 nodes, NIC-DS, loss 1e-3, bulk 4 KiB x 4 per node, recording off"
            }
            Workload::CaptureGm64 => {
                "GM/LANai-XP, 64 nodes, NIC-DS, loss 1e-3, trace+recorder+netdump+ledger on"
            }
        }
    }

    /// Simulated nodes (one process each).
    pub fn nodes(self) -> usize {
        match self {
            Workload::PaperGm8 => 8,
            Workload::ScaleElan1024 => 1024,
            Workload::TrafficGm64 | Workload::CaptureGm64 => 64,
        }
    }

    fn drop_prob(self) -> f64 {
        match self {
            Workload::PaperGm8 | Workload::ScaleElan1024 => 0.0,
            Workload::TrafficGm64 | Workload::CaptureGm64 => 1e-3,
        }
    }

    /// Whether the simulator's record streams are on.
    pub fn recording(self) -> bool {
        self == Workload::CaptureGm64
    }

    /// Epochs per round, warm-up included. The capture round stays well
    /// below the 2^21-record netdump and ledger capacities.
    pub fn round_epochs(self) -> u64 {
        match self {
            Workload::PaperGm8 => 20_000,
            Workload::ScaleElan1024 => 60,
            Workload::TrafficGm64 => 50,
            Workload::CaptureGm64 => 300,
        }
    }

    /// Leading epochs excluded from the mean latency.
    pub fn warmup(self) -> u64 {
        match self {
            Workload::PaperGm8 => 100,
            Workload::ScaleElan1024 | Workload::TrafficGm64 => 10,
            Workload::CaptureGm64 => 20,
        }
    }

    /// Simulated time one engine slice advances.
    pub fn slice(self) -> SimTime {
        match self {
            Workload::PaperGm8 => SimTime::from_us(500.0),
            Workload::ScaleElan1024 => SimTime::from_us(20.0),
            Workload::TrafficGm64 | Workload::CaptureGm64 => SimTime::from_us(100.0),
        }
    }

    /// Loss patterns a run cycles through, round by round. Under loss one
    /// pattern's barrier latency depends on where the drops fall (a
    /// 100-epoch traffic round reads anywhere from 139 to 194 µs by seed),
    /// so a run averages several patterns while still repeating each one.
    pub fn patterns(self) -> usize {
        match self {
            Workload::PaperGm8 | Workload::ScaleElan1024 => 1,
            Workload::TrafficGm64 => 16,
            Workload::CaptureGm64 => 4,
        }
    }

    /// The simulation seed of loss pattern `p` of a run seeded `seed`.
    pub fn pattern_seed(self, seed: u64, p: usize) -> u64 {
        seed.wrapping_mul(self.patterns() as u64)
            .wrapping_add(p as u64)
    }

    /// Clusters built per round (all timed for `setup_s`; the last one
    /// runs). Cheap builds repeat so the set-up time has enough samples.
    pub fn builds_per_round(self) -> usize {
        match self {
            Workload::PaperGm8 => 16,
            Workload::ScaleElan1024 => 1,
            Workload::TrafficGm64 | Workload::CaptureGm64 => 4,
        }
    }

    /// Whether ranks sit on a seed-drawn node permutation. Two workloads
    /// keep the identity placement because there placement moves the
    /// simulated latency itself: on the 1024-node fat tree (17.39 µs
    /// identity, about 21.9 µs permuted, so a permuted run would have no
    /// fixed oracle), and under bulk traffic (by up to a quarter between
    /// seeds, which would swamp the host's own spread).
    fn permuted(self) -> bool {
        !matches!(self, Workload::ScaleElan1024 | Workload::TrafficGm64)
    }

    /// The exact values a clean round reproduces; `None` for lossy
    /// workloads, whose loss pattern follows the seed.
    pub fn expected(self) -> Option<Expected> {
        match self {
            Workload::PaperGm8 => Some(Expected {
                mean_us: 13.9,
                wire_per_barrier: 24.0,
                events: 1_323_648,
            }),
            Workload::ScaleElan1024 => Some(Expected {
                mean_us: 17.3916,
                wire_per_barrier: 10_240.0,
                events: 1_967_104,
            }),
            Workload::TrafficGm64 | Workload::CaptureGm64 => None,
        }
    }

    /// The paper's figure this workload reproduces, if any.
    pub fn paper(self) -> Option<PaperAnchor> {
        match self {
            Workload::PaperGm8 => Some(PaperAnchor {
                us: 14.20,
                kind: "measured on the 8-node LANai-XP cluster",
            }),
            Workload::ScaleElan1024 => Some(PaperAnchor {
                us: 22.13,
                kind: "analytic projection, not a measurement",
            }),
            Workload::TrafficGm64 | Workload::CaptureGm64 => None,
        }
    }

    /// Build one round's cluster. `traced` wraps the collective engines
    /// and applications in the span-recording wrappers; `recording` turns
    /// the simulator's record streams on (GM only).
    pub fn build(self, seed: u64, traced: bool, recording: bool) -> Sim {
        let cluster = match self {
            Workload::ScaleElan1024 => Cluster::Elan(self.build_elan(seed, traced)),
            _ => Cluster::Gm(self.build_gm(seed, traced, recording)),
        };
        Sim {
            workload: self,
            cluster,
            traced,
            recording,
        }
    }

    fn members(self, seed: u64) -> Vec<NodeId> {
        let n = self.nodes();
        if self.permuted() {
            Permutation::random(n, n, &mut SimRng::new(seed))
                .nodes()
                .to_vec()
        } else {
            (0..n).map(NodeId).collect()
        }
    }

    fn build_gm(self, seed: u64, traced: bool, recording: bool) -> GmCluster {
        let n = self.nodes();
        let epochs = self.round_epochs();
        let params = GmParams::lanai_xp();
        let timeout = params.coll_timeout;
        let spec = GmClusterSpec::new(params, n)
            .with_seed(seed)
            .with_drop_prob(self.drop_prob())
            .with_features(CollFeatures::paper());
        let members: Arc<[NodeId]> = self.members(seed).into();
        // Apps and collective engines are indexed by node; rank r lives on
        // members[r].
        let mut apps: Vec<Option<Box<dyn GmApp>>> = (0..n).map(|_| None).collect();
        let mut colls: Vec<Option<Box<dyn NicCollective>>> = (0..n).map(|_| None).collect();
        for (rank, &node) in members.iter().enumerate() {
            let spec = GroupSpec::barrier(
                BARRIER_GROUP,
                members.clone(),
                rank,
                Algorithm::Dissemination,
                timeout,
            );
            let coll = PaperCollective::new(node, vec![spec]);
            colls[node.0] = Some(if traced {
                Box::new(TracedColl { inner: coll })
            } else {
                Box::new(coll)
            });
            apps[node.0] = Some(if self == Workload::TrafficGm64 {
                // Each node streams bulk to the next node.
                gm_app(
                    traced,
                    BarrierUnderTrafficApp::nic(node.0, n, epochs, TrafficCfg::default()),
                )
            } else {
                gm_app(traced, NicBarrierApp::new(BARRIER_GROUP, epochs, 0.0))
            });
        }
        let apps = apps
            .into_iter()
            .map(|a| a.expect("members cover every node"));
        let colls = colls
            .into_iter()
            .map(|c| c.expect("members cover every node"));
        let mut cluster = GmCluster::build(spec, apps.collect(), colls.collect());
        if recording {
            let engine = &mut cluster.engine;
            *engine.trace_mut() = Trace::with_capacity(CAPTURE_TRACE_CAP);
            engine.enable_recorder();
            engine
                .recorder_mut()
                .set_participants(u32::try_from(n).expect("node count fits u32"));
            engine.enable_netdump();
            engine.enable_ledger();
        }
        cluster
    }

    fn build_elan(self, seed: u64, traced: bool) -> ElanCluster {
        let n = self.nodes();
        let members = self.members(seed);
        let chains = build_chains(Algorithm::Dissemination, &members);
        let mut apps: Vec<Option<Box<dyn ElanApp>>> = (0..n).map(|_| None).collect();
        let mut programs = vec![Default::default(); n];
        for (&node, chain) in members.iter().zip(chains) {
            let app = ElanNicBarrierApp::new(self.round_epochs(), 0.0);
            apps[node.0] = Some(if traced {
                Box::new(TracedElanApp { inner: app })
            } else {
                Box::new(app)
            });
            programs[node.0] = chain;
        }
        let apps = apps
            .into_iter()
            .map(|a| a.expect("members cover every node"));
        let spec = ElanClusterSpec::new(ElanParams::elan3(), n).with_seed(seed);
        ElanCluster::build(spec, apps.collect(), programs)
    }
}

fn gm_app<A: GmApp>(traced: bool, app: A) -> Box<dyn GmApp> {
    if traced {
        Box::new(TracedGmApp { inner: app })
    } else {
        Box::new(app)
    }
}

/// The applications whose completion log a round reads.
trait Logged: 'static {
    fn log(&self) -> &BarrierLog;
}

impl Logged for NicBarrierApp {
    fn log(&self) -> &BarrierLog {
        &self.log
    }
}

impl Logged for BarrierUnderTrafficApp {
    fn log(&self) -> &BarrierLog {
        &self.log
    }
}

impl Logged for ElanNicBarrierApp {
    fn log(&self) -> &BarrierLog {
        &self.log
    }
}

fn gm_log<A: Logged>(c: &GmCluster, node: usize, traced: bool) -> &[SimTime] {
    let log = if traced {
        c.app_ref::<TracedGmApp<A>>(node).inner.log()
    } else {
        c.app_ref::<A>(node).log()
    };
    &log.completions
}

fn elan_log<A: Logged>(c: &ElanCluster, node: usize, traced: bool) -> &[SimTime] {
    let log = if traced {
        c.app_ref::<TracedElanApp<A>>(node).inner.log()
    } else {
        c.app_ref::<A>(node).log()
    };
    &log.completions
}

/// A built cluster of either substrate.
enum Cluster {
    /// Myrinet/GM.
    Gm(GmCluster),
    /// Quadrics/Elan3.
    Elan(ElanCluster),
}

/// Record-stream totals of a round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsCounts {
    /// Records retained across the trace ring, flight recorder, netdump and
    /// ledger.
    pub records: u64,
    /// Records any of them lost.
    pub dropped: u64,
}

/// One round's cluster and what it needs to report on itself.
pub struct Sim {
    workload: Workload,
    cluster: Cluster,
    traced: bool,
    recording: bool,
}

impl Sim {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match &self.cluster {
            Cluster::Gm(c) => c.engine.now(),
            Cluster::Elan(c) => c.engine.now(),
        }
    }

    /// Events delivered so far.
    pub fn events(&self) -> u64 {
        match &self.cluster {
            Cluster::Gm(c) => c.engine.events_processed(),
            Cluster::Elan(c) => c.engine.events_processed(),
        }
    }

    /// Events pending in the engine's queue.
    pub fn pending(&self) -> usize {
        match &self.cluster {
            Cluster::Gm(c) => c.engine.pending_events(),
            Cluster::Elan(c) => c.engine.pending_events(),
        }
    }

    /// Run every event up to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        match &mut self.cluster {
            Cluster::Gm(c) => c.engine.run_until(deadline),
            Cluster::Elan(c) => c.engine.run_until(deadline),
        }
    }

    /// Every node's barrier completion times, by node.
    pub fn logs(&self) -> Vec<&[SimTime]> {
        let (n, traced) = (self.workload.nodes(), self.traced);
        match (&self.cluster, self.workload) {
            (Cluster::Gm(c), Workload::TrafficGm64) => (0..n)
                .map(|i| gm_log::<BarrierUnderTrafficApp>(c, i, traced))
                .collect(),
            (Cluster::Gm(c), _) => (0..n)
                .map(|i| gm_log::<NicBarrierApp>(c, i, traced))
                .collect(),
            (Cluster::Elan(c), _) => (0..n)
                .map(|i| elan_log::<ElanNicBarrierApp>(c, i, traced))
                .collect(),
        }
    }

    /// Epochs every rank has completed.
    pub fn epochs_done(&self) -> u64 {
        self.logs()
            .iter()
            .map(|l| l.len() as u64)
            .min()
            .unwrap_or(0)
    }

    /// The engine's counters, name-ordered.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let counters = match &self.cluster {
            Cluster::Gm(c) => c.engine.counters(),
            Cluster::Elan(c) => c.engine.counters(),
        };
        let mut out: Vec<(String, u64)> =
            counters.iter().map(|(k, v)| (k.to_string(), v)).collect();
        out.sort();
        out
    }

    /// Record-stream totals (all zero with recording off).
    pub fn obs(&self) -> ObsCounts {
        let Cluster::Gm(c) = &self.cluster else {
            return ObsCounts::default();
        };
        let e = &c.engine;
        ObsCounts {
            records: (e.trace().len()
                + e.recorder().completed().len()
                + e.netdump().records().len()
                + e.ledger().records().len()) as u64,
            dropped: e.trace().dropped()
                + e.recorder().dropped()
                + e.netdump().dropped()
                + e.ledger().dropped(),
        }
    }

    /// Simulated-time bound on a round: generous, so reaching it means the
    /// barrier loop hung.
    pub fn deadline(&self) -> SimTime {
        SimTime::from_us(self.workload.round_epochs() as f64 * 50_000.0 + 1_000_000.0)
    }

    /// True once the closed loop is over: every rank completed every epoch.
    /// The bulk stream of the traffic workload still drains afterwards.
    pub fn loop_done(&self) -> bool {
        self.epochs_done() >= self.workload.round_epochs()
    }

    /// Drain what is left after the loop ended; false if the queue does not
    /// empty before the deadline.
    pub fn drain(&mut self) -> bool {
        let deadline = self.deadline();
        self.run_until(deadline) == RunOutcome::Idle
    }

    /// The oracle: every rank completed every epoch, no rank left an epoch
    /// before every rank had left the previous one, the record streams lost
    /// nothing, and a clean workload reproduced its expected values.
    pub fn check(&self) -> Result<BarrierStats, String> {
        let w = self.workload;
        let total = usize::try_from(w.round_epochs()).expect("epoch count fits usize");
        let logs = self.logs();
        for (node, log) in logs.iter().enumerate() {
            if log.len() != total {
                return Err(format!(
                    "node {node} completed {} of {total} epochs",
                    log.len()
                ));
            }
        }
        for k in 1..total {
            let first_exit = logs.iter().map(|l| l[k]).min().expect("n >= 1");
            let last_prev = logs.iter().map(|l| l[k - 1]).max().expect("n >= 1");
            if first_exit < last_prev {
                return Err(format!(
                    "barrier safety violated at epoch {k}: exit {first_exit} before {last_prev}"
                ));
            }
        }
        let global: Vec<SimTime> = (0..total)
            .map(|k| logs.iter().map(|l| l[k]).max().expect("n >= 1"))
            .collect();
        let warmup = usize::try_from(w.warmup()).expect("warm-up fits usize");
        let iters = (total - warmup) as f64;
        let counters = self.counters();
        let counter = |k: &str| counters.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
        let wire = counter("wire.total") + counter("elan.wire");
        let stats = BarrierStats {
            n: w.nodes(),
            mean_us: (global[total - 1] - global[warmup - 1]).as_us() / iters,
            per_iter_us: (warmup..total)
                .map(|k| (global[k] - global[k - 1]).as_us())
                .collect(),
            wire_per_barrier: wire as f64 / total as f64,
            counters,
        };
        let obs = self.obs();
        if obs.dropped > 0 {
            return Err(format!("record streams dropped {} records", obs.dropped));
        }
        if self.recording && obs.records == 0 {
            return Err("recording on but nothing recorded".into());
        }
        if let Some(exp) = w.expected() {
            let got = Expected {
                mean_us: stats.mean_us,
                wire_per_barrier: stats.wire_per_barrier,
                events: self.events(),
            };
            if (got.mean_us - exp.mean_us).abs() > 1e-9
                || got.wire_per_barrier != exp.wire_per_barrier
                || got.events != exp.events
            {
                return Err(format!("oracle mismatch: expected {exp:?}, got {got:?}"));
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{self, Layer};

    /// Run one round to the end, untimed, and pass it through the oracle.
    fn round(w: Workload, seed: u64, traced: bool) -> (BarrierStats, Sim) {
        let mut sim = w.build(seed, traced, w.recording());
        let mut t = SimTime::ZERO;
        while !sim.loop_done() {
            t += w.slice();
            assert!(t <= sim.deadline(), "{} hung", w.name());
            tracer::slice(|| sim.run_until(t));
        }
        assert!(sim.drain(), "{} did not drain", w.name());
        let stats = sim.check().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        (stats, sim)
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("paper-gm16"), None);
    }

    #[test]
    fn traced_rounds_reproduce_plain_rounds_on_every_workload() {
        tracer::start(1 << 10);
        for w in Workload::ALL {
            let (plain, plain_sim) = round(w, 5, false);
            let (traced, traced_sim) = round(w, 5, true);
            let name = w.name();
            assert_eq!(plain.mean_us, traced.mean_us, "{name}");
            assert_eq!(plain.per_iter_us, traced.per_iter_us, "{name}");
            assert_eq!(plain.wire_per_barrier, traced.wire_per_barrier, "{name}");
            assert_eq!(plain.counters, traced.counters, "{name}");
            assert_eq!(plain_sim.events(), traced_sim.events(), "{name}");
            assert_eq!(plain_sim.obs(), traced_sim.obs(), "{name}");
        }
        let trace = tracer::finish();
        assert!(trace.layer(Layer::Protocol).calls > 0);
        assert!(trace.layer(Layer::Apps).calls > 0);
    }

    #[test]
    fn the_seed_moves_the_loss_pattern_only_on_lossy_workloads() {
        for w in Workload::ALL {
            let (a, _) = round(w, 1, false);
            let (b, _) = round(w, 2, false);
            if w.expected().is_some() {
                // Both rounds also matched the recorded values in `check`.
                assert_eq!(a.mean_us, b.mean_us, "{}", w.name());
                assert_eq!(a.counters, b.counters, "{}", w.name());
            } else {
                assert_ne!(a.per_iter_us, b.per_iter_us, "{}", w.name());
                assert_ne!(a.counters, b.counters, "{}", w.name());
            }
        }
    }

    #[test]
    fn only_the_capture_workload_records() {
        for w in Workload::ALL {
            let (_, sim) = round(w, 3, false);
            assert_eq!(sim.obs().records > 0, w.recording(), "{}", w.name());
            assert_eq!(sim.obs().dropped, 0, "{}", w.name());
        }
    }

    #[test]
    fn the_oracle_rejects_an_unfinished_round() {
        let w = Workload::PaperGm8;
        let mut sim = w.build(1, false, false);
        sim.run_until(w.slice());
        assert!(sim.check().is_err());
    }
}
