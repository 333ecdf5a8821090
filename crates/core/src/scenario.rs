//! One way to describe and run a benchmark. A [`Scenario`] names what is
//! simulated — substrate, group size, barrier kind, collective groups and
//! background traffic — and [`Scenario::build`] applies a [`RunCfg`] to it.
//! The resulting [`Sim`] runs the paper's methodology (§8: consecutive
//! barriers, warm-up discarded, the mean of the rest) for every
//! combination through one drain and one log harvest.
//!
//! [`Scenario::run`] returns the statistics; [`Scenario::capture`] also
//! turns on the engine's record log (span records and their per-barrier
//! fold, causal packet records, occupancy ledger) and returns the full
//! [`FlightData`]. Callers that time or account for the run apart from its
//! construction (allocation gates, profilers, scaling sweeps) call `build`
//! and drive the [`Sim`] themselves.

use crate::contend::CONTEND_GROUP_BASE;
use crate::driver::{stats_from_logs, BarrierStats, FlightData, RunCfg, BARRIER_GROUP};
use crate::elan_apps::{ElanGsyncApp, ElanHwBarrierApp, ElanNicBarrierApp};
use crate::elan_chain::{build_chains, build_chains_multi, GroupChain};
use crate::elan_thread::{ElanThreadApp, ThreadCollective};
use crate::host_app::{BarrierLog, HostBarrierApp, NicBarrierApp};
use crate::protocol::{GroupOp, GroupSpec, PaperCollective, ReduceOp};
use crate::schedule::Algorithm;
use crate::traffic::{ElanStream, GmStream, TrafficCfg};
use nicbar_elan::{ElanApp, ElanCluster, ElanClusterSpec, ElanNic, ElanParams, NicProgram};
use nicbar_gm::{CollFeatures, GmApp, GmCluster, GmClusterSpec, GmParams, GroupId, NicCollective};
use nicbar_net::NodeId;
use nicbar_sim::{EngineProf, RunOutcome, SimTime, Trace};
use std::sync::Arc;

/// Reads node `i`'s barrier completion log off a built cluster.
type LogOf<C> = fn(&C, usize) -> &BarrierLog;

/// A built cluster with the log reader of the app it runs.
enum Cluster {
    Gm(GmCluster, LogOf<GmCluster>),
    Elan(ElanCluster, LogOf<ElanCluster>),
}

/// Evaluate `$body` with `$e` bound to the engine of either substrate
/// (by reference or mutably, following `$cluster`).
macro_rules! engine {
    ($cluster:expr, $e:ident => $body:expr) => {
        match $cluster {
            Cluster::Gm(GmCluster { engine: $e, .. }, _) => $body,
            Cluster::Elan(ElanCluster { engine: $e, .. }, _) => $body,
        }
    };
}

/// The simulated network.
#[derive(Clone, Debug)]
pub enum Substrate {
    /// Myrinet/GM: a timing preset and the collective-protocol features.
    Gm(GmParams, CollFeatures),
    /// Quadrics/Elan: a timing preset.
    Elan(ElanParams),
}

/// How the processes synchronize each epoch.
#[derive(Clone, Copy, Debug)]
pub enum Barrier {
    /// The paper's NIC-based barrier: the collective protocol on GM,
    /// chained RDMA descriptors on Elan.
    Nic(Algorithm),
    /// The host-based baseline over point-to-point messages (GM only).
    Host(Algorithm),
    /// Elanlib's `elan_gsync` software tree of the given degree (Elan only).
    Gsync(usize),
    /// The switch hardware barrier, `elan_hgsync`'s fast path (Elan only).
    /// Hardware broadcast needs contiguous nodes, so `RunCfg::permute`
    /// must be off.
    Hardware,
    /// The NIC-thread barrier §7 rejected (Elan only).
    ThreadBarrier,
    /// The NIC-thread allreduce of Moody et al., the paper's ref \[14\]
    /// (Elan only): rank `r` contributes `contribution(r, epoch)`.
    ThreadAllreduce(ReduceOp, fn(usize, u64) -> u64),
}

/// What is simulated. Build it with [`Scenario::gm`] or
/// [`Scenario::elan`], then [`run`](Scenario::run),
/// [`capture`](Scenario::capture) or [`build`](Scenario::build) it under a
/// [`RunCfg`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Network and timing preset.
    pub substrate: Substrate,
    /// Nodes, one process each.
    pub n: usize,
    /// How the processes synchronize.
    pub barrier: Barrier,
    /// NIC-barrier groups every node enters each epoch; an epoch ends when
    /// all of them complete. One group is [`BARRIER_GROUP`]. Several are
    /// `CONTEND_GROUP_BASE + g` and need `traffic`: the contention
    /// scenario.
    pub groups: usize,
    /// A bulk stream each process keeps to its ring neighbour while it
    /// runs the barriers.
    pub traffic: Option<TrafficCfg>,
}

impl Scenario {
    /// `barrier` over `n` GM nodes with the paper's protocol features: one
    /// group, no traffic.
    pub fn gm(params: GmParams, n: usize, barrier: Barrier) -> Self {
        Self::on(Substrate::Gm(params, CollFeatures::paper()), n, barrier)
    }

    /// `barrier` over `n` Elan nodes: one group, no traffic.
    pub fn elan(params: ElanParams, n: usize, barrier: Barrier) -> Self {
        Self::on(Substrate::Elan(params), n, barrier)
    }

    fn on(substrate: Substrate, n: usize, barrier: Barrier) -> Self {
        Scenario {
            substrate,
            n,
            barrier,
            groups: 1,
            traffic: None,
        }
    }

    /// Replace the GM collective-protocol features (the ablations).
    /// Panics on Elan, which has none.
    pub fn with_features(mut self, features: CollFeatures) -> Self {
        match &mut self.substrate {
            Substrate::Gm(_, f) => *f = features,
            Substrate::Elan(_) => panic!("Elan has no collective-protocol features"),
        }
        self
    }

    /// Run `groups` overlapping NIC-barrier groups.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Add a background bulk stream.
    pub fn with_traffic(mut self, traffic: TrafficCfg) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// The collective group ids every node enters, in entry order.
    pub fn group_ids(&self) -> Vec<GroupId> {
        if self.groups == 1 {
            return vec![BARRIER_GROUP];
        }
        (0..self.groups)
            .map(|g| GroupId(CONTEND_GROUP_BASE + u32::try_from(g).expect("group count")))
            .collect()
    }

    /// Build, drain and return the run's statistics.
    pub fn run(&self, cfg: &RunCfg) -> BarrierStats {
        let mut sim = self.build(cfg);
        sim.drain();
        sim.stats()
    }

    /// Build with the record log on, drain, and return the capture. The
    /// log retains [`Trace::DEFAULT_CAPACITY`] records (span, packet and
    /// ledger records and closed spans together) before it starts dropping;
    /// drops are reported, not fatal.
    pub fn capture(&self, cfg: &RunCfg) -> FlightData {
        let mut sim = self.build(cfg);
        engine!(&mut sim.cluster, e => {
            e.enable_trace();
            e.trace_mut()
                .set_participants(u32::try_from(self.n).expect("participant count exceeds u32"));
        });
        sim.drain();
        let stats = sim.stats();
        engine!(&mut sim.cluster, e => FlightData {
            substrate: self.substrate.label(),
            engine: e.kind(),
            shards: e.shards(),
            stats,
            trace: std::mem::replace(e.trace_mut(), Trace::disabled()),
        })
    }

    /// Build the cluster without running it. Panics, naming the
    /// combination, on a scenario no substrate implements.
    pub fn build(&self, cfg: &RunCfg) -> Sim {
        self.validate(cfg);
        // One rank → node list for the whole run: every rank's group spec,
        // host app and NIC thread shares it, so placement costs O(n), not
        // O(n²).
        let members: Arc<[NodeId]> = cfg.members(self.n).into();
        let cluster = match &self.substrate {
            Substrate::Gm(params, features) => self.build_gm(params, *features, cfg, &members),
            Substrate::Elan(params) => self.build_elan(params, cfg, &members),
        };
        Sim {
            cluster,
            cfg: cfg.clone(),
            members,
            traffic: self.traffic.is_some(),
        }
    }

    fn validate(&self, cfg: &RunCfg) {
        let elan = matches!(self.substrate, Substrate::Elan(_));
        let on = self.substrate.label();
        let b = self.barrier;
        match b {
            Barrier::Nic(_) => {}
            Barrier::Host(_) => assert!(!elan, "{b:?} barrier does not run on {on}"),
            _ => assert!(elan, "{b:?} barrier does not run on {on}"),
        }
        assert!(
            self.traffic.is_none() || matches!(b, Barrier::Nic(_) | Barrier::Host(_)),
            "{b:?} barrier does not run under traffic"
        );
        assert!(
            !(elan && cfg.drop_prob > 0.0),
            "QsNet is hardware-reliable: elan takes no RunCfg::drop_prob, got {}",
            cfg.drop_prob
        );
        assert!(self.groups >= 1, "a scenario needs at least one group");
        assert!(
            self.groups == 1 || (matches!(b, Barrier::Nic(_)) && self.traffic.is_some()),
            "{} groups need the NIC barrier under traffic, got {b:?} with traffic {:?}",
            self.groups,
            self.traffic
        );
        assert!(
            !(matches!(b, Barrier::Hardware) && cfg.permute),
            "Hardware barrier needs the identity placement, got RunCfg::permute"
        );
        assert!(
            !(matches!(b, Barrier::ThreadBarrier | Barrier::ThreadAllreduce(..))
                && cfg.skew_us > 0.0),
            "{b:?} takes no compute skew, got RunCfg::skew_us = {}",
            cfg.skew_us
        );
    }

    fn build_gm(
        &self,
        params: &GmParams,
        features: CollFeatures,
        cfg: &RunCfg,
        members: &Arc<[NodeId]>,
    ) -> Cluster {
        let (total, skew) = (cfg.total(), cfg.skew_us);
        let spec = GmClusterSpec::new(params.clone(), self.n)
            .with_seed(cfg.seed)
            .with_drop_prob(cfg.drop_prob)
            .with_features(features)
            .with_shards(cfg.shards);
        match (self.barrier, self.traffic) {
            (Barrier::Nic(algo), traffic) => {
                let timeout = params.coll_timeout;
                let gids = self.group_ids();
                let colls = by_node(members, |rank, node| {
                    let groups = gids
                        .iter()
                        .map(|&g| GroupSpec::barrier(g, members.clone(), rank, algo, timeout))
                        .collect();
                    Box::new(PaperCollective::new(node, groups)) as Box<dyn NicCollective>
                });
                let apps = by_node(members, |rank, _| {
                    let stream = traffic.map(|t| GmStream::new(t, members, rank));
                    let app = NicBarrierApp::on_groups(gids.clone(), stream, total, skew);
                    Box::new(app) as Box<dyn GmApp>
                });
                let cluster = GmCluster::build(spec, apps, colls);
                Cluster::Gm(cluster, |c, i| &c.app_ref::<NicBarrierApp>(i).log)
            }
            (Barrier::Host(algo), traffic) => {
                let apps = by_node(members, |rank, _| {
                    let stream = traffic.map(|t| GmStream::new(t, members, rank));
                    let app = HostBarrierApp::new(algo, members.clone(), rank, total, skew, stream);
                    Box::new(app) as Box<dyn GmApp>
                });
                let cluster = GmCluster::build_p2p(spec, apps);
                Cluster::Gm(cluster, |c, i| &c.app_ref::<HostBarrierApp>(i).log)
            }
            (b, _) => unreachable!("validate rejects {b:?} on gm"),
        }
    }

    fn build_elan(&self, params: &ElanParams, cfg: &RunCfg, members: &Arc<[NodeId]>) -> Cluster {
        let (n, total, skew) = (self.n, cfg.total(), cfg.skew_us);
        let spec = ElanClusterSpec::new(params.clone(), n)
            .with_seed(cfg.seed)
            .with_shards(cfg.shards);
        let no_programs = || vec![NicProgram::default(); n];
        match (self.barrier, self.traffic) {
            (Barrier::Nic(algo), None) => {
                let chains = build_chains(algo, members);
                let apps = by_node(members, |_, _| {
                    Box::new(ElanNicBarrierApp::new(total, skew)) as Box<dyn ElanApp>
                });
                let programs = by_node(members, |rank, _| chains[rank].clone());
                let cluster = ElanCluster::build(spec, apps, programs);
                Cluster::Elan(cluster, |c, i| &c.app_ref::<ElanNicBarrierApp>(i).log)
            }
            (Barrier::Nic(algo), Some(traffic)) => {
                let chains: Vec<GroupChain> = self
                    .group_ids()
                    .iter()
                    .map(|g| GroupChain {
                        group: u64::from(g.0),
                        algo,
                        members: members.to_vec(),
                    })
                    .collect();
                let multi = build_chains_multi(n, &chains);
                let apps = by_node(members, |rank, node| {
                    let entries = multi.entry[node.0]
                        .iter()
                        .map(|(&g, &ev)| (g, ev))
                        .collect();
                    let stream = ElanStream::new(traffic, members, rank);
                    let app = ElanNicBarrierApp::on_groups(entries, Some(stream), total, skew);
                    Box::new(app) as Box<dyn ElanApp>
                });
                let cluster = ElanCluster::build(spec, apps, multi.programs);
                Cluster::Elan(cluster, |c, i| &c.app_ref::<ElanNicBarrierApp>(i).log)
            }
            (Barrier::Gsync(degree), _) => {
                let apps = by_node(members, |rank, _| {
                    let app = ElanGsyncApp::new(rank, members.clone(), degree, total, skew);
                    Box::new(app) as Box<dyn ElanApp>
                });
                let cluster = ElanCluster::build(spec, apps, no_programs());
                Cluster::Elan(cluster, |c, i| &c.app_ref::<ElanGsyncApp>(i).log)
            }
            (Barrier::Hardware, _) => {
                let apps = (0..n)
                    .map(|_| Box::new(ElanHwBarrierApp::new(total, skew)) as Box<dyn ElanApp>)
                    .collect();
                let cluster = ElanCluster::build(spec.with_hw_barrier(), apps, no_programs());
                Cluster::Elan(cluster, |c, i| &c.app_ref::<ElanHwBarrierApp>(i).log)
            }
            (Barrier::ThreadBarrier, _) => {
                thread_cluster(spec, members, total, GroupOp::Barrier, |_, _| 0)
            }
            (Barrier::ThreadAllreduce(op, contribution), _) => thread_cluster(
                spec,
                members,
                total,
                GroupOp::Allreduce { op },
                contribution,
            ),
            (b, _) => unreachable!("validate rejects {b:?} on elan"),
        }
    }
}

/// An Elan cluster whose NICs run `op` on the thread processor, rank `r`
/// contributing `contribution(r, epoch)`.
fn thread_cluster(
    spec: ElanClusterSpec,
    members: &Arc<[NodeId]>,
    total: u64,
    op: GroupOp,
    contribution: fn(usize, u64) -> u64,
) -> Cluster {
    let apps = by_node(members, |rank, _| {
        let contributions = (0..total).map(|e| contribution(rank, e)).collect();
        Box::new(ElanThreadApp::new(contributions)) as Box<dyn ElanApp>
    });
    let n = members.len();
    let mut cluster = ElanCluster::build(spec, apps, vec![NicProgram::default(); n]);
    // Install the thread handlers on each NIC (user-level thread creation).
    for (rank, &node) in members.iter().enumerate() {
        cluster
            .engine
            .component_mut::<ElanNic>(cluster.nics[node.0])
            .expect("nic component")
            .install_thread(Box::new(ThreadCollective::new(
                members.clone(),
                rank,
                op,
                total,
            )));
    }
    Cluster::Elan(cluster, |c, i| &c.app_ref::<ElanThreadApp>(i).log)
}

impl Substrate {
    /// Exporter label: "gm" or "elan".
    pub fn label(&self) -> &'static str {
        match self {
            Substrate::Gm(..) => "gm",
            Substrate::Elan(_) => "elan",
        }
    }
}

/// One value per node from a per-rank constructor: rank `r` runs on node
/// `members[r]`.
fn by_node<T>(members: &[NodeId], mut make: impl FnMut(usize, NodeId) -> T) -> Vec<T> {
    let mut slots: Vec<Option<T>> = members.iter().map(|_| None).collect();
    for (rank, &node) in members.iter().enumerate() {
        slots[node.0] = Some(make(rank, node));
    }
    slots
        .into_iter()
        .map(|s| s.expect("members are a permutation of the nodes"))
        .collect()
}

/// A built [`Scenario`], ready to drain.
pub struct Sim {
    cluster: Cluster,
    cfg: RunCfg,
    /// Rank → node placement.
    members: Arc<[NodeId]>,
    /// Bulk traffic runs: drain until the logs fill, not until idle.
    traffic: bool,
}

impl Sim {
    /// Run every rank through `cfg.total()` barriers. A closed loop runs
    /// until the engine idles. Bulk traffic never idles, so such a run
    /// advances in 1 ms windows until every rank's log is full; the two
    /// rules leave different counters behind. Panics on a hang.
    pub fn drain(&mut self) {
        if !self.traffic {
            let deadline = self.cfg.deadline();
            let outcome = match &mut self.cluster {
                Cluster::Gm(c, _) => c.run_until(deadline),
                Cluster::Elan(c, _) => c.run_until(deadline),
            };
            assert_eq!(outcome, RunOutcome::Idle, "run did not drain by {deadline}");
            return;
        }
        let total = usize::try_from(self.cfg.total()).expect("iteration count exceeds usize");
        let deadline = SimTime::from_us(self.cfg.total() as f64 * 50_000.0 + 1_000_000.0);
        while (0..self.members.len()).any(|i| self.log(i).completions.len() < total) {
            let (outcome, now) = engine!(&mut self.cluster, e => {
                let outcome = e.run_bounded(e.now() + SimTime::from_us(1_000.0), 50_000_000);
                (outcome, e.now())
            });
            assert_ne!(
                outcome,
                RunOutcome::BudgetExhausted,
                "event budget exhausted in traffic run"
            );
            assert!(
                now < deadline,
                "barriers did not complete under traffic by {deadline}"
            );
        }
    }

    fn log(&self, node: usize) -> &BarrierLog {
        match &self.cluster {
            Cluster::Gm(c, log) => log(c, node),
            Cluster::Elan(c, log) => log(c, node),
        }
    }

    /// The statistics of a drained run.
    pub fn stats(&self) -> BarrierStats {
        let counters = engine!(&self.cluster, e => e
            .counters()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect());
        let n = self.members.len();
        let logs = (0..n)
            .map(|node| self.log(node).completions.as_slice())
            .collect();
        stats_from_logs(n, &self.cfg, logs, counters)
    }

    /// Each rank's per-epoch results off its NIC thread, in rank order
    /// (zeros for the thread barrier). Panics unless the scenario runs a
    /// NIC-thread collective.
    pub fn thread_results(&mut self) -> Vec<Vec<u64>> {
        let Cluster::Elan(cluster, _) = &mut self.cluster else {
            panic!("thread results need an Elan NIC-thread scenario");
        };
        self.members
            .iter()
            .map(|&node| {
                cluster
                    .engine
                    .component_mut::<ElanNic>(cluster.nics[node.0])
                    .expect("nic component")
                    .thread_mut()
                    .as_any_mut()
                    .downcast_mut::<ThreadCollective>()
                    .expect("the scenario runs a NIC-thread collective")
                    .results()
                    .to_vec()
            })
            .collect()
    }

    /// Events the engine has processed.
    pub fn events_processed(&self) -> u64 {
        engine!(&self.cluster, e => e.events_processed())
    }

    /// Arm the engine self-profiler before draining.
    pub fn enable_prof(&mut self) {
        engine!(&mut self.cluster, e => e.enable_prof())
    }

    /// The profiler's snapshot (`None` on the sequential engine).
    pub fn prof_snapshot(&self) -> Option<EngineProf> {
        engine!(&self.cluster, e => e.prof_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(permute: bool) -> RunCfg {
        RunCfg {
            warmup: 2,
            iters: 6,
            permute,
            ..RunCfg::default()
        }
    }

    #[test]
    #[should_panic(expected = "Host(Dissemination) barrier does not run on elan")]
    fn host_barrier_on_elan_is_rejected() {
        let host = Barrier::Host(Algorithm::Dissemination);
        Scenario::elan(ElanParams::elan3(), 4, host).build(&quick(false));
    }

    #[test]
    #[should_panic(expected = "Hardware barrier does not run on gm")]
    fn hardware_barrier_on_gm_is_rejected() {
        Scenario::gm(GmParams::lanai_xp(), 4, Barrier::Hardware).build(&quick(false));
    }

    #[test]
    #[should_panic(
        expected = "QsNet is hardware-reliable: elan takes no RunCfg::drop_prob, got 0.5"
    )]
    fn loss_injection_on_elan_is_rejected() {
        let lossy = RunCfg {
            drop_prob: 0.5,
            ..quick(false)
        };
        let nic = Barrier::Nic(Algorithm::Dissemination);
        Scenario::elan(ElanParams::elan3(), 4, nic).build(&lossy);
    }

    #[test]
    fn a_wider_crossbar_makes_a_faster_barrier() {
        assert_eq!(GmParams::lanai_xp().crossbar_radix, 16);
        let nic = Barrier::Nic(Algorithm::Dissemination);
        let latency = |crossbar_radix| {
            let params = GmParams {
                crossbar_radix,
                ..GmParams::lanai_xp()
            };
            Scenario::gm(params, 64, nic).run(&quick(false)).mean_us
        };
        let (narrow, default, wide) = (latency(8), latency(16), latency(64));
        assert!(
            narrow > default && default > wide,
            "radix 8/16/64: {narrow} / {default} / {wide} µs"
        );
    }

    #[test]
    fn host_barrier_under_traffic_runs_permuted_and_skewed() {
        let host = Scenario::gm(
            GmParams::lanai_xp(),
            8,
            Barrier::Host(Algorithm::Dissemination),
        )
        .with_traffic(TrafficCfg::default());
        for skew_us in [0.0, 3.0] {
            for seed in 0..20 {
                let cfg = RunCfg {
                    seed,
                    skew_us,
                    ..quick(true)
                };
                let stats = host.run(&cfg);
                assert!(stats.mean_us > 0.0, "seed {seed}, skew {skew_us} µs");
            }
        }
        let cfg = RunCfg {
            seed: 3,
            skew_us: 3.0,
            ..quick(true)
        };
        let one = host.capture(&cfg);
        let two = host.capture(&RunCfg { shards: 2, ..cfg });
        assert_eq!(one.divergence(&two), None);
    }

    #[test]
    fn host_barrier_footprint_follows_the_peers_contacted() {
        const N: usize = 256;
        let host = Barrier::Host(Algorithm::Dissemination);
        let mut sim = Scenario::gm(GmParams::lanai_xp(), N, host).build(&quick(true));
        sim.drain();
        let Cluster::Gm(cluster, _) = &sim.cluster else {
            panic!("a gm scenario builds a gm cluster");
        };
        // Each rank sends to ⌈log₂N⌉ peers and hears from as many.
        let bound = 2 * crate::schedule::ceil_log2(N);
        for node in 0..N {
            let nic = cluster
                .engine
                .component_ref::<nicbar_gm::LanaiNic>(cluster.nics[node])
                .expect("nic component");
            assert!(
                (1..=bound).contains(&nic.p2p_peers()),
                "NIC {node} holds state for {} peers, bound {bound}",
                nic.p2p_peers()
            );
        }
        // Every rank's engine holds a clone of the run's one member list,
        // not a copy of it.
        assert!(Arc::strong_count(&sim.members) > N);
    }

    #[test]
    fn traffic_runs_place_ranks_on_a_permutation() {
        let nic = Barrier::Nic(Algorithm::Dissemination);
        for scenario in [
            Scenario::gm(GmParams::lanai_xp(), 6, nic),
            Scenario::elan(ElanParams::elan3(), 6, nic),
        ] {
            let contend = scenario.with_groups(2).with_traffic(TrafficCfg::default());
            let mut sim = contend.build(&quick(true));
            assert_ne!(sim.members[..], quick(false).members(6)[..]);
            sim.drain();
            assert!(sim.stats().mean_us > 0.0);
        }
    }
}
