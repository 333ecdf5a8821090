//! Cluster assembly: wire hosts and NICs into one engine (sequential or
//! rank-sharded parallel — the wire model has no central component, so the
//! choice is free).

use crate::collective::{NicCollective, NullCollective};
use crate::events::GmEvent;
use crate::host::{GmApp, GmHost};
use crate::nic::LanaiNic;
use crate::params::{CollFeatures, GmParams};
use nicbar_net::{NodeId, WireModel, WireRx, WormholeClos};
use nicbar_sim::{
    ComponentId, Engine, EngineSel, ExecEngine, LatencyMatrix, ParallelEngine, PartitionSel,
    RunOutcome, SimTime,
};
use std::sync::Arc;

/// Static description of a GM cluster simulation.
#[derive(Clone, Debug)]
pub struct GmClusterSpec {
    /// Timing/sizing parameter set (see [`GmParams`] presets).
    pub params: GmParams,
    /// Collective-protocol feature toggles (ablation).
    pub features: CollFeatures,
    /// Number of nodes.
    pub n: usize,
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Wire loss-injection probability.
    pub drop_prob: f64,
    /// Receive buffers pre-posted per NIC at startup.
    pub initial_recv_tokens: u32,
    /// Which engine flavour to build ([`EngineSel::Auto`]: parallel iff
    /// `shards > 1`).
    pub engine: EngineSel,
    /// Worker shards for the parallel engine (clamped to `[1, n]`).
    pub shards: usize,
    /// Component-to-shard partition strategy for the parallel engine.
    pub partition: PartitionSel,
}

impl GmClusterSpec {
    /// A cluster of `n` nodes with the given parameter preset and defaults
    /// elsewhere.
    pub fn new(params: GmParams, n: usize) -> Self {
        GmClusterSpec {
            params,
            features: CollFeatures::paper(),
            n,
            seed: 0xC0FFEE,
            drop_prob: 0.0,
            initial_recv_tokens: 64,
            engine: EngineSel::Auto,
            shards: 1,
            partition: PartitionSel::Contiguous,
        }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable loss injection.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Replace the collective feature set.
    pub fn with_features(mut self, features: CollFeatures) -> Self {
        self.features = features;
        self
    }

    /// Select the engine flavour.
    pub fn with_engine(mut self, engine: EngineSel) -> Self {
        self.engine = engine;
        self
    }

    /// Request `shards` parallel worker shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Select the component-to-shard partition strategy.
    pub fn with_partition(mut self, partition: PartitionSel) -> Self {
        self.partition = partition;
        self
    }
}

/// A built GM cluster: the engine plus the component directory.
pub struct GmCluster {
    /// The discrete-event engine (sequential or parallel); run it with
    /// [`GmCluster::run_until`] or directly.
    pub engine: ExecEngine<GmEvent>,
    /// Host components by node index.
    pub hosts: Vec<ComponentId>,
    /// NIC components by node index.
    pub nics: Vec<ComponentId>,
    /// Number of nodes.
    pub n: usize,
}

impl GmCluster {
    /// Assemble a cluster. `apps[i]` runs on node `i`; `colls[i]` is node
    /// `i`'s NIC-resident collective engine (use [`NullCollective`] boxes
    /// when the run is point-to-point only). `AppStart` is scheduled for
    /// every host at t = 0.
    pub fn build(
        spec: GmClusterSpec,
        apps: Vec<Box<dyn GmApp>>,
        colls: Vec<Box<dyn NicCollective>>,
    ) -> Self {
        assert_eq!(apps.len(), spec.n, "one app per node");
        assert_eq!(colls.len(), spec.n, "one collective engine per node");
        let mut engine: Engine<GmEvent> = Engine::new(spec.seed);

        let host_ids: Vec<ComponentId> = (0..spec.n).map(|_| engine.reserve_id()).collect();
        let nic_ids: Vec<ComponentId> = (0..spec.n).map(|_| engine.reserve_id()).collect();

        let model = Arc::new(
            WireModel::new(
                Box::new(WormholeClos::myrinet2000(spec.n)),
                spec.params.link,
                spec.params.hotspot_ns,
            )
            .with_drop_prob(spec.drop_prob),
        );

        let mut colls = colls;
        let mut apps = apps;
        // Install back-to-front so `pop` hands out the right boxes.
        for i in (0..spec.n).rev() {
            let coll = colls.pop().expect("length checked");
            let app = apps.pop().expect("length checked");
            engine.install(
                nic_ids[i],
                LanaiNic::new(
                    NodeId(i),
                    spec.n,
                    spec.params.clone(),
                    spec.features,
                    WireRx::new(Arc::clone(&model)),
                    nic_ids[0],
                    host_ids[i],
                    coll,
                    spec.initial_recv_tokens,
                ),
            );
            engine.install(
                host_ids[i],
                GmHost::new(NodeId(i), spec.n, nic_ids[i], spec.params.clone(), app),
            );
        }
        for &h in &host_ids {
            engine.schedule_at(SimTime::ZERO, h, GmEvent::AppStart);
        }

        // Layout is [hosts 0..n][NICs n..2n], so a component's node is its
        // id mod n. Host↔NIC traffic is zero-lookahead and must co-locate;
        // only the wire crossing (≥ min_latency) goes cross-shard. Shard
        // requests beyond the node count clamp to it — the excess shards
        // would sit empty yet still pay every window barrier.
        let (parallel, shards) = spec.engine.resolve(spec.shards.min(spec.n));
        let engine = if parallel {
            let map = spec
                .partition
                .map(2 * spec.n, spec.n, shards, |c| c % spec.n);
            let latency = model.lookahead_for(&map, spec.n);
            ExecEngine::Par(ParallelEngine::with_latency(engine, map, latency))
        } else {
            ExecEngine::Seq(engine)
        };

        GmCluster {
            engine,
            hosts: host_ids,
            nics: nic_ids,
            n: spec.n,
        }
    }

    /// Convenience constructor for clusters with no collective engines.
    pub fn build_p2p(spec: GmClusterSpec, apps: Vec<Box<dyn GmApp>>) -> Self {
        let n = spec.n;
        let colls: Vec<Box<dyn NicCollective>> = (0..n)
            .map(|_| Box::new(NullCollective) as Box<dyn NicCollective>)
            .collect();
        Self::build(spec, apps, colls)
    }

    /// Run until `deadline` with an event-budget backstop; panics on budget
    /// exhaustion (always a protocol bug, e.g. a retransmission storm).
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let outcome = self.engine.run_bounded(deadline, 2_000_000_000);
        assert_ne!(
            outcome,
            RunOutcome::BudgetExhausted,
            "event budget exhausted — runaway protocol loop?"
        );
        outcome
    }

    /// Swap every NIC onto a different wire model (topology ablations).
    /// On the parallel engine the shard windows' lookahead bounds are
    /// rebuilt from the replacement's global minimum latency: the old
    /// per-pair bounds may be unsound for the new topology, so exactness
    /// is dropped and correctness kept.
    pub fn set_wire_model(&mut self, model: Arc<WireModel>) {
        if let ExecEngine::Par(par) = &mut self.engine {
            par.set_latency(LatencyMatrix::uniform(par.shards(), model.min_latency()));
        }
        for &nic in &self.nics {
            self.engine
                .component_mut::<LanaiNic>(nic)
                .expect("NIC component")
                .set_wire_model(Arc::clone(&model));
        }
    }

    /// Downcast host `i`'s application.
    pub fn app_ref<T: 'static>(&self, i: usize) -> &T {
        self.engine
            .component_ref::<GmHost>(self.hosts[i])
            .expect("host component")
            .app_ref::<T>()
            .expect("app type mismatch")
    }

    /// Mutable downcast of host `i`'s application.
    pub fn app_mut<T: 'static>(&mut self, i: usize) -> &mut T {
        self.engine
            .component_mut::<GmHost>(self.hosts[i])
            .expect("host component")
            .app_mut::<T>()
            .expect("app type mismatch")
    }
}
