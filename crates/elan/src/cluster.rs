//! Elan cluster assembly.

use crate::events::ElanEvent;
use crate::host::{ElanApp, ElanHost};
use crate::hwbarrier::HwBarrierUnit;
use crate::nic::ElanNic;
use crate::params::ElanParams;
use crate::types::{NicEvent, RdmaDesc};
use nicbar_net::{NodeId, QuaternaryFatTree, WireModel, WireRx};
use nicbar_sim::{
    ComponentId, Engine, EngineSel, ExecEngine, ParallelEngine, PartitionSel, RunOutcome, SimTime,
};
use std::sync::Arc;

/// Static description of an Elan cluster simulation.
#[derive(Clone, Debug)]
pub struct ElanClusterSpec {
    /// Timing parameters.
    pub params: ElanParams,
    /// Number of nodes.
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Install the switch-level hardware barrier unit over all nodes.
    pub hw_barrier: bool,
    /// Which engine flavour to build ([`EngineSel::Auto`]: parallel iff
    /// `shards > 1`). The hardware barrier unit is a single component with
    /// sub-lookahead links to every NIC, so `hw_barrier` clusters always
    /// build sequential regardless of this selection.
    pub engine: EngineSel,
    /// Worker shards for the parallel engine (clamped to `[1, n]`).
    pub shards: usize,
    /// Component-to-shard partition strategy for the parallel engine.
    pub partition: PartitionSel,
}

impl ElanClusterSpec {
    /// An `n`-node cluster with defaults.
    pub fn new(params: ElanParams, n: usize) -> Self {
        ElanClusterSpec {
            params,
            n,
            seed: 0xE1A3,
            hw_barrier: false,
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

    /// Enable the hardware barrier unit.
    pub fn with_hw_barrier(mut self) -> Self {
        self.hw_barrier = true;
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

/// Per-node NIC programming: the descriptor and event tables armed from
/// user level before the run (empty for hosts that only use tports or the
/// hardware barrier).
#[derive(Clone, Debug, Default)]
pub struct NicProgram {
    /// RDMA descriptors.
    pub descs: Vec<RdmaDesc>,
    /// NIC events.
    pub events: Vec<NicEvent>,
    /// Occupancy-ledger owner group per descriptor (parallel to `descs`;
    /// empty = default single-group attribution).
    pub desc_groups: Vec<u64>,
    /// Owner group per event (parallel to `events`; empty = default).
    pub event_groups: Vec<u64>,
    /// Completion-cookie → group registrations applied to this node's host
    /// (multi-group chains deliver distinct cookies per group).
    pub cookie_groups: Vec<(u64, u64)>,
}

/// A built Elan cluster.
pub struct ElanCluster {
    /// The discrete-event engine (sequential or parallel).
    pub engine: ExecEngine<ElanEvent>,
    /// Host components by node index.
    pub hosts: Vec<ComponentId>,
    /// NIC components by node index.
    pub nics: Vec<ComponentId>,
    /// The hardware barrier unit, when enabled.
    pub hw_unit: Option<ComponentId>,
    /// Number of nodes.
    pub n: usize,
}

impl ElanCluster {
    /// Assemble a cluster: `apps[i]` runs on node `i` with NIC programming
    /// `programs[i]`. Every host gets `AppStart` at t = 0.
    pub fn build(
        spec: ElanClusterSpec,
        apps: Vec<Box<dyn ElanApp>>,
        programs: Vec<NicProgram>,
    ) -> Self {
        assert_eq!(apps.len(), spec.n);
        assert_eq!(programs.len(), spec.n);
        let mut engine: Engine<ElanEvent> = Engine::new(spec.seed);
        let host_ids: Vec<ComponentId> = (0..spec.n).map(|_| engine.reserve_id()).collect();
        let nic_ids: Vec<ComponentId> = (0..spec.n).map(|_| engine.reserve_id()).collect();
        let hw_id = if spec.hw_barrier {
            Some(engine.reserve_id())
        } else {
            None
        };

        let topology = QuaternaryFatTree::new(spec.n);
        if let Some(hw) = hw_id {
            let group: Vec<NodeId> = (0..spec.n).map(NodeId).collect();
            engine.install(
                hw,
                HwBarrierUnit::new(group, nic_ids.clone(), &topology, spec.params.clone()),
            );
        }
        let model = Arc::new(WireModel::new(
            Box::new(topology),
            spec.params.link,
            spec.params.hotspot_ns,
        ));

        let mut apps = apps;
        let mut programs = programs;
        for i in (0..spec.n).rev() {
            let app = apps.pop().expect("length checked");
            let prog = programs.pop().expect("length checked");
            let mut nic = ElanNic::new(
                NodeId(i),
                spec.params.clone(),
                WireRx::new(Arc::clone(&model)),
                nic_ids[0],
                host_ids[i],
                hw_id,
                prog.descs,
                prog.events,
            );
            if !prog.desc_groups.is_empty() || !prog.event_groups.is_empty() {
                nic.set_owner_groups(prog.desc_groups, prog.event_groups);
            }
            engine.install(nic_ids[i], nic);
            let mut elan_host =
                ElanHost::new(NodeId(i), spec.n, nic_ids[i], spec.params.clone(), app);
            for (cookie, group) in prog.cookie_groups {
                elan_host.register_cookie_group(cookie, group);
            }
            engine.install(host_ids[i], elan_host);
        }
        for &h in &host_ids {
            engine.schedule_at(SimTime::ZERO, h, ElanEvent::AppStart);
        }

        // Layout is [hosts 0..n][NICs n..2n]; a component's node is its id
        // mod n. The hardware barrier unit has no node and exchanges
        // sub-lookahead messages with every NIC, so its presence forces the
        // sequential engine.
        let (parallel, shards) = spec.engine.resolve(spec.shards.min(spec.n));
        let engine = if parallel && hw_id.is_none() {
            let map = spec
                .partition
                .map(2 * spec.n, spec.n, shards, |c| c % spec.n);
            let latency = model.lookahead_for(&map, spec.n);
            ExecEngine::Par(ParallelEngine::with_latency(engine, map, latency))
        } else {
            ExecEngine::Seq(engine)
        };

        ElanCluster {
            engine,
            hosts: host_ids,
            nics: nic_ids,
            hw_unit: hw_id,
            n: spec.n,
        }
    }

    /// Run with an event-budget backstop.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let outcome = self.engine.run_bounded(deadline, 2_000_000_000);
        assert_ne!(
            outcome,
            RunOutcome::BudgetExhausted,
            "event budget exhausted — runaway chain?"
        );
        outcome
    }

    /// Downcast host `i`'s application.
    pub fn app_ref<T: 'static>(&self, i: usize) -> &T {
        self.engine
            .component_ref::<ElanHost>(self.hosts[i])
            .expect("host component")
            .app_ref::<T>()
            .expect("app type mismatch")
    }

    /// Mutable downcast of host `i`'s application.
    pub fn app_mut<T: 'static>(&mut self, i: usize) -> &mut T {
        self.engine
            .component_mut::<ElanHost>(self.hosts[i])
            .expect("host component")
            .app_mut::<T>()
            .expect("app type mismatch")
    }
}
