//! Multiple collective groups sharing NICs concurrently — the protocol
//! must keep per-group state (queues, bit vectors, epochs) fully isolated.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code

use nicbar_core::host_app::BarrierLog;
use nicbar_core::{Algorithm, GroupSpec, PaperCollective};
use nicbar_gm::{GmApi, GmApp, GmCluster, GmClusterSpec, GmParams, GroupId, MsgTag, NicCollective};
use nicbar_net::NodeId;
use nicbar_sim::{RunOutcome, SimTime};

const GLOBAL: GroupId = GroupId(1);
const EVENS: GroupId = GroupId(2);

/// Runs `iters` barriers on every group it belongs to, independently and
/// concurrently (a new barrier on a group starts as soon as the previous
/// one on *that group* completes).
struct MultiGroupApp {
    groups: Vec<GroupId>,
    iters: u64,
    done: Vec<u64>,
    logs: Vec<BarrierLog>,
}

impl MultiGroupApp {
    fn new(groups: Vec<GroupId>, iters: u64) -> Self {
        let k = groups.len();
        MultiGroupApp {
            groups,
            iters,
            done: vec![0; k],
            logs: vec![BarrierLog::new(iters, 0.0); k],
        }
    }
}

impl GmApp for MultiGroupApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        for &g in &self.groups {
            api.collective(g, 0);
        }
    }
    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, _tag: MsgTag, _len: u32) {
        panic!("unexpected p2p message");
    }
    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, epoch: u64, _value: u64) {
        let idx = self
            .groups
            .iter()
            .position(|&g| g == group)
            .expect("completion for unknown group");
        assert_eq!(epoch, self.done[idx], "per-group epochs must be ordered");
        self.done[idx] += 1;
        self.logs[idx].completions.push(api.now());
        if self.done[idx] < self.iters {
            api.collective(group, 0);
        }
    }
}

#[test]
fn overlapping_groups_interleave_without_crosstalk() {
    let n = 8;
    let iters = 100;
    let all: Vec<NodeId> = (0..n).map(NodeId).collect();
    let evens: Vec<NodeId> = (0..n).step_by(2).map(NodeId).collect();

    let spec = GmClusterSpec::new(GmParams::lanai_xp(), n).with_seed(77);
    let mut apps: Vec<Box<dyn GmApp>> = Vec::new();
    let mut colls: Vec<Box<dyn NicCollective>> = Vec::new();
    for node in 0..n {
        let mut groups = vec![GLOBAL];
        let mut specs = vec![GroupSpec::barrier(
            GLOBAL,
            all.clone(),
            node,
            Algorithm::Dissemination,
            SimTime::from_us(400.0),
        )];
        if node % 2 == 0 {
            groups.push(EVENS);
            specs.push(GroupSpec::barrier(
                EVENS,
                evens.clone(),
                node / 2,
                Algorithm::PairwiseExchange,
                SimTime::from_us(400.0),
            ));
        }
        apps.push(Box::new(MultiGroupApp::new(groups, iters)));
        colls.push(Box::new(PaperCollective::new(NodeId(node), specs)));
    }
    let mut cluster = GmCluster::build(spec, apps, colls);
    let outcome = cluster.run_until(SimTime::from_us(10_000_000.0));
    assert_eq!(outcome, RunOutcome::Idle);

    // Every member completed every barrier on every group it belongs to.
    for node in 0..n {
        let app = cluster.app_ref::<MultiGroupApp>(node);
        for (i, &d) in app.done.iter().enumerate() {
            assert_eq!(d, iters, "node {node}, group index {i}");
        }
    }

    // Barrier safety per group, across the union of logs.
    for (gidx, group_members) in [(0usize, all.clone()), (1, evens.clone())] {
        let logs: Vec<&Vec<SimTime>> = group_members
            .iter()
            .filter_map(|&m| {
                let app = cluster.app_ref::<MultiGroupApp>(m.0);
                app.logs.get(gidx).map(|l| &l.completions)
            })
            .collect();
        let logs: Vec<&Vec<SimTime>> = logs.into_iter().filter(|l| !l.is_empty()).collect();
        for k in 1..iters as usize {
            let min_k = logs.iter().map(|l| l[k]).min().unwrap();
            let max_prev = logs.iter().map(|l| l[k - 1]).max().unwrap();
            assert!(
                min_k >= max_prev,
                "group index {gidx}: safety violated at epoch {k}"
            );
        }
    }

    // The small group, running a shorter schedule, should lap the global
    // group: its 100 barriers finish first.
    let app0 = cluster.app_ref::<MultiGroupApp>(0);
    let evens_finish = app0.logs[1].completions.last().unwrap();
    let global_finish = app0.logs[0].completions.last().unwrap();
    assert!(
        evens_finish < global_finish,
        "4-rank group ({evens_finish}) should outpace the 8-rank group ({global_finish})"
    );
}

#[test]
fn disjoint_groups_run_fully_independently() {
    // Two disjoint 4-rank groups on one 8-node cluster.
    let n = 8;
    let iters = 50;
    let low: Vec<NodeId> = (0..4).map(NodeId).collect();
    let high: Vec<NodeId> = (4..8).map(NodeId).collect();
    let spec = GmClusterSpec::new(GmParams::lanai_xp(), n).with_seed(78);
    let mut apps: Vec<Box<dyn GmApp>> = Vec::new();
    let mut colls: Vec<Box<dyn NicCollective>> = Vec::new();
    for node in 0..n {
        let (gid, members, rank) = if node < 4 {
            (GLOBAL, low.clone(), node)
        } else {
            (EVENS, high.clone(), node - 4)
        };
        apps.push(Box::new(MultiGroupApp::new(vec![gid], iters)));
        colls.push(Box::new(PaperCollective::new(
            NodeId(node),
            vec![GroupSpec::barrier(
                gid,
                members,
                rank,
                Algorithm::Dissemination,
                SimTime::from_us(400.0),
            )],
        )));
    }
    let mut cluster = GmCluster::build(spec, apps, colls);
    assert_eq!(
        cluster.run_until(SimTime::from_us(10_000_000.0)),
        RunOutcome::Idle
    );
    for node in 0..n {
        assert_eq!(cluster.app_ref::<MultiGroupApp>(node).done[0], iters);
    }
    // Two disjoint 4-rank dissemination groups: 2 × 4 × 2 packets per barrier.
    assert_eq!(
        cluster.engine.counters().get("wire.coll"),
        2 * 4 * 2 * iters
    );
}
