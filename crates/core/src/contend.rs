//! Contention apps: M overlapping barrier groups plus background bulk
//! traffic over shared NICs. A [`crate::Scenario`] with traffic runs them
//! (`with_groups(m).with_traffic(..)`; with one group on GM this is also
//! the interference experiment's NIC barrier under traffic).
//!
//! The interference experiment (`traffic`) shows *that* background streams
//! slow a barrier down; this scenario exists to show *who* is responsible.
//! Every node is a member of all M collective groups and keeps a bulk
//! stream to its ring neighbour in flight, so every contended NIC resource
//! (processor, DMA engine, token queues, event slots, rx ports) is shared
//! by collective, traffic, and fabric owners at once. The run captures the
//! resource-occupancy ledger, and `nicbar_bench`'s critical-path analyzer
//! attributes every wait edge to the specific owner that held the resource
//! — the per-barrier interference breakdown the `contend` binary reports.

use crate::host_app::BarrierLog;
use crate::traffic::TrafficCfg;
use nicbar_elan::{ElanApi, ElanApp, EventId, TportTag, BULK_TPORT_TAG};
use nicbar_gm::{GmApi, GmApp, GroupId, MsgId, MsgTag, BULK_TAG};
use nicbar_net::NodeId;
use nicbar_sim::SimTime;
use std::collections::HashSet;

/// Base collective group id: contend group `g` is `CONTEND_GROUP_BASE + g`
/// (distinct from the single-group benchmarks' `0xBA`).
pub const CONTEND_GROUP_BASE: u32 = 0xC0;

/// GM contend app: a member of every group, entering all of them each
/// epoch, with a saturating bulk stream to the ring neighbour.
pub struct GmContendApp {
    groups: Vec<GroupId>,
    traffic: TrafficCfg,
    bulk_peer: NodeId,
    iters: u64,
    skew_us: f64,
    /// Groups still outstanding in the current epoch.
    pending: usize,
    done: u64,
    bulk_ids: HashSet<MsgId>,
    /// Epoch completion times (an epoch completes when all groups have).
    pub log: BarrierLog,
    /// Bulk messages delivered to this process.
    pub bulk_received: u64,
}

impl GmContendApp {
    /// A member of `groups` at `rank` on a ring of `n`.
    pub fn new(
        groups: Vec<GroupId>,
        rank: usize,
        n: usize,
        iters: u64,
        skew_us: f64,
        traffic: TrafficCfg,
    ) -> Self {
        GmContendApp {
            groups,
            traffic,
            bulk_peer: NodeId((rank + 1) % n),
            iters,
            skew_us,
            pending: 0,
            done: 0,
            bulk_ids: HashSet::new(),
            log: BarrierLog::with_capacity(iters),
            bulk_received: 0,
        }
    }

    /// Epochs completed (all groups done).
    pub fn done(&self) -> u64 {
        self.done
    }

    fn enter(&mut self, api: &mut GmApi<'_>) {
        self.pending = self.groups.len();
        for &g in &self.groups {
            api.collective(g, 0);
        }
    }

    fn send_bulk(&mut self, api: &mut GmApi<'_>) {
        let id = api.send(self.bulk_peer, self.traffic.msg_bytes, BULK_TAG);
        self.bulk_ids.insert(id);
    }
}

impl GmApp for GmContendApp {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        api.post_recv(self.traffic.outstanding + 4);
        for _ in 0..self.traffic.outstanding {
            self.send_bulk(api);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, _api: &mut GmApi<'_>, _src: NodeId, tag: MsgTag, _len: u32) {
        assert_eq!(tag, BULK_TAG, "contend app only expects bulk p2p");
        self.bulk_received += 1;
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        if self.bulk_ids.remove(&msg_id) && self.done < self.iters {
            self.send_bulk(api);
        }
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, _epoch: u64, _value: u64) {
        assert!(self.groups.contains(&group), "completion for foreign group");
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        self.done += 1;
        self.log.completions.push(api.now());
        if self.done < self.iters {
            if self.skew_us > 0.0 {
                let d = api.rng().range_f64(0.0, self.skew_us);
                api.set_timer(SimTime::from_us(d));
            } else {
                self.enter(api);
            }
        }
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        self.enter(api);
    }
}

/// Elan contend app: sets every group's entry event each epoch and keeps a
/// forwarding-ring tport stream alive (each delivered bulk message triggers
/// the next send, so the pipeline depth stays constant until the barriers
/// finish).
pub struct ElanContendApp {
    /// `(group id, entry event)` per group this node belongs to.
    entries: Vec<(u64, EventId)>,
    /// Expected completion cookies (one per group).
    cookies: HashSet<u64>,
    traffic: TrafficCfg,
    bulk_peer: NodeId,
    iters: u64,
    skew_us: f64,
    pending: usize,
    done: u64,
    /// Epoch completion times.
    pub log: BarrierLog,
    /// Bulk messages delivered to this process.
    pub bulk_received: u64,
}

impl ElanContendApp {
    /// A member of the groups in `entries` at `rank` on a ring of `n`.
    pub fn new(
        entries: Vec<(u64, EventId)>,
        cookies: HashSet<u64>,
        rank: usize,
        n: usize,
        iters: u64,
        skew_us: f64,
        traffic: TrafficCfg,
    ) -> Self {
        ElanContendApp {
            entries,
            cookies,
            traffic,
            bulk_peer: NodeId((rank + 1) % n),
            iters,
            skew_us,
            pending: 0,
            done: 0,
            log: BarrierLog::with_capacity(iters),
            bulk_received: 0,
        }
    }

    /// Epochs completed (all groups done).
    pub fn done(&self) -> u64 {
        self.done
    }

    fn enter(&mut self, api: &mut ElanApi<'_>) {
        self.pending = self.entries.len();
        for &(group, ev) in &self.entries {
            api.set_nic_event_for_group(ev, group);
        }
    }
}

impl ElanApp for ElanContendApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        for _ in 0..self.traffic.outstanding {
            api.tport_send(self.bulk_peer, BULK_TPORT_TAG, self.traffic.msg_bytes);
        }
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut ElanApi<'_>, _src: NodeId, tag: TportTag, _len: u32) {
        assert_eq!(tag, BULK_TPORT_TAG, "contend app only expects bulk tports");
        self.bulk_received += 1;
        if self.done < self.iters {
            api.tport_send(self.bulk_peer, BULK_TPORT_TAG, self.traffic.msg_bytes);
        }
    }

    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        assert!(
            self.cookies.contains(&cookie),
            "unexpected cookie {cookie:#x}"
        );
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        self.done += 1;
        self.log.completions.push(api.now());
        if self.done < self.iters {
            if self.skew_us > 0.0 {
                let d = api.rng().range_f64(0.0, self.skew_us);
                api.set_timer(SimTime::from_us(d));
            } else {
                self.enter(api);
            }
        }
    }

    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        self.enter(api);
    }
}

#[cfg(test)]
mod tests {
    use crate::{Algorithm, Barrier, RunCfg, Scenario, TrafficCfg};
    use nicbar_elan::ElanParams;
    use nicbar_gm::GmParams;
    use nicbar_sim::{LedgerOp, OwnerKind};

    fn quick_cfg() -> RunCfg {
        RunCfg {
            warmup: 2,
            iters: 6,
            skew_us: 1.0,
            ..RunCfg::default()
        }
    }

    #[test]
    fn gm_contend_captures_multi_owner_ledger() {
        let flight = Scenario::gm(
            GmParams::lanai_xp(),
            8,
            Barrier::Nic(Algorithm::Dissemination),
        )
        .with_groups(2)
        .with_traffic(TrafficCfg::default())
        .capture(&quick_cfg());
        assert_eq!(flight.ledger_dropped, 0);
        assert!(!flight.ledger.is_empty());
        // Both contend groups and the traffic streams show up as owners.
        let has_group = |g: u64| {
            flight
                .ledger
                .iter()
                .any(|r| r.owner.kind == OwnerKind::Collective && r.owner.group == g)
        };
        assert!(has_group(0xC0));
        assert!(has_group(0xC1));
        assert!(flight
            .ledger
            .iter()
            .any(|r| r.owner.kind == OwnerKind::Traffic));
        // Serial resources produced both holds and waits under contention.
        assert!(flight.ledger.iter().any(|r| r.op == LedgerOp::Hold));
        assert!(flight.ledger.iter().any(|r| r.op == LedgerOp::Wait));
        // The barrier epochs really ran under traffic.
        assert!(flight.stats.mean_us > 0.0);
    }

    #[test]
    fn elan_contend_captures_multi_owner_ledger() {
        let flight = Scenario::elan(
            ElanParams::elan3(),
            8,
            Barrier::Nic(Algorithm::Dissemination),
        )
        .with_groups(2)
        .with_traffic(TrafficCfg::default())
        .capture(&quick_cfg());
        assert_eq!(flight.ledger_dropped, 0);
        assert!(!flight.ledger.is_empty());
        let has_group = |g: u64| {
            flight
                .ledger
                .iter()
                .any(|r| r.owner.kind == OwnerKind::Collective && r.owner.group == g)
        };
        assert!(has_group(0xC0));
        assert!(has_group(0xC1));
        assert!(flight
            .ledger
            .iter()
            .any(|r| r.owner.kind == OwnerKind::Traffic));
        assert!(flight.ledger.iter().any(|r| r.op == LedgerOp::Hold));
        assert!(flight.stats.mean_us > 0.0);
    }
}
