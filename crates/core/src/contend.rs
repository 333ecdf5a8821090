//! The contention scenario: M overlapping barrier groups plus background
//! bulk traffic over shared NICs. A [`crate::Scenario`] with several groups
//! and traffic (`with_groups(m).with_traffic(..)`) runs it on either
//! substrate with the ordinary NIC-barrier apps,
//! [`crate::host_app::NicBarrierApp`] and
//! [`crate::elan_apps::ElanNicBarrierApp`], each entering all M groups per
//! epoch beside its bulk stream.
//!
//! The interference experiment (`traffic`) shows *that* background streams
//! slow a barrier down; this scenario exists to show *who* is responsible.
//! Every node is a member of all M collective groups and keeps a bulk
//! stream to the next rank's node in flight, so every contended NIC
//! resource (processor, DMA engine, token queues, event slots, rx ports) is
//! shared by collective, traffic, and fabric owners at once. The run
//! captures the resource-occupancy ledger, and `nicbar_bench`'s
//! critical-path analyzer attributes every wait edge to the specific owner
//! that held the resource — the per-barrier interference breakdown the
//! `contend` binary reports.

/// Base collective group id: contend group `g` is `CONTEND_GROUP_BASE + g`
/// (distinct from the single-group benchmarks' `0xBA`).
pub const CONTEND_GROUP_BASE: u32 = 0xC0;

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
        assert_eq!(flight.trace.dropped(), 0);
        assert!(!flight.trace.ledger().is_empty());
        // Both contend groups and the traffic streams show up as owners.
        let has_group = |g: u64| {
            flight
                .trace
                .ledger()
                .iter()
                .any(|r| r.owner.kind == OwnerKind::Collective && r.owner.group == g)
        };
        assert!(has_group(0xC0));
        assert!(has_group(0xC1));
        assert!(flight
            .trace
            .ledger()
            .iter()
            .any(|r| r.owner.kind == OwnerKind::Traffic));
        // Serial resources produced both holds and waits under contention.
        assert!(flight.trace.ledger().iter().any(|r| r.op == LedgerOp::Hold));
        assert!(flight.trace.ledger().iter().any(|r| r.op == LedgerOp::Wait));
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
        assert_eq!(flight.trace.dropped(), 0);
        assert!(!flight.trace.ledger().is_empty());
        let has_group = |g: u64| {
            flight
                .trace
                .ledger()
                .iter()
                .any(|r| r.owner.kind == OwnerKind::Collective && r.owner.group == g)
        };
        assert!(has_group(0xC0));
        assert!(has_group(0xC1));
        assert!(flight
            .trace
            .ledger()
            .iter()
            .any(|r| r.owner.kind == OwnerKind::Traffic));
        assert!(flight.trace.ledger().iter().any(|r| r.op == LedgerOp::Hold));
        assert!(flight.stats.mean_us > 0.0);
    }
}
