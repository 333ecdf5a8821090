//! Lowering a barrier schedule onto Quadrics chained RDMA descriptors (§7
//! of the paper).
//!
//! The paper's Quadrics implementation avoids a NIC thread entirely: it
//! arms "a list of chained RDMA descriptors at the NIC from user-level.
//! The RDMA operations are triggered only upon the arrival of a remote
//! event except the very first RDMA operation, which the host process
//! triggers to initiate a barrier operation. The completion of the very
//! last RDMA operation will trigger a local event to the host."
//!
//! [`build_chains`] compiles any round-schedule (dissemination,
//! pairwise-exchange, gather-broadcast — power-of-two or not) into exactly
//! that structure:
//!
//! * one **gate event** per send round, whose per-epoch threshold is
//!   `1 × (previous link issued or host entry) + (arrivals consumed by this
//!   gate)`;
//! * one **RDMA descriptor** per `(round, destination)` whose remote event
//!   is the *destination's* gate that consumes that round, and whose local
//!   event is this rank's next gate;
//! * a **done event** that notifies the host.
//!
//! The builder writes these straight into each NIC's tables
//! ([`NicProgram`]): one record per descriptor, one per event, and the
//! events' actions in one flat array, which the NIC takes over as they are.
//!
//! Event counters auto-rearm by their per-epoch threshold, so consecutive
//! barriers need only one host `set_event` each — early arrivals from
//! neighbours racing an epoch ahead are banked in the counters (see
//! `nicbar_elan::types::NicEvent`).

use crate::schedule::{schedules_for, validate, Algorithm, Schedule};
use nicbar_elan::host::ELAN_SPAN_GROUP;
use nicbar_elan::{DescId, EventAction, EventId, NicProgram, RdmaDesc};
use nicbar_net::NodeId;

/// Completion cookie delivered for chained-RDMA barrier completions.
pub const CHAIN_DONE_COOKIE: u64 = 0xBA44;

/// Completion cookie for group index `gi` of a multi-group program (group
/// 0 keeps the classic [`CHAIN_DONE_COOKIE`], so single-group callers are
/// unaffected).
pub fn chain_done_cookie(gi: u64) -> u64 {
    (gi << 32) | CHAIN_DONE_COOKIE
}

/// The entry event every rank's host sets to enter a barrier. The builder
/// always places the first gate (or the done event, for trivial schedules)
/// at index 0.
pub const ENTRY_EVENT: EventId = EventId(0);

/// Checked index → u32 conversion for event/descriptor IDs. Chain programs
/// have at most a few events per rank; overflow means a corrupt schedule.
fn event_idx(i: usize) -> u32 {
    u32::try_from(i).expect("event index exceeds u32")
}

/// Rounds in which a rank sends, ascending.
fn send_rounds(s: &Schedule) -> Vec<usize> {
    (0..s.num_rounds())
        .filter(|&r| !s.rounds[r].sends.is_empty())
        .collect()
}

/// The event index at `dst` that consumes an arrival of round `r`:
/// the gate of its first send round `> r`, or its done event.
fn consuming_event(dst_schedule: &Schedule, r: usize) -> EventId {
    let sends = send_rounds(dst_schedule);
    match sends.iter().position(|&s| s > r) {
        Some(gate_idx) => EventId(event_idx(gate_idx)),
        None => EventId(event_idx(sends.len())), // the done event
    }
}

/// Compile per-rank NIC programs for a barrier over `members` (rank order)
/// using `algo`. `programs[rank]` is ready for
/// [`nicbar_elan::ElanCluster::build`]; each barrier is initiated by the
/// host setting [`ENTRY_EVENT`]. Every descriptor and event belongs to the
/// single-group chain's ledger owner, [`ELAN_SPAN_GROUP`].
pub fn build_chains(algo: Algorithm, members: &[NodeId]) -> Vec<NicProgram> {
    let n = members.len();
    assert!(n >= 1, "empty group");
    let schedules = schedules_for(algo, n);
    validate(&schedules).expect("schedule inconsistency");

    let mut programs = Vec::with_capacity(n);
    let mut gate_actions: Vec<EventAction> = Vec::new();
    for rank in 0..n {
        let sched = &schedules[rank];
        let sends = send_rounds(sched);
        let k = sends.len();
        let done_event = EventId(event_idx(k));
        // One descriptor per send, a gate per send round plus the done
        // event, and one action per descriptor plus the host notify.
        let links: usize = sends.iter().map(|&r| sched.rounds[r].sends.len()).sum();
        let mut prog = NicProgram::with_capacity(links, k + 1, links + 1);

        // Descriptors first, gate by gate, so each gate's links are a
        // contiguous run of descriptor ids.
        for (gate_idx, &round) in sends.iter().enumerate() {
            let next_gate = if gate_idx + 1 < k {
                EventId(event_idx(gate_idx + 1))
            } else {
                done_event
            };
            for &dst_rank in &sched.rounds[round].sends {
                prog.desc(
                    RdmaDesc {
                        dst: members[dst_rank],
                        bytes: 0, // pure event-fire RDMA: the barrier carries no data
                        remote_event: Some(consuming_event(&schedules[dst_rank], round)),
                        local_event: Some(next_gate),
                    },
                    ELAN_SPAN_GROUP,
                );
            }
        }

        // Gate events: threshold = 1 (host entry or previous link) +
        // arrivals in the rounds this gate consumes.
        let recvs_in = |lo: usize, hi: usize| -> u64 {
            (lo..hi)
                .map(|r| sched.rounds[r].recv_from.len() as u64)
                .sum()
        };
        let mut first_link = 0;
        for gate_idx in 0..k {
            let lo = if gate_idx == 0 {
                0
            } else {
                sends[gate_idx - 1]
            };
            let hi = sends[gate_idx];
            let prev_links = if gate_idx == 0 {
                1 // the host's entry set
            } else {
                sched.rounds[sends[gate_idx - 1]].sends.len() as u64
            };
            let threshold = prev_links + recvs_in(lo, hi);
            let gate_links = event_idx(sched.rounds[hi].sends.len());
            gate_actions.clear();
            gate_actions.extend(
                (first_link..first_link + gate_links).map(|d| EventAction::FireDesc(DescId(d))),
            );
            first_link += gate_links;
            prog.event(threshold, ELAN_SPAN_GROUP, &gate_actions);
        }
        // Done event: last link(s) + all remaining arrivals (or, for a
        // trivial schedule with no sends, just the host entry).
        let done_threshold = if k == 0 {
            1 + recvs_in(0, sched.num_rounds())
        } else {
            let last = sends[k - 1];
            sched.rounds[last].sends.len() as u64 + recvs_in(last, sched.num_rounds())
        };
        prog.event(
            done_threshold,
            ELAN_SPAN_GROUP,
            &[EventAction::NotifyHost {
                cookie: CHAIN_DONE_COOKIE,
            }],
        );
        programs.push(prog);
    }
    programs
}

/// One group's chain request for a multi-group NIC program.
#[derive(Clone, Debug)]
pub struct GroupChain {
    /// Owner group id (keys spans, netdump records, and the ledger).
    pub group: u64,
    /// Barrier algorithm lowered onto the chain.
    pub algo: Algorithm,
    /// Member nodes in rank order.
    pub members: Vec<NodeId>,
}

/// A compiled multi-group program set.
pub struct MultiChains {
    /// Per-node NIC programs, tables of all groups merged with per-group
    /// offsets and owner-group annotations filled in.
    pub programs: Vec<NicProgram>,
    /// `entry[node]` maps group id → the event the host sets to enter that
    /// group's barrier (absent when the node is not a member).
    pub entry: Vec<std::collections::BTreeMap<u64, EventId>>,
}

/// Compile chained-RDMA programs for several overlapping barrier groups
/// sharing the same `n`-node cluster. Each group is lowered independently
/// by [`build_chains`] and the per-node tables are concatenated; remote
/// event ids are remapped with the *destination* node's offset for that
/// group, local ids with the sender's own. Group `gi` completes with
/// [`chain_done_cookie`]`(gi)`, and every descriptor and event record
/// carries its group, so the NIC bills engine/event occupancy to the
/// right one.
pub fn build_chains_multi(n: usize, groups: &[GroupChain]) -> MultiChains {
    assert!(!groups.is_empty(), "no groups");
    let per_group: Vec<Vec<NicProgram>> = groups
        .iter()
        .map(|g| {
            for m in &g.members {
                assert!(m.0 < n, "member {m:?} outside cluster of {n}");
            }
            build_chains(g.algo, &g.members)
        })
        .collect();

    // Per-(node, group) table offsets and ranks.
    let mut ev_off = vec![vec![0u32; groups.len()]; n];
    let mut desc_off = vec![vec![0u32; groups.len()]; n];
    let mut rank_in: Vec<Vec<Option<usize>>> = vec![vec![None; groups.len()]; n];
    for node in 0..n {
        let (mut e, mut d) = (0u32, 0u32);
        for (gi, g) in groups.iter().enumerate() {
            if let Some(rank) = g.members.iter().position(|&m| m.0 == node) {
                rank_in[node][gi] = Some(rank);
                ev_off[node][gi] = e;
                desc_off[node][gi] = d;
                e += event_idx(per_group[gi][rank].events().len());
                d += event_idx(per_group[gi][rank].descs().len());
            }
        }
    }

    let mut programs = Vec::with_capacity(n);
    let mut entry = vec![std::collections::BTreeMap::new(); n];
    let mut actions: Vec<EventAction> = Vec::new();
    for node in 0..n {
        let mut prog = NicProgram::default();
        for (gi, g) in groups.iter().enumerate() {
            let Some(rank) = rank_in[node][gi] else {
                continue;
            };
            let src = &per_group[gi][rank];
            let eoff = ev_off[node][gi];
            let doff = desc_off[node][gi];
            entry[node].insert(g.group, EventId(ENTRY_EVENT.0 + eoff));
            for d in src.descs().iter().map(|r| r.desc) {
                prog.desc(
                    RdmaDesc {
                        dst: d.dst,
                        bytes: d.bytes,
                        remote_event: d.remote_event.map(|ev| EventId(ev.0 + ev_off[d.dst.0][gi])),
                        local_event: d.local_event.map(|ev| EventId(ev.0 + eoff)),
                    },
                    g.group,
                );
            }
            for ev in src.events() {
                actions.clear();
                actions.extend(src.actions(ev).iter().map(|a| match *a {
                    EventAction::FireDesc(d) => EventAction::FireDesc(DescId(d.0 + doff)),
                    EventAction::NotifyHost { .. } => EventAction::NotifyHost {
                        cookie: chain_done_cookie(gi as u64),
                    },
                }));
                prog.event(ev.rearm, g.group, &actions);
            }
            prog.cookie_groups
                .push((chain_done_cookie(gi as u64), g.group));
        }
        programs.push(prog);
    }
    MultiChains { programs, entry }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn dissemination_chain_shape_for_four_ranks() {
        let programs = build_chains(Algorithm::Dissemination, &nodes(4));
        for (rank, p) in programs.iter().enumerate() {
            // 2 rounds → 2 descriptors, 2 gates + done.
            assert_eq!(p.descs().len(), 2, "rank {rank}");
            assert_eq!(p.events().len(), 3, "rank {rank}");
            // Entry gate: host set only.
            assert_eq!(p.events()[0].threshold, 1);
            // Gate 1: previous link + round-0 arrival.
            assert_eq!(p.events()[1].threshold, 2);
            // Done: last link + round-1 arrival.
            assert_eq!(p.events()[2].threshold, 2);
            // Each gate fires its own link; the done event notifies.
            assert_eq!(
                p.actions(&p.events()[0]),
                &[EventAction::FireDesc(DescId(0))]
            );
            assert_eq!(
                p.actions(&p.events()[1]),
                &[EventAction::FireDesc(DescId(1))]
            );
            assert_eq!(
                p.actions(&p.events()[2]),
                &[EventAction::NotifyHost {
                    cookie: CHAIN_DONE_COOKIE
                }]
            );
            // Descriptors are pure event fires, owned by the span group.
            assert!(p.descs().iter().all(|d| d.desc.bytes == 0));
            assert!(p.descs().iter().all(|d| d.group == ELAN_SPAN_GROUP));
            assert!(p.events().iter().all(|e| e.group == ELAN_SPAN_GROUP));
        }
    }

    #[test]
    fn pe_non_power_of_two_extra_rank_chain() {
        // n = 6: rank 5 sends only in the pre-round and waits for the post
        // round.
        let programs = build_chains(Algorithm::PairwiseExchange, &nodes(6));
        let extra = &programs[5];
        assert_eq!(extra.descs().len(), 1);
        assert_eq!(extra.events().len(), 2);
        // Entry only, then own link + post arrival.
        assert_eq!(extra.events()[0].threshold, 1);
        assert_eq!(extra.events()[1].threshold, 2);
        // Its partner (rank 1) gates its first exchange on the pre-arrival.
        let partner = &programs[1];
        assert_eq!(partner.events()[0].threshold, 2); // entry + pre arrival
    }

    #[test]
    fn remote_events_resolve_to_consuming_gates() {
        let schedules = schedules_for(Algorithm::Dissemination, 8);
        // Rank 0 sends round 1 to rank 2; rank 2's sends are rounds 0,1,2 so
        // the round-1 arrival is consumed by its gate before round 2.
        let ev = consuming_event(&schedules[2], 1);
        assert_eq!(ev, EventId(2));
        // A final-round arrival lands on the done event.
        let ev = consuming_event(&schedules[2], 2);
        assert_eq!(ev, EventId(3));
    }

    #[test]
    fn single_rank_chain_is_entry_to_done() {
        let programs = build_chains(Algorithm::Dissemination, &nodes(1));
        assert_eq!(programs[0].descs().len(), 0);
        assert_eq!(programs[0].events().len(), 1);
        assert_eq!(programs[0].events()[0].threshold, 1);
    }

    #[test]
    fn multi_single_group_matches_build_chains() {
        let members = nodes(8);
        let single = build_chains(Algorithm::Dissemination, &members);
        let multi = build_chains_multi(
            8,
            &[GroupChain {
                group: 0xA0,
                algo: Algorithm::Dissemination,
                members,
            }],
        );
        for (node, (s, m)) in single.iter().zip(&multi.programs).enumerate() {
            // The same tables apart from the owner group; group 0 keeps
            // the classic cookie, so the actions match verbatim too.
            let descs = |p: &NicProgram| p.descs().iter().map(|d| d.desc).collect::<Vec<_>>();
            assert_eq!(descs(s), descs(m), "node {node}");
            let events = |p: &NicProgram| {
                p.events()
                    .iter()
                    .map(|e| (e.sets, e.threshold, e.rearm, p.actions(e).to_vec()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(events(s), events(m), "node {node}");
            assert!(m.descs().iter().all(|d| d.group == 0xA0));
            assert!(m.events().iter().all(|e| e.group == 0xA0));
            assert_eq!(m.cookie_groups, vec![(CHAIN_DONE_COOKIE, 0xA0)]);
            assert_eq!(multi.entry[node][&0xA0], ENTRY_EVENT);
        }
    }

    #[test]
    fn overlapping_groups_offset_and_remap() {
        // Two 4-rank groups sharing nodes 2..4: members of both get both
        // tables, with group 1's event/descriptor ids shifted past group
        // 0's and remote events remapped with the destination's offsets.
        let g0 = nodes(4); // 0,1,2,3
        let g1: Vec<NodeId> = (2..6).map(NodeId).collect(); // 2,3,4,5
        let multi = build_chains_multi(
            6,
            &[
                GroupChain {
                    group: 0xA0,
                    algo: Algorithm::Dissemination,
                    members: g0.clone(),
                },
                GroupChain {
                    group: 0xA1,
                    algo: Algorithm::Dissemination,
                    members: g1.clone(),
                },
            ],
        );
        let solo = build_chains(Algorithm::Dissemination, &g0);
        // Node 2 is in both: 2 descs + 3 events per group.
        let p2 = &multi.programs[2];
        assert_eq!(p2.descs().len(), 4);
        assert_eq!(p2.events().len(), 6);
        let groups: Vec<u64> = p2.descs().iter().map(|d| d.group).collect();
        assert_eq!(groups, vec![0xA0, 0xA0, 0xA1, 0xA1]);
        let groups: Vec<u64> = p2.events().iter().map(|e| e.group).collect();
        assert_eq!(groups, vec![0xA0, 0xA0, 0xA0, 0xA1, 0xA1, 0xA1]);
        // Group 1's gates fire group 1's descriptors, past group 0's.
        let fired: Vec<EventAction> = p2.events()[3..]
            .iter()
            .flat_map(|e| p2.actions(e).to_vec())
            .collect();
        assert_eq!(
            fired,
            vec![
                EventAction::FireDesc(DescId(2)),
                EventAction::FireDesc(DescId(3)),
                EventAction::NotifyHost {
                    cookie: chain_done_cookie(1)
                },
            ]
        );
        assert_eq!(multi.entry[2][&0xA0], EventId(0));
        assert_eq!(multi.entry[2][&0xA1], EventId(3));
        // Node 5 is only in group 1: its entry is at offset 0.
        assert_eq!(multi.entry[5][&0xA1], EventId(0));
        assert_eq!(multi.programs[5].events().len(), 3);
        // Remote events from node 0 (group-0 only) into dual-membership
        // nodes keep group 0's zero offset there.
        let descs = |p: &NicProgram| p.descs().iter().map(|d| d.desc).collect::<Vec<_>>();
        for (d, orig) in descs(p2)[..2].iter().zip(&descs(&solo[2])) {
            assert_eq!(d.dst, orig.dst);
            if orig.dst.0 < 2 {
                assert_eq!(d.remote_event, orig.remote_event);
            }
        }
        // Group-1 descs at a dual node target events past the dst's group-0
        // table when the dst is dual too.
        for (i, d) in descs(p2)[2..].iter().enumerate() {
            let orig = &descs(&build_chains(Algorithm::Dissemination, &g1)[0])[i];
            let expect_off = if d.dst.0 < 4 { 3 } else { 0 };
            assert_eq!(
                d.remote_event.unwrap().0,
                orig.remote_event.unwrap().0 + expect_off,
                "desc {i} to {:?}",
                d.dst
            );
        }
        // Distinct done cookies, both registered.
        assert_eq!(
            p2.cookie_groups,
            vec![(chain_done_cookie(0), 0xA0), (chain_done_cookie(1), 0xA1)]
        );
        assert_ne!(chain_done_cookie(0), chain_done_cookie(1));
    }

    #[test]
    fn chains_build_for_all_algorithms_and_sizes() {
        for n in [1usize, 2, 3, 5, 6, 8, 13, 16, 32] {
            for algo in [
                Algorithm::Dissemination,
                Algorithm::PairwiseExchange,
                Algorithm::GatherBroadcast { degree: 4 },
            ] {
                let programs = build_chains(algo, &nodes(n));
                assert_eq!(programs.len(), n);
                // Every remote event index is within the target's table.
                for p in &programs {
                    for d in p.descs() {
                        let target = &programs[d.desc.dst.0];
                        let ev = d.desc.remote_event.expect("barrier RDMAs fire events");
                        assert!(
                            (ev.0 as usize) < target.events().len(),
                            "dangling remote event (n={n}, {algo:?})"
                        );
                    }
                }
            }
        }
    }
}
