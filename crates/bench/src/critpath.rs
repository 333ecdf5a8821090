//! Critical-path extraction over causal netdumps.
//!
//! A netdump (the packet column of a [`nicbar_sim::Trace`]) is a DAG:
//! every wire-visible record carries the id of the record that caused it,
//! and emitters thread the *last-enabling* stimulus as the parent at every
//! join (the packet that completed a round, the set that tripped a
//! counting event). Walking parents back from the last rank's `host-exit`
//! therefore yields the critical path of the barrier exactly — every
//! nanosecond of the span's wall time lands on one edge of the chain, plus
//! a leading "entry skew" edge from the first rank's `host-enter` to the
//! chain's root.
//!
//! Per barrier the analyzer reports the chain edge by edge (with per-edge
//! attribution: host→NIC handoff, NIC compute, wire time, NACK/retransmit
//! detours), the per-rank completion slack, and the coverage residual —
//! which is zero for a complete dump and explicitly non-zero when records
//! were dropped and the walk hit a hole.

use nicbar_sim::{
    chain_to, CausalKind, LedgerOp, LedgerRecord, Owner, OwnerKind, PacketRecord, ResKind, SimTime,
    NO_KEY, NO_NODE,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One edge of a barrier's critical path: the step that produced `kind` at
/// `at`, taking `dur` since its parent record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathEdge {
    /// What happened at the downstream end of the edge.
    pub kind: CausalKind,
    /// Attribution bucket (`host->nic`, `wire`, `nack-detour`, ...).
    pub label: &'static str,
    /// Source node of the step (`NO_NODE` if not node-specific).
    pub src: u32,
    /// Destination node of the step (`NO_NODE` for local steps).
    pub dst: u32,
    /// Simulated time at which the edge completes.
    pub at: SimTime,
    /// Time attributed to this edge (downstream time − upstream time).
    pub dur: SimTime,
    /// Destination-port queuing wait, for `wire` edges (the link-occupancy
    /// tag; distinguishes "slow link" from "busy port").
    pub port_wait: SimTime,
}

/// The critical path of one barrier span, keyed `(group, seq)`.
#[derive(Clone, Debug)]
pub struct BarrierPath {
    /// Collective group id.
    pub group: u64,
    /// Operation sequence (epoch) within the group.
    pub seq: u64,
    /// First `host-enter` of the span (wall-clock start).
    pub begin: SimTime,
    /// Last `host-exit` of the span (wall-clock end).
    pub end: SimTime,
    /// Node whose `host-enter` roots the critical chain.
    pub root_node: u32,
    /// Node whose `host-exit` ends the chain (the last rank out).
    pub end_node: u32,
    /// Time between the first rank's entry and the chain root's entry —
    /// the part of the wall time spent waiting for the critical rank to
    /// even start.
    pub entry_skew: SimTime,
    /// The chain, root first.
    pub edges: Vec<PathEdge>,
    /// Wall time not covered by `entry_skew + Σ edges`. Zero on a complete
    /// dump; positive when the parent walk hit a dropped record.
    pub residual: SimTime,
    /// True when the walk stopped at a hole instead of a `host-enter`.
    pub truncated: bool,
    /// Per-rank slack `(node, last_exit − own_exit)`, node-ordered. The
    /// critical rank has slack 0.
    pub slack: Vec<(u32, SimTime)>,
}

impl BarrierPath {
    /// End-to-end wall time of the span.
    pub fn wall(&self) -> SimTime {
        self.end.saturating_sub(self.begin)
    }

    /// Fraction of the wall time attributed to critical-path edges (plus
    /// entry skew), in percent. 100.0 for a complete dump.
    pub fn coverage_pct(&self) -> f64 {
        let wall = self.wall().as_ns();
        if wall == 0 {
            return 100.0;
        }
        let covered = wall.saturating_sub(self.residual.as_ns());
        covered as f64 / wall as f64 * 100.0
    }

    /// Number of detour edges (NACK, retransmission, drop) on the path.
    pub fn detour_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.kind.is_detour()).count()
    }

    /// Total time spent on detour edges.
    pub fn detour_time(&self) -> SimTime {
        self.edges
            .iter()
            .filter(|e| e.kind.is_detour())
            .fold(SimTime::ZERO, |acc, e| acc + e.dur)
    }

    /// Total destination-port queuing wait along the path's wire edges.
    pub fn port_wait(&self) -> SimTime {
        self.edges
            .iter()
            .fold(SimTime::ZERO, |acc, e| acc + e.port_wait)
    }

    /// Sum of `entry_skew` and all edge durations.
    pub fn covered(&self) -> SimTime {
        self.edges
            .iter()
            .fold(self.entry_skew, |acc, e| acc + e.dur)
    }
}

/// Extract the critical path of every completed barrier span in `records`.
/// Spans are keyed `(group, seq)` off their `host-exit` records and
/// returned in key order. Records must be in id order (as
/// [`nicbar_sim::Trace::packets`] holds them).
pub fn analyze(records: &[PacketRecord]) -> Vec<BarrierPath> {
    // Group the span boundary records by key.
    let mut enters: BTreeMap<(u64, u64), Vec<&PacketRecord>> = BTreeMap::new();
    let mut exits: BTreeMap<(u64, u64), Vec<&PacketRecord>> = BTreeMap::new();
    for r in records {
        if r.group == NO_KEY {
            continue;
        }
        match r.kind {
            CausalKind::HostEnter => enters.entry((r.group, r.seq)).or_default().push(r),
            CausalKind::HostExit => exits.entry((r.group, r.seq)).or_default().push(r),
            CausalKind::HostPost
            | CausalKind::NicDispatch
            | CausalKind::DmaStart
            | CausalKind::DmaDone
            | CausalKind::Fire
            | CausalKind::Wire
            | CausalKind::Drop
            | CausalKind::Arrive
            | CausalKind::Nack
            | CausalKind::Retransmit
            | CausalKind::Notify => {}
        }
    }
    let mut out = Vec::new();
    for (&(group, seq), span_exits) in &exits {
        let Some(span_enters) = enters.get(&(group, seq)) else {
            continue; // exit without any recorded entry: not analyzable
        };
        let begin = span_enters
            .iter()
            .map(|r| r.time)
            .min()
            .expect("non-empty by construction");
        // The last rank out ends the barrier; ties break on record id so
        // the choice is deterministic.
        let last = span_exits
            .iter()
            .copied()
            .max_by_key(|r| (r.time, r.id))
            .expect("non-empty by construction");
        let chain = chain_to(records, last.id);
        let root = chain
            .first()
            .copied()
            .expect("chain includes `last` itself");
        let truncated = root.parent.is_some() || root.kind != CausalKind::HostEnter;
        let entry_skew = if truncated {
            SimTime::ZERO
        } else {
            root.time.saturating_sub(begin)
        };
        let edges: Vec<PathEdge> = chain
            .windows(2)
            .map(|w| {
                let (p, c) = (w[0], w[1]);
                PathEdge {
                    kind: c.kind,
                    label: c.kind.edge_label(),
                    src: c.src,
                    dst: c.dst,
                    at: c.time,
                    dur: c.time.saturating_sub(p.time),
                    port_wait: if c.kind == CausalKind::Wire {
                        SimTime::from_ns(c.b)
                    } else {
                        SimTime::ZERO
                    },
                }
            })
            .collect();
        let mut slack: Vec<(u32, SimTime)> = span_exits
            .iter()
            .map(|r| (r.src, last.time.saturating_sub(r.time)))
            .collect();
        slack.sort_unstable();
        let wall = last.time.saturating_sub(begin);
        let covered = edges.iter().fold(entry_skew, |acc, e| acc + e.dur);
        out.push(BarrierPath {
            group,
            seq,
            begin,
            end: last.time,
            root_node: root.src,
            end_node: last.src,
            entry_skew,
            edges,
            residual: wall.saturating_sub(covered),
            truncated,
            slack,
        });
    }
    out
}

/// Aggregate attribution across many paths: `(label, total, edges)` in
/// descending total-time order (ties broken by label for determinism).
pub fn attribution(paths: &[BarrierPath]) -> Vec<(&'static str, SimTime, usize)> {
    let mut by_label: BTreeMap<&'static str, (SimTime, usize)> = BTreeMap::new();
    for p in paths {
        if p.entry_skew > SimTime::ZERO {
            let e = by_label.entry("entry-skew").or_default();
            e.0 += p.entry_skew;
            e.1 += 1;
        }
        for e in &p.edges {
            let a = by_label.entry(e.label).or_default();
            a.0 += e.dur;
            a.1 += 1;
        }
    }
    let mut out: Vec<(&'static str, SimTime, usize)> = by_label
        .into_iter()
        .map(|(label, (t, n))| (label, t, n))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    out
}

/// Per-barrier interference breakdown: for every wait interval on the
/// critical path, who actually held the contended resource.
///
/// Built by [`interference`] from a [`BarrierPath`] and the occupancy
/// ledger. Wait time is attributed by intersecting each critical-path wait
/// interval with the [`LedgerOp::Hold`] records on the same
/// `(resource, node, unit)`; the holder's [`Owner`] decides the bucket:
/// same-group collective → `self_time`, different group → `other_group`,
/// traffic/p2p → `traffic`, fabric/protocol → `fabric`. Wait time no hold
/// covers lands in `unattributed` (and counts against the ≥95% gate).
#[derive(Clone, Debug, Default)]
pub struct Interference {
    /// Collective group id of the barrier (or [`NO_KEY`] for a summary).
    pub group: u64,
    /// Operation sequence within the group (or [`NO_KEY`] for a summary).
    pub seq: u64,
    /// Total critical-path wait time considered.
    pub wait_total: SimTime,
    /// Wait time caused by this barrier's own group (pipelining with
    /// itself: earlier rounds, other ranks of the same operation).
    pub self_time: SimTime,
    /// Wait time caused by a *different* collective group.
    pub other_group: SimTime,
    /// Wait time caused by background bulk traffic or p2p messages.
    pub traffic: SimTime,
    /// Wait time caused by fabric/protocol overhead (ACK generation,
    /// retransmit sweeps).
    pub fabric: SimTime,
    /// Wait time no hold record covers.
    pub unattributed: SimTime,
    /// Wait time per resource kind, descending.
    pub by_res: Vec<(ResKind, SimTime)>,
    /// Non-self interferers aggregated by `(kind, group, rank)`,
    /// descending by held-while-we-waited time. The first entry is the top
    /// interferer.
    pub interferers: Vec<(Owner, SimTime)>,
}

impl Interference {
    /// Wait time covered by a named owner's hold.
    pub fn attributed(&self) -> SimTime {
        self.wait_total.saturating_sub(self.unattributed)
    }

    /// Fraction of the wait time attributed to a named owner, in percent.
    /// 100.0 when the path never waited.
    pub fn attributed_pct(&self) -> f64 {
        let total = self.wait_total.as_ns();
        if total == 0 {
            return 100.0;
        }
        self.attributed().as_ns() as f64 / total as f64 * 100.0
    }

    /// The single owner (excluding this barrier's own group) that caused
    /// the most wait time, if any.
    pub fn top(&self) -> Option<&(Owner, SimTime)> {
        self.interferers.first()
    }
}

/// Stable sort key for owners (ties in held time break deterministically).
fn owner_key(o: &Owner) -> (OwnerKind, u64, u32) {
    (o.kind, o.group, o.rank)
}

/// Hold intervals indexed by `(resource, node, unit)`, each sorted by start
/// time so wait clipping can binary-search.
type HoldIndex = BTreeMap<(ResKind, u32, u64), Vec<(SimTime, SimTime, Owner)>>;

/// Attribute every critical-path wait interval of every path to the owner
/// that held the resource meanwhile. Returns one [`Interference`] per path,
/// in path order.
///
/// A ledger wait record belongs to a path when its owner is that path's
/// collective `(group, seq)` and its node lies on a path edge whose time
/// window overlaps the wait; the overlap is then clipped to the edge. Holds
/// are matched on exact `(resource, node, unit)`.
pub fn interference(paths: &[BarrierPath], ledger: &[LedgerRecord]) -> Vec<Interference> {
    // Index holds by (resource, node, unit). Emission order is
    // nondecreasing in t0 per serial resource, but sort defensively so the
    // binary search below is always valid.
    let mut holds: HoldIndex = BTreeMap::new();
    for r in ledger {
        if r.op == LedgerOp::Hold && r.t1 > r.t0 {
            holds
                .entry((r.res, r.node, r.unit))
                .or_default()
                .push((r.t0, r.t1, r.owner));
        }
    }
    for v in holds.values_mut() {
        v.sort_by_key(|h| h.0);
    }

    paths
        .iter()
        .map(|p| {
            let mut inf = Interference {
                group: p.group,
                seq: p.seq,
                ..Interference::default()
            };
            let mut by_res: BTreeMap<ResKind, SimTime> = BTreeMap::new();
            let mut by_owner: BTreeMap<(OwnerKind, u64, u32), (Owner, SimTime)> = BTreeMap::new();
            for w in ledger {
                if w.op != LedgerOp::Wait
                    || w.owner.kind != OwnerKind::Collective
                    || w.owner.group != p.group
                    || w.owner.seq != p.seq
                {
                    continue;
                }
                for e in &p.edges {
                    if w.node != e.src && w.node != e.dst {
                        continue;
                    }
                    // Clip the wait to this edge's window. Edges tile time
                    // contiguously, so clips against distinct edges are
                    // disjoint and summing them never double-counts.
                    let a = w.t0.max(e.at.saturating_sub(e.dur));
                    let b = w.t1.min(e.at);
                    if b <= a {
                        continue;
                    }
                    let span = b.saturating_sub(a);
                    inf.wait_total += span;
                    *by_res.entry(w.res).or_default() += span;
                    let mut covered = SimTime::ZERO;
                    if let Some(hs) = holds.get(&(w.res, w.node, w.unit)) {
                        let start = hs.partition_point(|h| h.1 <= a);
                        for &(h0, h1, owner) in &hs[start..] {
                            if h0 >= b {
                                break;
                            }
                            let ov = h1.min(b).saturating_sub(h0.max(a));
                            if ov == SimTime::ZERO {
                                continue;
                            }
                            covered += ov;
                            let is_self =
                                owner.kind == OwnerKind::Collective && owner.group == p.group;
                            match owner.kind {
                                OwnerKind::Collective if is_self => inf.self_time += ov,
                                OwnerKind::Collective => inf.other_group += ov,
                                OwnerKind::Traffic | OwnerKind::P2p => inf.traffic += ov,
                                OwnerKind::Fabric => inf.fabric += ov,
                            }
                            if !is_self {
                                let slot = by_owner
                                    .entry(owner_key(&owner))
                                    .or_insert((owner, SimTime::ZERO));
                                slot.1 += ov;
                            }
                        }
                    }
                    // Serial-resource holds tile busy periods, so covered
                    // never exceeds the clip; clamp anyway so a malformed
                    // ledger cannot produce negative unattributed time.
                    inf.unattributed += span.saturating_sub(covered.min(span));
                }
            }
            inf.by_res = by_res.into_iter().collect();
            inf.by_res.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            inf.interferers = by_owner.into_values().collect();
            inf.interferers
                .sort_by(|x, y| y.1.cmp(&x.1).then(owner_key(&x.0).cmp(&owner_key(&y.0))));
            inf
        })
        .collect()
}

/// Aggregate many per-path breakdowns into one summary (group/seq are
/// [`NO_KEY`]). Interferers are re-merged across paths, so the summary's
/// top interferer is the overall worst offender.
pub fn interference_summary(infs: &[Interference]) -> Interference {
    let mut sum = Interference {
        group: NO_KEY,
        seq: NO_KEY,
        ..Interference::default()
    };
    let mut by_res: BTreeMap<ResKind, SimTime> = BTreeMap::new();
    let mut by_owner: BTreeMap<(OwnerKind, u64, u32), (Owner, SimTime)> = BTreeMap::new();
    for i in infs {
        sum.wait_total += i.wait_total;
        sum.self_time += i.self_time;
        sum.other_group += i.other_group;
        sum.traffic += i.traffic;
        sum.fabric += i.fabric;
        sum.unattributed += i.unattributed;
        for &(res, t) in &i.by_res {
            *by_res.entry(res).or_default() += t;
        }
        for &(owner, t) in &i.interferers {
            let slot = by_owner
                .entry(owner_key(&owner))
                .or_insert((owner, SimTime::ZERO));
            slot.1 += t;
        }
    }
    sum.by_res = by_res.into_iter().collect();
    sum.by_res.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    sum.interferers = by_owner.into_values().collect();
    sum.interferers
        .sort_by(|x, y| y.1.cmp(&x.1).then(owner_key(&x.0).cmp(&owner_key(&y.0))));
    sum
}

/// Render an interference summary (plus per-path lines for paths that
/// actually waited) as a deterministic transcript.
pub fn render_interference(infs: &[Interference]) -> String {
    let mut out = String::new();
    let sum = interference_summary(infs);
    let _ = writeln!(
        out,
        "== interference over {} barriers: {:.3} µs critical-path wait, {:.1}% attributed ==",
        infs.len(),
        sum.wait_total.as_us(),
        sum.attributed_pct()
    );
    let total = sum.wait_total.as_ns();
    let pct = |t: SimTime| {
        if total == 0 {
            0.0
        } else {
            t.as_ns() as f64 / total as f64 * 100.0
        }
    };
    for (label, t) in [
        ("self", sum.self_time),
        ("other-group", sum.other_group),
        ("background-traffic", sum.traffic),
        ("fabric", sum.fabric),
        ("unattributed", sum.unattributed),
    ] {
        let _ = writeln!(
            out,
            "  {:>18} {:>10.3} µs {:>6.1}%",
            label,
            t.as_us(),
            pct(t)
        );
    }
    if !sum.by_res.is_empty() {
        let by_res: Vec<String> = sum
            .by_res
            .iter()
            .map(|(res, t)| format!("{} {:.3} µs", res.name(), t.as_us()))
            .collect();
        let _ = writeln!(out, "  waited on: {}", by_res.join(", "));
    }
    match sum.top() {
        Some((owner, t)) => {
            let _ = writeln!(
                out,
                "  top interferer: {} — {:.3} µs held while we waited",
                owner.label(),
                t.as_us()
            );
        }
        None => {
            let _ = writeln!(out, "  top interferer: none (no cross-owner contention)");
        }
    }
    for i in infs {
        if i.wait_total == SimTime::ZERO {
            continue;
        }
        let top = match i.top() {
            Some((owner, t)) => format!("{} ({:.3} µs)", owner.label(), t.as_us()),
            None => "none".to_string(),
        };
        let _ = writeln!(
            out,
            "  (group {:#x}, seq {}): wait {:.3} µs, {:.1}% attributed, top {}",
            i.group,
            i.seq,
            i.wait_total.as_us(),
            i.attributed_pct(),
            top
        );
    }
    out
}

fn fmt_node(n: u32) -> String {
    if n == NO_NODE {
        "-".to_string()
    } else {
        format!("{n}")
    }
}

/// Render one path as a deterministic, human-readable transcript.
pub fn render_one(p: &BarrierPath) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "barrier (group {:#x}, seq {}): {:.3} µs wall, critical path {} edges, \
         coverage {:.1}% (residual {:.3} µs)",
        p.group,
        p.seq,
        p.wall().as_us(),
        p.edges.len(),
        p.coverage_pct(),
        p.residual.as_us(),
    );
    if p.truncated {
        let _ = writeln!(out, "  WARNING: chain truncated at a dropped record");
    }
    if p.entry_skew > SimTime::ZERO {
        let _ = writeln!(
            out,
            "  {:>10} {:>9.3} µs  node {} entered last",
            "entry-skew",
            p.entry_skew.as_us(),
            p.root_node
        );
    }
    for e in &p.edges {
        let route = match (e.src, e.dst) {
            (s, d) if s != NO_NODE && d != NO_NODE && s != d => {
                format!("{} -> {}", fmt_node(s), fmt_node(d))
            }
            (s, _) => format!("node {}", fmt_node(s)),
        };
        let mut note = String::new();
        if e.kind.is_detour() {
            note.push_str("  [detour]");
        }
        if e.port_wait > SimTime::ZERO {
            let _ = write!(note, "  (port wait {:.3} µs)", e.port_wait.as_us());
        }
        let _ = writeln!(
            out,
            "  {:>14} {:>9.3} µs  {:<14} {}{}",
            e.kind.name(),
            e.dur.as_us(),
            e.label,
            route,
            note
        );
    }
    let laggards: Vec<String> = p
        .slack
        .iter()
        .map(|(node, s)| format!("{}:{:.3}", node, s.as_us()))
        .collect();
    let _ = writeln!(
        out,
        "  slack (µs by rank): {}  [critical rank {}]",
        laggards.join(" "),
        p.end_node
    );
    if p.detour_edges() > 0 {
        let _ = writeln!(
            out,
            "  detours: {} edges, {:.3} µs (NACK/retransmit/drop on the critical path)",
            p.detour_edges(),
            p.detour_time().as_us()
        );
    }
    out
}

/// Render every path plus the aggregate attribution table.
pub fn render(paths: &[BarrierPath]) -> String {
    let mut out = String::new();
    for p in paths {
        out.push_str(&render_one(p));
    }
    if paths.is_empty() {
        out.push_str("(no completed barrier spans in the dump)\n");
        return out;
    }
    let total_wall: u64 = paths.iter().map(|p| p.wall().as_ns()).sum();
    let _ = writeln!(
        out,
        "\n== attribution over {} barriers ({:.3} µs total wall) ==",
        paths.len(),
        total_wall as f64 / 1_000.0
    );
    let _ = writeln!(
        out,
        "{:>14} {:>12} {:>8} {:>7}",
        "bucket", "total µs", "share", "edges"
    );
    for (label, t, n) in attribution(paths) {
        let _ = writeln!(
            out,
            "{:>14} {:>12.3} {:>7.1}% {:>7}",
            label,
            t.as_us(),
            if total_wall > 0 {
                t.as_ns() as f64 / total_wall as f64 * 100.0
            } else {
                0.0
            },
            n
        );
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code
mod tests {
    use super::*;
    use nicbar_sim::{CauseId, ComponentId, PacketLog, Trace};

    fn rec(
        dump: &mut Trace,
        t: u64,
        parent: CauseId,
        kind: CausalKind,
        node: u32,
        key: Option<(u64, u64)>,
    ) -> CauseId {
        let mut log = PacketLog::new(parent, kind).at_node(node);
        if let Some((g, s)) = key {
            log = log.key(g, s);
        }
        dump.record_packet(SimTime::from_ns(t), ComponentId(0), log)
    }

    /// Two ranks; rank 1 enters late and its chain dominates.
    #[test]
    fn critical_path_follows_parents_and_covers_wall() {
        let mut d = Trace::disabled();
        d.enable();
        let k = Some((7, 0));
        let e0 = rec(&mut d, 0, CauseId::NONE, CausalKind::HostEnter, 0, k);
        let _x0 = rec(&mut d, 500, e0, CausalKind::HostExit, 0, k);
        let e1 = rec(&mut d, 100, CauseId::NONE, CausalKind::HostEnter, 1, k);
        let f1 = rec(&mut d, 300, e1, CausalKind::Fire, 1, k);
        let x1 = rec(&mut d, 900, f1, CausalKind::HostExit, 1, k);
        let paths = analyze(d.packets());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!((p.group, p.seq), (7, 0));
        assert_eq!(p.begin, SimTime::from_ns(0));
        assert_eq!(p.end, SimTime::from_ns(900));
        assert_eq!(p.root_node, 1);
        assert_eq!(p.end_node, 1);
        assert_eq!(p.entry_skew, SimTime::from_ns(100));
        assert_eq!(p.edges.len(), 2, "fire + host-exit");
        assert_eq!(p.residual, SimTime::ZERO);
        assert!((p.coverage_pct() - 100.0).abs() < 1e-9);
        assert!(!p.truncated);
        // rank 0 finished 400 ns early; rank 1 is critical.
        assert_eq!(
            p.slack,
            vec![(0, SimTime::from_ns(400)), (1, SimTime::ZERO),]
        );
        let _ = x1;
    }

    #[test]
    fn truncated_chain_reports_residual() {
        let mut d = Trace::disabled();
        d.enable();
        let k = Some((7, 0));
        let _e = rec(&mut d, 0, CauseId::NONE, CausalKind::HostEnter, 0, k);
        // Exit whose parent id was never recorded (simulates a dropped
        // record / capacity overflow).
        let hole = CauseId(999);
        let _x = rec(&mut d, 1_000, hole, CausalKind::HostExit, 0, k);
        let paths = analyze(d.packets());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert!(p.truncated);
        assert!(p.residual > SimTime::ZERO);
        assert!(p.coverage_pct() < 100.0);
        let text = render_one(p);
        assert!(text.contains("truncated"), "got: {text}");
    }

    #[test]
    fn attribution_groups_by_label() {
        let mut d = Trace::disabled();
        d.enable();
        let k = Some((1, 0));
        let e = rec(&mut d, 0, CauseId::NONE, CausalKind::HostEnter, 0, k);
        let n = rec(&mut d, 10, e, CausalKind::Nack, 0, k);
        let r = rec(&mut d, 30, n, CausalKind::Retransmit, 0, k);
        let _x = rec(&mut d, 100, r, CausalKind::HostExit, 0, k);
        let paths = analyze(d.packets());
        let attr = attribution(&paths);
        let labels: Vec<&str> = attr.iter().map(|&(l, _, _)| l).collect();
        assert!(labels.contains(&"nack-detour"));
        assert!(labels.contains(&"retransmit-detour"));
        assert_eq!(paths[0].detour_edges(), 2);
        assert_eq!(paths[0].detour_time(), SimTime::from_ns(30));
    }

    fn lrec(
        op: LedgerOp,
        res: ResKind,
        t0: u64,
        t1: u64,
        node: u32,
        unit: u64,
        owner: Owner,
    ) -> LedgerRecord {
        LedgerRecord {
            t0: SimTime::from_ns(t0),
            t1: SimTime::from_ns(t1),
            component: ComponentId(0),
            op,
            res,
            node,
            unit,
            owner,
        }
    }

    /// One barrier on nodes 0/1; node 1's chain is critical with edges
    /// covering [0, 400) and [400, 900).
    fn contended_path() -> Vec<BarrierPath> {
        let mut d = Trace::disabled();
        d.enable();
        let k = Some((0xC0, 0));
        let e0 = rec(&mut d, 0, CauseId::NONE, CausalKind::HostEnter, 0, k);
        let _x0 = rec(&mut d, 500, e0, CausalKind::HostExit, 0, k);
        let e1 = rec(&mut d, 0, CauseId::NONE, CausalKind::HostEnter, 1, k);
        let f1 = rec(&mut d, 400, e1, CausalKind::Fire, 1, k);
        let _x1 = rec(&mut d, 900, f1, CausalKind::HostExit, 1, k);
        analyze(d.packets())
    }

    #[test]
    fn interference_attributes_waits_to_holders() {
        use nicbar_sim::NO_UNIT;
        let paths = contended_path();
        let us = Owner::coll(0xC0, 0, 1);
        let rival = Owner::coll(0xC1, 5, 0);
        let ledger = vec![
            // 200 ns engine wait inside the first edge, held 150 ns by a
            // rival group and 50 ns by bulk traffic.
            lrec(
                LedgerOp::Wait,
                ResKind::ElanEngine,
                100,
                300,
                1,
                NO_UNIT,
                us,
            ),
            lrec(
                LedgerOp::Hold,
                ResKind::ElanEngine,
                100,
                250,
                1,
                NO_UNIT,
                rival,
            ),
            lrec(
                LedgerOp::Hold,
                ResKind::ElanEngine,
                250,
                300,
                1,
                NO_UNIT,
                Owner::traffic(2),
            ),
            // 100 ns port wait inside the second edge, 80 ns covered by a
            // fabric hold; the remaining 20 ns stay unattributed.
            lrec(LedgerOp::Wait, ResKind::LinkPort, 500, 600, 1, 1, us),
            lrec(
                LedgerOp::Hold,
                ResKind::LinkPort,
                500,
                580,
                1,
                1,
                Owner::fabric(3),
            ),
            // Wrong seq: not this barrier's wait.
            lrec(
                LedgerOp::Wait,
                ResKind::ElanEngine,
                100,
                300,
                1,
                NO_UNIT,
                Owner::coll(0xC0, 9, 1),
            ),
            // Right owner, but on a node the path never visits.
            lrec(
                LedgerOp::Wait,
                ResKind::ElanEngine,
                100,
                300,
                5,
                NO_UNIT,
                us,
            ),
            // Hold on a different unit must not cover the port wait.
            lrec(
                LedgerOp::Hold,
                ResKind::LinkPort,
                580,
                600,
                1,
                7,
                Owner::fabric(3),
            ),
        ];
        let infs = interference(&paths, &ledger);
        assert_eq!(infs.len(), 1);
        let i = &infs[0];
        assert_eq!((i.group, i.seq), (0xC0, 0));
        assert_eq!(i.wait_total, SimTime::from_ns(300));
        assert_eq!(i.self_time, SimTime::ZERO);
        assert_eq!(i.other_group, SimTime::from_ns(150));
        assert_eq!(i.traffic, SimTime::from_ns(50));
        assert_eq!(i.fabric, SimTime::from_ns(80));
        assert_eq!(i.unattributed, SimTime::from_ns(20));
        assert!((i.attributed_pct() - 280.0 / 3.0).abs() < 1e-9);
        let (top, t) = i.top().unwrap();
        assert_eq!(
            (top.kind, top.group, top.rank),
            (OwnerKind::Collective, 0xC1, 0)
        );
        assert_eq!(*t, SimTime::from_ns(150));
        assert_eq!(
            i.by_res,
            vec![
                (ResKind::ElanEngine, SimTime::from_ns(200)),
                (ResKind::LinkPort, SimTime::from_ns(100)),
            ]
        );
        let text = render_interference(&infs);
        assert!(
            text.contains("top interferer: group 0xc1 collective (rank 0)"),
            "got: {text}"
        );
        assert!(text.contains("other-group"), "got: {text}");
    }

    #[test]
    fn self_holds_do_not_name_an_interferer() {
        use nicbar_sim::NO_UNIT;
        let paths = contended_path();
        let us = Owner::coll(0xC0, 0, 1);
        let ledger = vec![
            lrec(LedgerOp::Wait, ResKind::NicCpu, 100, 200, 1, NO_UNIT, us),
            // Same group, earlier epoch, another rank: still "self".
            lrec(
                LedgerOp::Hold,
                ResKind::NicCpu,
                50,
                200,
                1,
                NO_UNIT,
                Owner::coll(0xC0, 4, 0),
            ),
        ];
        let infs = interference(&paths, &ledger);
        let i = &infs[0];
        assert_eq!(i.wait_total, SimTime::from_ns(100));
        assert_eq!(i.self_time, SimTime::from_ns(100));
        assert_eq!(i.unattributed, SimTime::ZERO);
        assert!(i.top().is_none());
        assert!((i.attributed_pct() - 100.0).abs() < 1e-9);
        let text = render_interference(&infs);
        assert!(text.contains("none"), "got: {text}");
    }

    #[test]
    fn summary_merges_interferers_across_paths() {
        use nicbar_sim::NO_UNIT;
        let paths = contended_path();
        let us = Owner::coll(0xC0, 0, 1);
        let rival = Owner::coll(0xC1, 2, 0);
        let ledger = vec![
            lrec(LedgerOp::Wait, ResKind::NicCpu, 0, 100, 1, NO_UNIT, us),
            lrec(LedgerOp::Hold, ResKind::NicCpu, 0, 100, 1, NO_UNIT, rival),
        ];
        let infs = interference(&paths, &ledger);
        // Duplicate the per-path breakdown to simulate two barriers with
        // the same rival; the summary must merge them.
        let both = vec![infs[0].clone(), infs[0].clone()];
        let sum = interference_summary(&both);
        assert_eq!((sum.group, sum.seq), (NO_KEY, NO_KEY));
        assert_eq!(sum.wait_total, SimTime::from_ns(200));
        assert_eq!(sum.other_group, SimTime::from_ns(200));
        assert_eq!(sum.interferers.len(), 1);
        assert_eq!(sum.interferers[0].1, SimTime::from_ns(200));
    }
}
