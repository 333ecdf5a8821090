//! The record log.
//!
//! A [`Trace`] is the engine's one record buffer. It keeps three typed
//! columns in emission order — span records ([`TraceRecord`], over the
//! typed [`SpanEvent`] of [`crate::span`]), causal packet records
//! ([`PacketRecord`], see [`crate::causal`]) and resource-occupancy records
//! ([`LedgerRecord`], see [`crate::ledger`]) — under one switch, one bound
//! and one drop count. Once [`Trace::set_participants`] has been called it
//! also folds the span stream into per-operation summaries and latency
//! histograms, and retains the closed spans under the same bound.
//!
//! A log is disabled by default. The engine reads the switch once per
//! delivery, so every emit site costs one predictable branch while it is
//! off (checked by `engine_sweep`). Tests enable it to assert fine-grained
//! protocol behaviour, e.g. "the barrier send token never waited behind a
//! point-to-point token" or "no ACK was emitted for a collective packet".
//!
//! ## The bound
//!
//! The bound covers everything retained: span, packet and ledger records
//! and closed spans. The engine applies it at the end of every delivery: a
//! full log keeps what it has and counts each newcomer once in
//! [`Trace::dropped`]. If the delivery that fills the log emitted more than
//! fits, its records take the last slots in column order — span records,
//! closed spans, packets, then ledger records — not in emission order. The
//! parallel engine's merge replays a delivery column by column, so this
//! rule keeps exactly the records the sequential run keeps. A dropped
//! packet still takes its id, so its children name a hole, never a wrong
//! parent. The fold sees every span event, stored or dropped, so the
//! histograms stay complete.

use crate::causal::{CauseId, PacketLog, PacketRecord};
use crate::engine::ComponentId;
use crate::hist::Histogram;
use crate::ledger::LedgerRecord;
use crate::span::{SpanEvent, SpanFold, SpanSummary};
use crate::time::SimTime;
use std::fmt;

/// One trace record: a typed event stamped with its emission time and the
/// component that emitted it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time the record was emitted.
    pub time: SimTime,
    /// Component that emitted it.
    pub component: ComponentId,
    /// The typed event payload.
    pub event: SpanEvent,
}

impl TraceRecord {
    /// Static label identifying the event kind.
    pub fn label(&self) -> &'static str {
        self.event.label()
    }
}

/// Records per column: a log's column lengths, or what one delivery kept.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counts {
    pub(crate) spans: usize,
    pub(crate) packets: usize,
    pub(crate) ledger: usize,
    completed: usize,
}

/// The record log: span, packet and ledger columns plus the span fold,
/// under one switch, one bound and one drop count (see the module docs).
#[derive(Clone)]
pub struct Trace {
    /// The switch. The parallel engine mirrors its base log's switch onto
    /// its shards' logs at every run.
    pub(crate) enabled: bool,
    /// Most records retained over all columns and the closed spans.
    capacity: usize,
    spans: Vec<TraceRecord>,
    packets: Vec<PacketRecord>,
    ledger: Vec<LedgerRecord>,
    completed: Vec<SpanSummary>,
    /// Column lengths at the end of the last delivery.
    settled: Counts,
    /// Id of the next packet record: 1 on an engine's log; shard logs of
    /// the parallel engine count up from their own provisional base.
    next_id: u64,
    dropped: u64,
    /// Armed by [`Trace::set_participants`].
    fold: Option<Box<SpanFold>>,
}

impl Trace {
    /// Default bound on retained records.
    pub const DEFAULT_CAPACITY: usize = 1 << 21;

    fn new(enabled: bool, capacity: usize, next_id: u64) -> Self {
        Trace {
            enabled,
            capacity,
            spans: Vec::new(),
            packets: Vec::new(),
            ledger: Vec::new(),
            completed: Vec::new(),
            settled: Counts::default(),
            next_id,
            dropped: 0,
            fold: None,
        }
    }

    /// A disabled log: records nothing and allocates nothing.
    pub fn disabled() -> Self {
        Self::new(false, Self::DEFAULT_CAPACITY, 1)
    }

    /// An enabled log retaining at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be non-zero");
        let mut log = Self::new(true, capacity, 1);
        log.spans.reserve(capacity.min(1024));
        log
    }

    /// A parallel-engine shard's log: unbounded, never folding, and handing
    /// out packet ids from `first_id` on.
    pub(crate) fn shard(first_id: u64) -> Self {
        Self::new(false, usize::MAX, first_id)
    }

    /// Is recording active?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enable recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Arm the span fold: each `(group, seq)` span closes on its `n`-th
    /// `OpEnd`. Without it the log folds nothing.
    pub fn set_participants(&mut self, n: u32) {
        self.fold = Some(Box::new(SpanFold::new(n)));
    }

    /// Append a span record and fold it.
    pub fn record_span(&mut self, time: SimTime, component: ComponentId, event: SpanEvent) {
        if !self.enabled {
            return;
        }
        self.spans.push(TraceRecord {
            time,
            component,
            event,
        });
        if let Some(fold) = self.fold.as_deref_mut() {
            self.completed.extend(fold.observe(time, &event));
        }
    }

    /// Append a packet record, returning its id ([`CauseId::NONE`] while
    /// disabled).
    pub fn record_packet(
        &mut self,
        time: SimTime,
        component: ComponentId,
        log: PacketLog,
    ) -> CauseId {
        self.push_packet(PacketRecord {
            id: CauseId::NONE,
            parent: log.parent,
            time,
            component,
            kind: log.kind,
            src: log.src,
            dst: log.dst,
            group: log.group,
            seq: log.seq,
            a: log.a,
            b: log.b,
        })
    }

    /// Append `rec` under the next id, which it returns.
    pub(crate) fn push_packet(&mut self, mut rec: PacketRecord) -> CauseId {
        if !self.enabled {
            return CauseId::NONE;
        }
        rec.id = CauseId(self.next_id);
        self.next_id += 1;
        self.packets.push(rec);
        rec.id
    }

    /// Append an occupancy record.
    pub fn record_ledger(&mut self, rec: LedgerRecord) {
        if self.enabled {
            self.ledger.push(rec);
        }
    }

    fn lens(&self) -> Counts {
        Counts {
            spans: self.spans.len(),
            packets: self.packets.len(),
            ledger: self.ledger.len(),
            completed: self.completed.len(),
        }
    }

    /// End a delivery: apply the bound to the records appended since the
    /// last delivery ended, dropping the overflow in column order, and
    /// return what the delivery kept in each column.
    pub(crate) fn settle(&mut self) -> Counts {
        let floor = self.settled;
        let retained =
            self.spans.len() + self.completed.len() + self.packets.len() + self.ledger.len();
        if let Some(mut over) = retained.checked_sub(self.capacity) {
            let mut cut = |len: usize, floor: usize| {
                let n = over.min(len - floor);
                over -= n;
                self.dropped += n as u64;
                len - n
            };
            let keep = cut(self.ledger.len(), floor.ledger);
            self.ledger.truncate(keep);
            let keep = cut(self.packets.len(), floor.packets);
            self.packets.truncate(keep);
            let keep = cut(self.completed.len(), floor.completed);
            self.completed.truncate(keep);
            let keep = cut(self.spans.len(), floor.spans);
            self.spans.truncate(keep);
        }
        self.settled = self.lens();
        Counts {
            spans: self.settled.spans - floor.spans,
            packets: self.settled.packets - floor.packets,
            ledger: self.settled.ledger - floor.ledger,
            completed: self.settled.completed - floor.completed,
        }
    }

    /// Empty the columns of a shard log after the merge; packet ids keep
    /// counting.
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
        self.packets.clear();
        self.ledger.clear();
        self.completed.clear();
        self.settled = Counts::default();
    }

    /// Records dropped because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of span records retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no span records are retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Retained span records in emission order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.spans.iter()
    }

    /// Span records with a given label, in emission order.
    pub fn with_label<'a>(
        &'a self,
        label: &'static str,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.iter().filter(move |r| r.label() == label)
    }

    /// Count of span records with a given label.
    pub fn count(&self, label: &'static str) -> usize {
        self.with_label(label).count()
    }

    /// Retained packet records in id order.
    pub fn packets(&self) -> &[PacketRecord] {
        &self.packets
    }

    /// Retained occupancy records in emission order.
    pub fn ledger(&self) -> &[LedgerRecord] {
        &self.ledger
    }

    /// Retained closed spans in completion order.
    pub fn completed(&self) -> &[SpanSummary] {
        &self.completed
    }

    /// Phase events the fold saw while no span was open.
    pub fn orphaned(&self) -> u64 {
        self.fold.as_deref().map_or(0, |f| f.orphaned)
    }

    /// The fold's non-empty latency histograms in name order:
    /// `flight.op_total`, then `flight.phase.<name>` sorted by phase name.
    pub fn hists(&self) -> Vec<(&'static str, &Histogram)> {
        self.fold.as_deref().map_or_else(Vec::new, SpanFold::hists)
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Trace(enabled={}, spans={}, packets={}, ledger={}, completed={}, dropped={})",
            self.enabled,
            self.spans.len(),
            self.packets.len(),
            self.ledger.len(),
            self.completed.len(),
            self.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalKind;
    use crate::ledger::{LedgerOp, Owner, ResKind, NO_UNIT};

    fn ns(t: u64) -> SimTime {
        SimTime::from_ns(t)
    }

    /// Append a span record carrying `n` in the first payload word: a NACK
    /// to node `n` when `nack`, else a fire towards node `n`.
    fn span(t: &mut Trace, at: u64, nack: bool, n: u64) {
        let event = if nack {
            SpanEvent::Nack { dst: n, round: 0 }
        } else {
            SpanEvent::Fire { unit: 0, dst: n }
        };
        t.record_span(ns(at), ComponentId(0), event);
    }

    fn packet(t: &mut Trace, at: u64, parent: CauseId) -> CauseId {
        t.record_packet(
            ns(at),
            ComponentId(0),
            PacketLog::new(parent, CausalKind::Fire),
        )
    }

    fn hold(t: &mut Trace, at: u64) {
        t.record_ledger(LedgerRecord {
            t0: ns(at),
            t1: ns(at + 5),
            component: ComponentId(0),
            op: LedgerOp::Hold,
            res: ResKind::NicCpu,
            node: 0,
            unit: NO_UNIT,
            owner: Owner::fabric(0),
        });
    }

    fn dst(r: &TraceRecord) -> u64 {
        match r.event {
            SpanEvent::Nack { dst, .. } | SpanEvent::Fire { dst, .. } => dst,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disabled_log_records_nothing_and_allocates_nothing() {
        let mut t = Trace::disabled();
        span(&mut t, 1, false, 0);
        assert_eq!(packet(&mut t, 2, CauseId::NONE), CauseId::NONE);
        hold(&mut t, 3);
        assert!(!t.is_enabled());
        assert!(t.is_empty() && t.packets().is_empty() && t.ledger().is_empty());
        assert_eq!(
            (
                t.spans.capacity(),
                t.packets.capacity(),
                t.ledger.capacity()
            ),
            (0, 0, 0)
        );
        assert!(t.fold.is_none() && t.hists().is_empty());
    }

    #[test]
    fn records_in_order() {
        let mut t = Trace::with_capacity(8);
        for i in 0..5 {
            span(&mut t, i, false, i);
        }
        let seen: Vec<u64> = t.iter().map(dst).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn label_filters() {
        let mut t = Trace::with_capacity(16);
        span(&mut t, 0, true, 1);
        span(&mut t, 1, false, 2);
        span(&mut t, 2, true, 3);
        assert_eq!(t.count("nack"), 2);
        assert_eq!(t.count("fire"), 1);
        assert_eq!(t.count("wire"), 0);
        let nacks: Vec<u64> = t.with_label("nack").map(dst).collect();
        assert_eq!(nacks, vec![1, 3]);
        let r = t.with_label("nack").next().unwrap();
        assert_eq!(r.event, SpanEvent::Nack { dst: 1, round: 0 });
    }

    #[test]
    fn full_log_drops_the_newcomer_of_any_kind_once() {
        let mut t = Trace::with_capacity(3);
        span(&mut t, 0, false, 0);
        let first = packet(&mut t, 1, CauseId::NONE);
        hold(&mut t, 2);
        t.settle();
        assert_eq!(t.dropped(), 0);
        // One newcomer per delivery, one of each kind.
        span(&mut t, 3, false, 9);
        t.settle();
        let late = packet(&mut t, 4, first);
        t.settle();
        hold(&mut t, 5);
        t.settle();
        assert_eq!(t.dropped(), 3);
        assert_eq!((t.len(), t.packets().len(), t.ledger().len()), (1, 1, 1));
        assert_eq!(t.iter().map(dst).collect::<Vec<_>>(), vec![0]);
        // The dropped packet still took the next id, so a child of it
        // names a hole.
        assert_eq!((first, late), (CauseId(1), CauseId(2)));
        assert_eq!(packet(&mut t, 6, late), CauseId(3));
        assert!(crate::causal::chain_to(t.packets(), late).is_empty());
    }

    #[test]
    fn delivery_that_fills_the_log_keeps_column_order() {
        let mut t = Trace::with_capacity(3);
        hold(&mut t, 0);
        packet(&mut t, 1, CauseId::NONE);
        span(&mut t, 2, false, 1);
        span(&mut t, 3, false, 2);
        t.settle();
        // Spans first, then packets: the ledger record, emitted first,
        // is the one dropped.
        assert_eq!((t.len(), t.packets().len(), t.ledger().len()), (2, 1, 0));
        assert_eq!(t.dropped(), 1);
    }

    /// Closed spans count against the bound, and a span that closes after
    /// the log filled still reaches the histograms.
    #[test]
    fn span_closing_after_the_log_filled_reaches_the_histograms() {
        let mut t = Trace::with_capacity(12);
        t.set_participants(1);
        for seq in 0..5u64 {
            t.record_span(
                ns(seq * 100),
                ComponentId(0),
                SpanEvent::OpBegin { group: 9, seq },
            );
            t.record_span(
                ns(seq * 100 + 10),
                ComponentId(0),
                SpanEvent::OpEnd { group: 9, seq },
            );
            t.settle();
        }
        // Each op retains 2 span records and 1 closed span: 4 ops fit.
        assert_eq!((t.len(), t.completed().len(), t.dropped()), (8, 4, 3));
        let hists = t.hists();
        assert_eq!(hists[0].0, "flight.op_total");
        assert_eq!((hists[0].1.count(), hists[0].1.max()), (5, 10));
    }

    #[test]
    fn without_participants_the_log_folds_nothing() {
        let mut t = Trace::with_capacity(8);
        t.record_span(
            ns(0),
            ComponentId(0),
            SpanEvent::OpBegin { group: 1, seq: 0 },
        );
        t.record_span(ns(5), ComponentId(0), SpanEvent::OpEnd { group: 1, seq: 0 });
        assert_eq!(t.len(), 2);
        assert!(t.completed().is_empty() && t.hists().is_empty());
        assert_eq!(t.orphaned(), 0);
    }

    #[test]
    fn enable_from_disabled_uses_default_capacity() {
        let mut t = Trace::disabled();
        t.enable();
        assert!(t.is_enabled());
        span(&mut t, 0, false, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.capacity, Trace::DEFAULT_CAPACITY);
    }
}
