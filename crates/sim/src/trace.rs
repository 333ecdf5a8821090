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
//! Each column is stored varint-encoded ([`crate::column`]): about 6 to 12
//! bytes per record instead of the structs' 48 to 80. Readers get a
//! [`Records`] view per column that counts in O(1) and decodes the
//! records by value; an analysis that needs random access decodes a
//! column once with [`Records::to_vec`].
//!
//! A log is disabled by default. The engine reads the switch once per
//! delivery, and every emit call takes a closure that builds its record
//! behind that branch, so while the log is off an emit site costs one
//! branch and builds nothing (checked by `engine_sweep`). Tests enable it to assert fine-grained
//! protocol behaviour, e.g. "the barrier send token never waited behind a
//! point-to-point token" or "no ACK was emitted for a collective packet".
//!
//! ## The bound
//!
//! The bound counts records, not bytes: span, packet and ledger records
//! and closed spans. The engine applies it at the end of every delivery: a
//! full log keeps what it has and counts each newcomer once in
//! [`Trace::dropped`], without encoding it. If the delivery that fills the
//! log emitted more than fits, its records take the last slots in column
//! order — span records, closed spans, packets, then ledger records — not
//! in emission order. The parallel engine's merge replays a delivery
//! column by column, so this rule keeps exactly the records the
//! sequential run keeps. A dropped packet still takes its id, so its
//! children name a hole, never a wrong parent, and the kept packets are
//! always a prefix of the ids handed out, which is what lets the packet
//! column leave ids unstored. The fold sees every span event, stored or
//! dropped, so the histograms stay complete.

use crate::causal::{CauseId, PacketLog, PacketRecord};
use crate::column::{Decode, Encoded, Mark, Records};
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

/// Records one delivery kept in each column.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Counts {
    pub(crate) spans: usize,
    pub(crate) packets: usize,
    pub(crate) ledger: usize,
}

/// The log's boundary at the end of a delivery: where [`Trace::settle`]
/// cuts back to.
#[derive(Clone, Copy, Debug)]
struct Marks {
    spans: Mark,
    packets: Mark,
    ledger: Mark,
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
    spans: Encoded<TraceRecord>,
    packets: Encoded<PacketRecord>,
    ledger: Encoded<LedgerRecord>,
    completed: Vec<SpanSummary>,
    /// The boundary at the end of the last delivery.
    settled: Marks,
    /// True once a delivery ended with the log at its bound: every later
    /// record is dropped, so appends only count it.
    full: bool,
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
        let spans = Encoded::new(next_id);
        let packets = Encoded::new(next_id);
        let ledger = Encoded::new(next_id);
        Trace {
            enabled,
            capacity,
            settled: Marks {
                spans: spans.mark(),
                packets: packets.mark(),
                ledger: ledger.mark(),
                completed: 0,
            },
            full: false,
            spans,
            packets,
            ledger,
            completed: Vec::new(),
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
        let closed = self
            .fold
            .as_deref_mut()
            .and_then(|f| f.observe(time, &event));
        if self.full {
            self.dropped += 1 + u64::from(closed.is_some());
            return;
        }
        self.spans.push(&TraceRecord {
            time,
            component,
            event,
        });
        self.completed.extend(closed);
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

    /// Append `rec` under the next id, which it returns. The column stores
    /// no id: a kept record's id is its position (see [`crate::column`]).
    pub(crate) fn push_packet(&mut self, rec: PacketRecord) -> CauseId {
        if !self.enabled {
            return CauseId::NONE;
        }
        let id = CauseId(self.next_id);
        self.next_id += 1;
        if self.full {
            self.dropped += 1;
        } else {
            self.packets.push(&rec);
        }
        id
    }

    /// Append an occupancy record.
    pub fn record_ledger(&mut self, rec: LedgerRecord) {
        if !self.enabled {
            return;
        }
        if self.full {
            self.dropped += 1;
        } else {
            self.ledger.push(&rec);
        }
    }

    fn marks(&self) -> Marks {
        Marks {
            spans: self.spans.mark(),
            packets: self.packets.mark(),
            ledger: self.ledger.mark(),
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
            let keep = cut(self.ledger.len(), floor.ledger.len);
            self.ledger.truncate(floor.ledger, keep);
            let keep = cut(self.packets.len(), floor.packets.len);
            self.packets.truncate(floor.packets, keep);
            let keep = cut(self.completed.len(), floor.completed);
            self.completed.truncate(keep);
            let keep = cut(self.spans.len(), floor.spans.len);
            self.spans.truncate(floor.spans, keep);
            self.full = true;
        }
        self.settled = self.marks();
        Counts {
            spans: self.settled.spans.len - floor.spans.len,
            packets: self.settled.packets.len - floor.packets.len,
            ledger: self.settled.ledger.len - floor.ledger.len,
        }
    }

    /// Empty the columns of a shard log after the merge; packet ids keep
    /// counting.
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
        self.packets.clear();
        self.ledger.clear();
        self.completed.clear();
        self.settled = self.marks();
    }

    /// Records dropped because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Encoded size of the span, packet and ledger columns in bytes.
    pub fn bytes(&self) -> usize {
        self.spans.bytes() + self.packets.bytes() + self.ledger.bytes()
    }

    /// Number of span records retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no span records are retained.
    pub fn is_empty(&self) -> bool {
        self.spans.len() == 0
    }

    /// Retained span records in emission order.
    pub fn spans(&self) -> Records<'_, TraceRecord> {
        self.spans.records()
    }

    /// Retained span records in emission order, decoded.
    pub fn iter(&self) -> Decode<'_, TraceRecord> {
        self.spans().iter()
    }

    /// Span records with a given label, in emission order.
    pub fn with_label(&self, label: &'static str) -> impl Iterator<Item = TraceRecord> + '_ {
        self.iter().filter(move |r| r.label() == label)
    }

    /// Count of span records with a given label.
    pub fn count(&self, label: &'static str) -> usize {
        self.with_label(label).count()
    }

    /// Retained packet records in id order.
    pub fn packets(&self) -> Records<'_, PacketRecord> {
        self.packets.records()
    }

    /// Retained occupancy records in emission order.
    pub fn ledger(&self) -> Records<'_, LedgerRecord> {
        self.ledger.records()
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
    use crate::column::{KINDS, OPS, OWNERS, RESOURCES};
    use crate::ledger::{LedgerOp, Owner, ResKind, NO_UNIT};
    use proptest::prelude::*;

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

    fn dst(r: TraceRecord) -> u64 {
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
                t.ledger.capacity(),
                t.bytes()
            ),
            (0, 0, 0, 0)
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
        assert!(crate::causal::chain_to(&t.packets().to_vec(), late).is_empty());
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

    /// A plain-`Vec` reference log: the storage the encoded columns
    /// replaced, with the same bound and drop rule.
    struct Model {
        cap: usize,
        spans: Vec<TraceRecord>,
        packets: Vec<PacketRecord>,
        ledger: Vec<LedgerRecord>,
        floor: [usize; 3],
        next_id: u64,
        dropped: u64,
    }

    impl Model {
        fn settle(&mut self) {
            let retained = self.spans.len() + self.packets.len() + self.ledger.len();
            let mut over = retained.saturating_sub(self.cap);
            let [fs, fp, fl] = self.floor;
            let mut cut = |len: usize, floor: usize| {
                let n = over.min(len - floor);
                over -= n;
                self.dropped += n as u64;
                len - n
            };
            let keep = cut(self.ledger.len(), fl);
            self.ledger.truncate(keep);
            let keep = cut(self.packets.len(), fp);
            self.packets.truncate(keep);
            let keep = cut(self.spans.len(), fs);
            self.spans.truncate(keep);
            self.floor = [self.spans.len(), self.packets.len(), self.ledger.len()];
        }
    }

    /// Bytes of one varint.
    fn vlen(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
    }

    /// Bytes of a signed delta `v - prev`, zigzag-encoded.
    fn dlen(prev: u64, v: u64) -> usize {
        let d = v.wrapping_sub(prev);
        vlen((d << 1) ^ ((d as i64 >> 63) as u64))
    }

    /// Bytes of a field stored plus one.
    fn klen(v: u64) -> usize {
        vlen(v.wrapping_add(1))
    }

    /// The size the column encoding promises for the model's records
    /// (see [`crate::column`]): one byte per tag, a varint per field,
    /// times as deltas, parents relative to the record's own id, and
    /// sentinel-bearing fields shifted by one.
    fn encoded_size(m: &Model) -> usize {
        let mut n = 0;
        let mut prev = 0;
        for r in &m.spans {
            n += dlen(prev, r.time.as_ns()) + vlen(r.component.0 as u64) + 1;
            prev = r.time.as_ns();
            n += match r.event {
                SpanEvent::OpBegin { group, seq } | SpanEvent::OpEnd { group, seq } => {
                    klen(group) + klen(seq)
                }
                SpanEvent::Fire { unit, dst } => klen(unit) + klen(dst),
                SpanEvent::Wire { src, dst, bytes } => klen(src) + klen(dst) + vlen(bytes),
                SpanEvent::Enqueue { dst, depth: y }
                | SpanEvent::Arrive { src: dst, info: y }
                | SpanEvent::Notify {
                    unit: dst,
                    cookie: y,
                }
                | SpanEvent::Nack { dst, round: y }
                | SpanEvent::Retransmit { dst, round: y } => klen(dst) + vlen(y),
            };
        }
        prev = 0;
        for r in &m.packets {
            n += dlen(r.id.0, r.parent.0) + dlen(prev, r.time.as_ns());
            prev = r.time.as_ns();
            n += vlen(r.component.0 as u64) + 1;
            n += vlen(u64::from(r.src.wrapping_add(1))) + vlen(u64::from(r.dst.wrapping_add(1)));
            n += klen(r.group) + klen(r.seq) + vlen(r.a) + vlen(r.b);
        }
        prev = 0;
        for r in &m.ledger {
            let (t0, t1) = (r.t0.as_ns(), r.t1.as_ns());
            n += dlen(prev, t0) + vlen(t1.wrapping_sub(t0));
            prev = t0;
            n += vlen(r.component.0 as u64) + 1 + vlen(u64::from(r.node)) + klen(r.unit);
            n += klen(r.owner.group) + klen(r.owner.seq) + vlen(u64::from(r.owner.rank));
        }
        n
    }

    fn span_event(variant: u64, f: &[u64]) -> SpanEvent {
        let (x, y) = (f[0], f[1]);
        match variant % 9 {
            0 => SpanEvent::OpBegin { group: x, seq: y },
            1 => SpanEvent::OpEnd { group: x, seq: y },
            2 => SpanEvent::Enqueue { dst: x, depth: y },
            3 => SpanEvent::Fire { unit: x, dst: y },
            4 => SpanEvent::Wire {
                src: x,
                dst: y,
                bytes: f[2],
            },
            5 => SpanEvent::Arrive { src: x, info: y },
            6 => SpanEvent::Notify { unit: x, cookie: y },
            7 => SpanEvent::Nack { dst: x, round: y },
            _ => SpanEvent::Retransmit { dst: x, round: y },
        }
    }

    /// A field value: zero, a sentinel, the value below one, a small
    /// number or any `u64`.
    fn field() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            Just(u64::MAX - 1),
            Just(u64::from(u32::MAX)),
            0u64..300,
            any::<u64>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random appends to all three columns, interleaved with the end
        /// of deliveries under a small bound, decode to exactly what a
        /// plain-`Vec` log keeps: same records, same ids (packets are
        /// handed ids from a shard-like base too, and name parents on both
        /// sides of their own id), same drop count, and the byte count the
        /// encoding promises.
        #[test]
        fn encoded_columns_match_a_vec_log(
            cap in 1usize..40,
            first_id in prop_oneof![Just(1u64), 1u64..1 << 42],
            ops in prop::collection::vec(
                (0u64..1 << 16, prop::collection::vec(field(), 8..9)),
                0..120,
            ),
        ) {
            let mut t = Trace::new(true, cap, first_id);
            let mut m = Model {
                cap,
                spans: Vec::new(),
                packets: Vec::new(),
                ledger: Vec::new(),
                floor: [0; 3],
                next_id: first_id,
                dropped: 0,
            };
            for (sel, f) in &ops {
                let sub = sel / 4;
                match sel % 4 {
                    0 => {
                        let r = TraceRecord {
                            time: ns(f[3]),
                            component: ComponentId(f[4] as usize),
                            event: span_event(sub, f),
                        };
                        t.record_span(r.time, r.component, r.event);
                        m.spans.push(r);
                    }
                    1 => {
                        let own = m.next_id;
                        let parent = match (sub / 13) % 4 {
                            0 => CauseId::NONE,
                            1 => CauseId(own.wrapping_sub(f[5] % 70)),
                            2 => CauseId(own.wrapping_add(f[5] % 70)),
                            _ => CauseId(f[5]),
                        };
                        let r = PacketRecord {
                            id: CauseId(own),
                            parent,
                            time: ns(f[3]),
                            component: ComponentId(f[4] as usize),
                            kind: KINDS[(sub % 13) as usize],
                            src: f[0] as u32,
                            dst: f[1] as u32,
                            group: f[0],
                            seq: f[1],
                            a: f[2],
                            b: f[6],
                        };
                        let log = PacketLog::new(parent, r.kind)
                            .nodes(r.src, r.dst)
                            .key(r.group, r.seq)
                            .detail(r.a, r.b);
                        let id = t.record_packet(r.time, r.component, log);
                        prop_assert_eq!(id, r.id);
                        m.next_id += 1;
                        m.packets.push(r);
                    }
                    2 => {
                        let r = LedgerRecord {
                            t0: ns(f[3]),
                            t1: ns(f[5]),
                            component: ComponentId(f[4] as usize),
                            op: OPS[(sub % 4) as usize],
                            res: RESOURCES[(sub / 4 % 8) as usize],
                            node: f[6] as u32,
                            unit: f[7],
                            owner: Owner {
                                kind: OWNERS[(sub / 32 % 4) as usize],
                                group: f[0],
                                seq: f[1],
                                rank: f[2] as u32,
                            },
                        };
                        t.record_ledger(r);
                        m.ledger.push(r);
                    }
                    _ => {
                        t.settle();
                        m.settle();
                    }
                }
            }
            t.settle();
            m.settle();
            prop_assert_eq!(t.spans().to_vec(), m.spans.clone());
            prop_assert_eq!(t.packets().to_vec(), m.packets.clone());
            prop_assert_eq!(t.ledger().to_vec(), m.ledger.clone());
            prop_assert_eq!(
                (t.len(), t.packets().len(), t.ledger().len()),
                (m.spans.len(), m.packets.len(), m.ledger.len())
            );
            prop_assert_eq!(t.dropped(), m.dropped);
            prop_assert_eq!(t.bytes(), encoded_size(&m));
        }
    }
}
