//! The record log's storage: varint-encoded columns.
//!
//! Each column of the record log ([`crate::Trace`]) is one byte vector of
//! records encoded back to back plus a record count, and readers decode it
//! on the fly through a [`Records`] view. The encoding is lossless: every
//! record decodes to exactly the struct that was appended.
//!
//! - Every integer field is an unsigned LEB128 varint, and every enum one
//!   tag byte: the [`SpanEvent`] variant, the [`CausalKind`], and on the
//!   ledger one byte for [`LedgerOp`], [`ResKind`] and [`OwnerKind`]
//!   together.
//! - `time` (the ledger's `t0`) is a zigzag delta from the previous record
//!   of the same column; the ledger's `t1` is stored as `t1 - t0`.
//! - A packet's `id` is not stored: it is the column's first id plus the
//!   record's index. The kept packets are always a prefix of the ids the
//!   log handed out (a full log drops every later record), so the
//!   positional id is the real one. `parent` is a zigzag delta from the
//!   record's own id; it is negative across the parallel engine's shard id
//!   bases.
//! - `group`, `seq`, `unit`, `src` and `dst` are stored plus one,
//!   wrapping, so their all-ones sentinels ([`crate::NO_KEY`],
//!   [`crate::NO_NODE`], [`crate::NO_UNIT`]) cost one byte.
//!
//! On a 64-node lossy GM NIC-DS capture this takes about 6 bytes per span
//! record and 12 per packet or ledger record, against 48, 80 and 64 for
//! the structs themselves.

use crate::causal::{CausalKind, CauseId, PacketRecord};
use crate::engine::ComponentId;
use crate::ledger::{LedgerOp, LedgerRecord, Owner, OwnerKind, ResKind};
use crate::span::SpanEvent;
use crate::time::SimTime;
use crate::trace::TraceRecord;
use sealed::{Base, Codec};
use std::fmt;
use std::marker::PhantomData;

mod sealed {
    /// The delta bases a column carries from one record to the next.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Base {
        /// Time of the previous record (its `t0` on the ledger).
        pub(super) time: u64,
        /// Id of the next packet record.
        pub(super) id: u64,
    }

    /// The encoding of one record type.
    pub trait Codec: Copy {
        /// Append `self` to `out`, moving `base` past it.
        fn encode(&self, base: &mut Base, out: &mut Vec<u8>);
        /// Decode the record at `bytes[*at..]`, moving `at` and `base` past
        /// it.
        fn decode(base: &mut Base, bytes: &[u8], at: &mut usize) -> Self;
    }
}

/// A record type the log stores in an encoded column: [`TraceRecord`],
/// [`PacketRecord`] or [`LedgerRecord`].
pub trait Record: Codec {}

impl Record for TraceRecord {}
impl Record for PacketRecord {}
impl Record for LedgerRecord {}

/// Most bytes one record encodes to: a packet record's seven varints of up
/// to ten bytes, two of up to five, and its tag byte.
const MAX_RECORD: usize = 81;

#[inline]
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[inline]
fn get(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[inline]
fn tag(bytes: &[u8], at: &mut usize) -> usize {
    let t = bytes[*at];
    *at += 1;
    usize::from(t)
}

/// Zigzag: small magnitudes of either sign become small unsigned values.
#[inline]
fn zig(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

#[inline]
fn unzig(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

/// `v` as a zigzag delta from `prev`.
#[inline]
fn put_delta(out: &mut Vec<u8>, prev: u64, v: u64) {
    put(out, zig(v.wrapping_sub(prev)));
}

#[inline]
fn get_delta(bytes: &[u8], at: &mut usize, prev: u64) -> u64 {
    prev.wrapping_add(unzig(get(bytes, at)))
}

/// A field whose all-ones sentinel should cost one byte: stored plus one.
#[inline]
fn put_key(out: &mut Vec<u8>, v: u64) {
    put(out, v.wrapping_add(1));
}

#[inline]
fn get_key(bytes: &[u8], at: &mut usize) -> u64 {
    get(bytes, at).wrapping_sub(1)
}

#[inline]
fn put_node(out: &mut Vec<u8>, v: u32) {
    put(out, u64::from(v.wrapping_add(1)));
}

#[inline]
fn get_node(bytes: &[u8], at: &mut usize) -> u32 {
    (get(bytes, at) as u32).wrapping_sub(1)
}

#[inline]
fn get_u32(bytes: &[u8], at: &mut usize) -> u32 {
    get(bytes, at) as u32
}

#[inline]
fn get_component(bytes: &[u8], at: &mut usize) -> ComponentId {
    ComponentId(get(bytes, at) as usize)
}

/// Every [`CausalKind`] in declaration order, so `KINDS[k as usize] == k`.
pub(crate) const KINDS: [CausalKind; 13] = [
    CausalKind::HostEnter,
    CausalKind::HostPost,
    CausalKind::NicDispatch,
    CausalKind::DmaStart,
    CausalKind::DmaDone,
    CausalKind::Fire,
    CausalKind::Wire,
    CausalKind::Drop,
    CausalKind::Arrive,
    CausalKind::Nack,
    CausalKind::Retransmit,
    CausalKind::Notify,
    CausalKind::HostExit,
];

/// Every [`LedgerOp`] in declaration order.
pub(crate) const OPS: [LedgerOp; 4] = [
    LedgerOp::Acquire,
    LedgerOp::Release,
    LedgerOp::Hold,
    LedgerOp::Wait,
];

/// Every [`ResKind`] in declaration order.
pub(crate) const RESOURCES: [ResKind; 8] = [
    ResKind::NicCpu,
    ResKind::DmaEngine,
    ResKind::SendQueue,
    ResKind::PacketPool,
    ResKind::RecvTokens,
    ResKind::ElanEngine,
    ResKind::EventSlot,
    ResKind::LinkPort,
];

/// Every [`OwnerKind`] in declaration order.
pub(crate) const OWNERS: [OwnerKind; 4] = [
    OwnerKind::Collective,
    OwnerKind::Traffic,
    OwnerKind::P2p,
    OwnerKind::Fabric,
];

impl Codec for TraceRecord {
    #[inline]
    fn encode(&self, base: &mut Base, out: &mut Vec<u8>) {
        out.reserve(MAX_RECORD);
        let t = self.time.as_ns();
        put_delta(out, base.time, t);
        base.time = t;
        put(out, self.component.0 as u64);
        // Tag, then the two fields every variant has; `Wire` adds `bytes`.
        // The first field is always a key; the second is one for tags 0-3.
        let (tag, x, y) = match self.event {
            SpanEvent::OpBegin { group, seq } => (0, group, seq),
            SpanEvent::OpEnd { group, seq } => (1, group, seq),
            SpanEvent::Fire { unit, dst } => (2, unit, dst),
            SpanEvent::Wire { src, dst, .. } => (3, src, dst),
            SpanEvent::Enqueue { dst, depth } => (4, dst, depth),
            SpanEvent::Arrive { src, info } => (5, src, info),
            SpanEvent::Notify { unit, cookie } => (6, unit, cookie),
            SpanEvent::Nack { dst, round } => (7, dst, round),
            SpanEvent::Retransmit { dst, round } => (8, dst, round),
        };
        out.push(tag);
        put_key(out, x);
        if tag <= 3 {
            put_key(out, y);
        } else {
            put(out, y);
        }
        if let SpanEvent::Wire { bytes, .. } = self.event {
            put(out, bytes);
        }
    }

    #[inline]
    fn decode(base: &mut Base, bytes: &[u8], at: &mut usize) -> Self {
        let time = get_delta(bytes, at, base.time);
        base.time = time;
        let component = get_component(bytes, at);
        let tag = tag(bytes, at);
        let x = get_key(bytes, at);
        let y = if tag <= 3 {
            get_key(bytes, at)
        } else {
            get(bytes, at)
        };
        let event = match tag {
            0 => SpanEvent::OpBegin { group: x, seq: y },
            1 => SpanEvent::OpEnd { group: x, seq: y },
            2 => SpanEvent::Fire { unit: x, dst: y },
            3 => SpanEvent::Wire {
                src: x,
                dst: y,
                bytes: get(bytes, at),
            },
            4 => SpanEvent::Enqueue { dst: x, depth: y },
            5 => SpanEvent::Arrive { src: x, info: y },
            6 => SpanEvent::Notify { unit: x, cookie: y },
            7 => SpanEvent::Nack { dst: x, round: y },
            8 => SpanEvent::Retransmit { dst: x, round: y },
            _ => unreachable!("span tag {tag} was never encoded"),
        };
        TraceRecord {
            time: SimTime(time),
            component,
            event,
        }
    }
}

impl Codec for PacketRecord {
    #[inline]
    fn encode(&self, base: &mut Base, out: &mut Vec<u8>) {
        out.reserve(MAX_RECORD);
        put_delta(out, base.id, self.parent.0);
        base.id += 1;
        let t = self.time.as_ns();
        put_delta(out, base.time, t);
        base.time = t;
        put(out, self.component.0 as u64);
        out.push(self.kind as u8);
        put_node(out, self.src);
        put_node(out, self.dst);
        put_key(out, self.group);
        put_key(out, self.seq);
        put(out, self.a);
        put(out, self.b);
    }

    #[inline]
    fn decode(base: &mut Base, bytes: &[u8], at: &mut usize) -> Self {
        let id = base.id;
        base.id += 1;
        let parent = get_delta(bytes, at, id);
        let time = get_delta(bytes, at, base.time);
        base.time = time;
        PacketRecord {
            id: CauseId(id),
            parent: CauseId(parent),
            time: SimTime(time),
            component: get_component(bytes, at),
            kind: KINDS[tag(bytes, at)],
            src: get_node(bytes, at),
            dst: get_node(bytes, at),
            group: get_key(bytes, at),
            seq: get_key(bytes, at),
            a: get(bytes, at),
            b: get(bytes, at),
        }
    }
}

impl Codec for LedgerRecord {
    #[inline]
    fn encode(&self, base: &mut Base, out: &mut Vec<u8>) {
        out.reserve(MAX_RECORD);
        let (t0, t1) = (self.t0.as_ns(), self.t1.as_ns());
        put_delta(out, base.time, t0);
        base.time = t0;
        put(out, t1.wrapping_sub(t0));
        put(out, self.component.0 as u64);
        out.push(((self.op as u8) << 5) | ((self.res as u8) << 2) | self.owner.kind as u8);
        put(out, u64::from(self.node));
        put_key(out, self.unit);
        put_key(out, self.owner.group);
        put_key(out, self.owner.seq);
        put(out, u64::from(self.owner.rank));
    }

    #[inline]
    fn decode(base: &mut Base, bytes: &[u8], at: &mut usize) -> Self {
        let t0 = get_delta(bytes, at, base.time);
        base.time = t0;
        let t1 = t0.wrapping_add(get(bytes, at));
        let component = get_component(bytes, at);
        let tag = tag(bytes, at);
        LedgerRecord {
            t0: SimTime(t0),
            t1: SimTime(t1),
            component,
            op: OPS[tag >> 5],
            res: RESOURCES[(tag >> 2) & 7],
            node: get_u32(bytes, at),
            unit: get_key(bytes, at),
            owner: Owner {
                kind: OWNERS[tag & 3],
                group: get_key(bytes, at),
                seq: get_key(bytes, at),
                rank: get_u32(bytes, at),
            },
        }
    }
}

/// A column's state at a record boundary: the records before it, their
/// bytes, and the delta bases after them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Mark {
    pub(crate) len: usize,
    end: usize,
    base: Base,
}

/// One column of the log: its records encoded back to back.
#[derive(Clone, Debug)]
pub(crate) struct Encoded<R> {
    bytes: Vec<u8>,
    len: usize,
    /// Delta bases before the first record.
    head: Base,
    /// Delta bases after the last record.
    tail: Base,
    _record: PhantomData<R>,
}

impl<R: Record> Encoded<R> {
    /// An empty column whose first packet id is `first_id`. Allocates
    /// nothing.
    pub(crate) fn new(first_id: u64) -> Self {
        let head = Base {
            time: 0,
            id: first_id,
        };
        Encoded {
            bytes: Vec::new(),
            len: 0,
            head,
            tail: head,
            _record: PhantomData,
        }
    }

    /// Make room for `records` more records of any size.
    pub(crate) fn reserve(&mut self, records: usize) {
        self.bytes.reserve(records * MAX_RECORD);
    }

    #[inline]
    pub(crate) fn push(&mut self, rec: &R) {
        rec.encode(&mut self.tail, &mut self.bytes);
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Encoded size in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The boundary after the last record.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            len: self.len,
            end: self.bytes.len(),
            base: self.tail,
        }
    }

    /// Keep the first `keep` records. `from` is a boundary at or before
    /// record `keep`: the cut is found by decoding forward from it, which
    /// also restores the delta bases at the cut.
    pub(crate) fn truncate(&mut self, from: Mark, keep: usize) {
        debug_assert!(from.len <= keep && keep <= self.len);
        if keep == self.len {
            return;
        }
        let (mut base, mut at) = (from.base, from.end);
        for _ in from.len..keep {
            R::decode(&mut base, &self.bytes, &mut at);
        }
        self.bytes.truncate(at);
        self.len = keep;
        self.tail = base;
    }

    /// Drop every record; the next one continues the delta bases (and the
    /// packet ids) where the last one left them.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
        self.head = self.tail;
    }

    pub(crate) fn records(&self) -> Records<'_, R> {
        Records {
            bytes: &self.bytes,
            len: self.len,
            head: self.head,
            _record: PhantomData,
        }
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.bytes.capacity()
    }
}

/// A read-only view of one column of the record log. Counting is O(1);
/// [`Records::iter`] decodes the records in order, by value.
pub struct Records<'a, R> {
    bytes: &'a [u8],
    len: usize,
    head: Base,
    _record: PhantomData<R>,
}

impl<R> Clone for Records<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for Records<'_, R> {}

impl<'a, R: Record> Records<'a, R> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records in order.
    pub fn iter(&self) -> Decode<'a, R> {
        Decode {
            bytes: self.bytes,
            at: 0,
            left: self.len,
            base: self.head,
            _record: PhantomData,
        }
    }

    /// Every record decoded into a vector, for analyses that need random
    /// access.
    pub fn to_vec(&self) -> Vec<R> {
        self.iter().collect()
    }
}

impl<'a, R: Record> IntoIterator for Records<'a, R> {
    type Item = R;
    type IntoIter = Decode<'a, R>;

    fn into_iter(self) -> Decode<'a, R> {
        self.iter()
    }
}

impl<R: Record + fmt::Debug> fmt::Debug for Records<'_, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Decoding iterator over a [`Records`] view.
pub struct Decode<'a, R> {
    bytes: &'a [u8],
    at: usize,
    left: usize,
    base: Base,
    _record: PhantomData<R>,
}

impl<R: Record> Iterator for Decode<'_, R> {
    type Item = R;

    #[inline]
    fn next(&mut self) -> Option<R> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(R::decode(&mut self.base, self.bytes, &mut self.at))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<R: Record> ExactSizeIterator for Decode<'_, R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_tables_follow_declaration_order() {
        for (i, k) in KINDS.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        for (i, op) in OPS.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
        for (i, r) in RESOURCES.iter().enumerate() {
            assert_eq!(*r as usize, i);
        }
        for (i, o) in OWNERS.iter().enumerate() {
            assert_eq!(*o as usize, i);
        }
    }

    #[test]
    fn zigzag_and_varint_round_trip_the_extremes() {
        for d in [
            0,
            1,
            2,
            63,
            64,
            u64::MAX,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) - 1,
        ] {
            assert_eq!(unzig(zig(d)), d);
            let mut out = Vec::new();
            put(&mut out, d);
            let mut at = 0;
            assert_eq!((get(&out, &mut at), at), (d, out.len()));
        }
        // Small magnitudes of either sign take one byte.
        assert_eq!((zig(0), zig(1), zig(u64::MAX)), (0, 2, 1));
    }

    fn packet(parent: u64, time: u64) -> PacketRecord {
        PacketRecord {
            id: CauseId::NONE,
            parent: CauseId(parent),
            time: SimTime(time),
            component: ComponentId(3),
            kind: CausalKind::Fire,
            src: crate::NO_NODE,
            dst: 1,
            group: crate::NO_KEY,
            seq: 0,
            a: 7,
            b: 0,
        }
    }

    /// A cut restores the delta bases at the cut, so records appended
    /// after it decode as if the cut records had never been there.
    #[test]
    fn truncate_restores_the_delta_bases_at_the_cut() {
        let mut col = Encoded::new(10);
        col.push(&packet(0, 100));
        let floor = col.mark();
        col.push(&packet(10, 900));
        col.push(&packet(11, 50));
        col.truncate(floor, 2);
        col.push(&packet(11, 120));
        let got: Vec<_> = col
            .records()
            .iter()
            .map(|r| (r.id.0, r.parent.0, r.time.0))
            .collect();
        assert_eq!(got, vec![(10, 0, 100), (11, 10, 900), (12, 11, 120)]);
        // The cut also rewound the bytes: the same records appended to a
        // fresh column take the same space.
        let mut fresh = Encoded::new(10);
        for r in col.records() {
            fresh.push(&r);
        }
        assert_eq!(fresh.bytes(), col.bytes());
    }
}
