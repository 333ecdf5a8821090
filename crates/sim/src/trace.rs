//! Optional event tracing.
//!
//! A [`Trace`] is a bounded ring of `(time, component, event)` records,
//! where the payload is a typed [`SpanEvent`] (see [`crate::span`]). It is
//! disabled by default (zero cost beyond a branch); tests enable it to
//! assert fine-grained protocol behaviour, e.g. "the barrier send token
//! never waited behind a point-to-point token" or "no ACK was emitted for a
//! collective packet".

use crate::engine::ComponentId;
use crate::span::SpanEvent;
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

/// A bounded trace ring. When full, the oldest records are dropped and
/// [`Trace::dropped`] counts how many.
pub struct Trace {
    enabled: bool,
    capacity: usize,
    records: Vec<TraceRecord>,
    start: usize,
    dropped: u64,
}

impl Trace {
    /// Default ring capacity when enabled.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Create a disabled trace.
    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            capacity: 0,
            records: Vec::new(),
            start: 0,
            dropped: 0,
        }
    }

    /// Create an enabled trace with the given ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be non-zero");
        Trace {
            enabled: true,
            capacity,
            records: Vec::with_capacity(capacity.min(1024)),
            start: 0,
            dropped: 0,
        }
    }

    /// Is recording active?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enable recording (with [`Self::DEFAULT_CAPACITY`] if previously
    /// disabled).
    pub fn enable(&mut self) {
        if self.capacity == 0 {
            self.capacity = Self::DEFAULT_CAPACITY;
        }
        self.enabled = true;
    }

    /// Append a record if enabled.
    #[inline]
    pub fn emit(&mut self, rec: TraceRecord) {
        if !self.enabled {
            return;
        }
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.start] = rec;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over retained records in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        let (tail, head) = self.records.split_at(self.start);
        head.iter().chain(tail.iter())
    }

    /// Records with a given label, in emission order.
    pub fn with_label<'a>(
        &'a self,
        label: &'static str,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.iter().filter(move |r| r.label() == label)
    }

    /// Count of records with a given label (among retained records).
    pub fn count(&self, label: &'static str) -> usize {
        self.with_label(label).count()
    }

    /// Drop all retained records (keeps enabled state).
    pub fn clear(&mut self) {
        self.records.clear();
        self.start = 0;
        self.dropped = 0;
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Trace(enabled={}, len={}, dropped={})",
            self.enabled,
            self.len(),
            self.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record carrying `n` in the first payload word: a NACK to node `n`
    /// when `nack`, else a fire towards node `n`.
    fn rec(t: u64, nack: bool, n: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_ns(t),
            component: ComponentId(0),
            event: if nack {
                SpanEvent::Nack { dst: n, round: 0 }
            } else {
                SpanEvent::Fire { unit: 0, dst: n }
            },
        }
    }

    fn dst(r: &TraceRecord) -> u64 {
        match r.event {
            SpanEvent::Nack { dst, .. } | SpanEvent::Fire { dst, .. } => dst,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.emit(rec(1, false, 0));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn records_in_order() {
        let mut t = Trace::with_capacity(8);
        for i in 0..5 {
            t.emit(rec(i, false, i));
        }
        let seen: Vec<u64> = t.iter().map(dst).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::with_capacity(4);
        for i in 0..7 {
            t.emit(rec(i, false, i));
        }
        let seen: Vec<u64> = t.iter().map(dst).collect();
        assert_eq!(seen, vec![3, 4, 5, 6]);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn label_filters() {
        let mut t = Trace::with_capacity(16);
        t.emit(rec(0, true, 1));
        t.emit(rec(1, false, 2));
        t.emit(rec(2, true, 3));
        assert_eq!(t.count("nack"), 2);
        assert_eq!(t.count("fire"), 1);
        assert_eq!(t.count("wire"), 0);
        let nacks: Vec<u64> = t.with_label("nack").map(dst).collect();
        assert_eq!(nacks, vec![1, 3]);
        let r = t.with_label("nack").next().unwrap();
        assert_eq!(r.event, SpanEvent::Nack { dst: 1, round: 0 });
    }

    #[test]
    fn clear_keeps_enabled() {
        let mut t = Trace::with_capacity(4);
        t.emit(rec(0, false, 0));
        t.clear();
        assert!(t.is_empty());
        assert!(t.is_enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn enable_from_disabled_uses_default_capacity() {
        let mut t = Trace::disabled();
        t.enable();
        assert!(t.is_enabled());
        t.emit(rec(0, false, 0));
        assert_eq!(t.len(), 1);
    }
}
