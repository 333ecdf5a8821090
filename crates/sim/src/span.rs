//! Typed protocol events and per-operation flight recording.
//!
//! The trace layer (see [`crate::trace`]) records a typed [`SpanEvent`]
//! over the protocol phases the paper's latency decomposition cares
//! about — enqueue, fire, wire, arrive, notify, nack, retransmit — plus
//! begin/end markers for a collective operation keyed by `(group, seq)`.
//!
//! A [`FlightRecorder`] consumes the same event stream and folds it into
//! per-operation *spans*: for every `(group, seq)` pair it tracks the wall
//! window from the first `OpBegin` to the last `OpEnd` and attributes every
//! intervening segment of simulated time to the phase of the event that
//! ended it. The per-span phase sums therefore add up to the span's
//! end-to-end latency *exactly*, which is what makes the breakdown tables
//! trustworthy. Closed spans feed fixed log2 histograms ([`crate::hist`]):
//! the end-to-end total (`flight.op_total`) and one per phase
//! (`flight.phase.<name>`).
//!
//! Both the trace ring and the recorder are off by default; the engine
//! guards emission behind a single pre-computed branch per delivery so the
//! disabled path costs nothing measurable (checked by `engine_sweep`).

use crate::hist::Histogram;
use crate::time::SimTime;
use std::fmt;

/// A protocol phase that simulated time can be attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Host-side bookkeeping between operation begin/end markers.
    Host,
    /// A send sat behind earlier tokens in a NIC send queue.
    Enqueue,
    /// A NIC unit launched a packet (DMA descriptor fire / bypass send).
    Fire,
    /// A packet crossed the interconnect.
    Wire,
    /// A packet arrived and was processed by the receiving NIC.
    Arrive,
    /// The NIC notified the host that the operation completed.
    Notify,
    /// Receiver-driven flow control sent a NACK.
    Nack,
    /// A sender retransmitted after a NACK or timeout.
    Retransmit,
}

/// Number of distinct [`Phase`]s.
pub const NUM_PHASES: usize = 8;

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Host,
        Phase::Enqueue,
        Phase::Fire,
        Phase::Wire,
        Phase::Arrive,
        Phase::Notify,
        Phase::Nack,
        Phase::Retransmit,
    ];

    /// Stable lowercase name (also the trace label of the matching event).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Host => "host",
            Phase::Enqueue => "enqueue",
            Phase::Fire => "fire",
            Phase::Wire => "wire",
            Phase::Arrive => "arrive",
            Phase::Notify => "notify",
            Phase::Nack => "nack",
            Phase::Retransmit => "retransmit",
        }
    }

    /// Dense index into per-span phase accumulators.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Histogram name for this phase's per-span latency contribution.
    pub fn hist_name(self) -> &'static str {
        match self {
            Phase::Host => "flight.phase.host",
            Phase::Enqueue => "flight.phase.enqueue",
            Phase::Fire => "flight.phase.fire",
            Phase::Wire => "flight.phase.wire",
            Phase::Arrive => "flight.phase.arrive",
            Phase::Notify => "flight.phase.notify",
            Phase::Nack => "flight.phase.nack",
            Phase::Retransmit => "flight.phase.retransmit",
        }
    }
}

/// A typed trace event. `OpBegin`/`OpEnd` bracket one collective
/// operation per participant; the other seven variants map one-to-one onto
/// the [`Phase`]s of the paper's latency decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanEvent {
    /// One participant entered collective operation `(group, seq)`.
    OpBegin {
        /// Group identifier (backend-specific encoding).
        group: u64,
        /// Operation sequence number / epoch within the group.
        seq: u64,
    },
    /// One participant observed completion of `(group, seq)`.
    OpEnd {
        /// Group identifier (backend-specific encoding).
        group: u64,
        /// Operation sequence number / epoch within the group.
        seq: u64,
    },
    /// A send was queued behind `depth` earlier tokens for node `dst`.
    Enqueue {
        /// Destination node.
        dst: u64,
        /// Queue depth in front of this token.
        depth: u64,
    },
    /// NIC unit `unit` launched a packet towards node `dst`.
    Fire {
        /// Launching unit (DMA descriptor id, group id, ...).
        unit: u64,
        /// Destination node.
        dst: u64,
    },
    /// A packet of `bytes` wire bytes left node `src` for node `dst`.
    Wire {
        /// Source node.
        src: u64,
        /// Destination node.
        dst: u64,
        /// Wire bytes including headers.
        bytes: u64,
    },
    /// A packet from node `src` arrived and was accepted.
    Arrive {
        /// Source node.
        src: u64,
        /// Backend-specific detail (remote event id, epoch, ...).
        info: u64,
    },
    /// The NIC raised a host completion (event id / cookie pair).
    Notify {
        /// Notifying unit (event id, group id, ...).
        unit: u64,
        /// Completion cookie delivered to the host.
        cookie: u64,
    },
    /// Receiver-driven flow control NACKed node `dst`.
    Nack {
        /// Node being NACKed.
        dst: u64,
        /// Protocol round / epoch the NACK refers to.
        round: u64,
    },
    /// A packet was retransmitted towards node `dst`.
    Retransmit {
        /// Destination of the retransmission.
        dst: u64,
        /// Protocol round / sequence being retransmitted.
        round: u64,
    },
}

impl SpanEvent {
    /// Stable label for filtering (`Trace::with_label`). Typed variants use
    /// their phase name; op markers use `"op.begin"` / `"op.end"`.
    pub fn label(&self) -> &'static str {
        match self {
            SpanEvent::OpBegin { .. } => "op.begin",
            SpanEvent::OpEnd { .. } => "op.end",
            SpanEvent::Enqueue { .. } => "enqueue",
            SpanEvent::Fire { .. } => "fire",
            SpanEvent::Wire { .. } => "wire",
            SpanEvent::Arrive { .. } => "arrive",
            SpanEvent::Notify { .. } => "notify",
            SpanEvent::Nack { .. } => "nack",
            SpanEvent::Retransmit { .. } => "retransmit",
        }
    }

    /// The phase simulated time spent reaching this event is attributed to;
    /// op markers attribute to [`Phase::Host`].
    #[inline]
    pub fn phase(&self) -> Phase {
        match self {
            SpanEvent::OpBegin { .. } | SpanEvent::OpEnd { .. } => Phase::Host,
            SpanEvent::Enqueue { .. } => Phase::Enqueue,
            SpanEvent::Fire { .. } => Phase::Fire,
            SpanEvent::Wire { .. } => Phase::Wire,
            SpanEvent::Arrive { .. } => Phase::Arrive,
            SpanEvent::Notify { .. } => Phase::Notify,
            SpanEvent::Nack { .. } => Phase::Nack,
            SpanEvent::Retransmit { .. } => Phase::Retransmit,
        }
    }

    /// Human-readable detail string, shared by `timeline` and `flight` so
    /// the decoding lives next to the event definition instead of being
    /// duplicated in every exporter.
    pub fn describe(&self) -> String {
        match *self {
            SpanEvent::OpBegin { group, seq } => {
                format!("enter op seq {seq} on group {group:#x}")
            }
            SpanEvent::OpEnd { group, seq } => {
                format!("complete op seq {seq} on group {group:#x}")
            }
            SpanEvent::Enqueue { dst, depth } => {
                format!("send to node {dst} queued behind {depth} token(s)")
            }
            SpanEvent::Fire { unit, dst } => format!("unit {unit} fires packet to node {dst}"),
            SpanEvent::Wire { src, dst, bytes } => {
                format!("{bytes}B on the wire, node {src} -> node {dst}")
            }
            SpanEvent::Arrive { src, info } => {
                if info == u64::MAX {
                    format!("packet from node {src} arrives")
                } else {
                    format!("packet from node {src} arrives (info {info})")
                }
            }
            SpanEvent::Notify { unit, cookie } => {
                format!("host notified by unit {unit} (cookie {cookie:#x})")
            }
            SpanEvent::Nack { dst, round } => format!("NACK to node {dst} for round {round}"),
            SpanEvent::Retransmit { dst, round } => {
                format!("retransmit round {round} to node {dst}")
            }
        }
    }
}

/// Summary of one closed operation span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanSummary {
    /// Group the operation ran on.
    pub group: u64,
    /// Operation sequence number within the group.
    pub seq: u64,
    /// Time of the first `OpBegin`.
    pub begin: SimTime,
    /// Time of the last `OpEnd`.
    pub end: SimTime,
    /// Nanoseconds attributed to each [`Phase`], indexed by `Phase::index`.
    /// The entries sum to `end - begin` exactly.
    pub phase_ns: [u64; NUM_PHASES],
    /// Number of events folded into this span (including op markers).
    pub events: u64,
}

impl SpanSummary {
    /// End-to-end latency of the operation.
    pub fn total(&self) -> SimTime {
        self.end.saturating_sub(self.begin)
    }

    /// Nanoseconds attributed to `phase`.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }
}

/// An operation currently in flight.
#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    group: u64,
    seq: u64,
    begin: SimTime,
    /// Time of the last event attributed to this span; the next event's
    /// segment is `[last, now]`.
    last: SimTime,
    begun: u32,
    ended: u32,
    phase_ns: [u64; NUM_PHASES],
    events: u64,
}

/// The recorder's latency histograms: the end-to-end span latency plus
/// each phase's per-span contribution, indexed by [`Phase::index`].
#[derive(Default)]
struct SpanHists {
    total: Histogram,
    phases: [Histogram; NUM_PHASES],
}

/// Folds the typed event stream into per-operation phase breakdowns and
/// latency histograms. Disabled by default; when disabled, `observe` is a
/// single predicted branch.
pub struct FlightRecorder {
    enabled: bool,
    /// Maximum number of closed spans retained; further closes only feed
    /// the histograms and bump `dropped`.
    capacity: usize,
    /// Expected participants per operation; when set, a span closes on the
    /// `participants`-th `OpEnd` instead of waiting for `ended == begun`.
    participants: Option<u32>,
    open: Vec<OpenSpan>,
    completed: Vec<SpanSummary>,
    dropped: u64,
    /// Phase-carrying events seen while no span was open (not attributable).
    orphaned: u64,
    /// Allocated when the recorder is enabled, so a disabled one stays
    /// allocation-free.
    hists: Option<Box<SpanHists>>,
}

impl FlightRecorder {
    /// Default bound on retained closed spans.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Create a disabled recorder (the engine default).
    pub fn disabled() -> Self {
        FlightRecorder {
            enabled: false,
            capacity: 0,
            participants: None,
            open: Vec::new(),
            completed: Vec::new(),
            dropped: 0,
            orphaned: 0,
            hists: None,
        }
    }

    /// Create an enabled recorder retaining up to `capacity` closed spans.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "recorder capacity must be non-zero");
        FlightRecorder {
            enabled: true,
            capacity,
            participants: None,
            open: Vec::new(),
            completed: Vec::new(),
            dropped: 0,
            orphaned: 0,
            hists: Some(Box::default()),
        }
    }

    /// Is recording active?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enable recording (with [`Self::DEFAULT_CAPACITY`] if previously
    /// disabled).
    pub fn enable(&mut self) {
        if self.capacity == 0 {
            self.capacity = Self::DEFAULT_CAPACITY;
        }
        self.hists.get_or_insert_with(Box::default);
        self.enabled = true;
    }

    /// Declare how many participants join each operation. With `n` set, a
    /// span closes on its `n`-th `OpEnd`; without it, a span closes once
    /// every participant that began has ended (which only resolves at a
    /// quiescent point for lock-step workloads).
    pub fn set_participants(&mut self, n: u32) {
        assert!(n > 0, "participants must be non-zero");
        self.participants = Some(n);
    }

    /// Fold one event into the recorder. `time` must be non-decreasing
    /// across calls (engine delivery order guarantees this).
    #[inline]
    pub fn observe(&mut self, time: SimTime, event: &SpanEvent) {
        if !self.enabled {
            return;
        }
        self.observe_slow(time, event);
    }

    fn observe_slow(&mut self, time: SimTime, event: &SpanEvent) {
        match *event {
            SpanEvent::OpBegin { group, seq } => {
                if let Some(span) = self.find(group, seq) {
                    span.attribute(time, Phase::Host);
                    span.begun += 1;
                } else {
                    self.open.push(OpenSpan {
                        group,
                        seq,
                        begin: time,
                        last: time,
                        begun: 1,
                        ended: 0,
                        phase_ns: [0; NUM_PHASES],
                        events: 1,
                    });
                }
            }
            SpanEvent::OpEnd { group, seq } => {
                let participants = self.participants;
                let Some(idx) = self
                    .open
                    .iter()
                    .position(|s| s.group == group && s.seq == seq)
                else {
                    // An end without a begin: the recorder was enabled
                    // mid-operation. Not attributable.
                    self.orphaned += 1;
                    return;
                };
                let span = &mut self.open[idx];
                span.attribute(time, Phase::Host);
                span.ended += 1;
                let done = match participants {
                    Some(p) => span.ended >= p,
                    None => span.ended >= span.begun,
                };
                if done {
                    let span = self.open.swap_remove(idx);
                    self.close(span, time);
                }
            }
            ref ev => {
                let phase = ev.phase();
                // Attribute to the earliest-begun open span: with epoch
                // banking at most two operations overlap, and the elder one
                // owns the wall clock until it closes.
                if let Some(span) = self.open.iter_mut().min_by_key(|s| s.begin) {
                    span.attribute(time, phase);
                } else {
                    self.orphaned += 1;
                }
            }
        }
    }

    fn find(&mut self, group: u64, seq: u64) -> Option<&mut OpenSpan> {
        self.open
            .iter_mut()
            .find(|s| s.group == group && s.seq == seq)
    }

    fn close(&mut self, span: OpenSpan, end: SimTime) {
        let summary = SpanSummary {
            group: span.group,
            seq: span.seq,
            begin: span.begin,
            end,
            phase_ns: span.phase_ns,
            events: span.events,
        };
        if let Some(h) = self.hists.as_deref_mut() {
            h.total.record(summary.total().as_ns());
            for (hist, &ns) in h.phases.iter_mut().zip(&summary.phase_ns) {
                if ns > 0 {
                    hist.record(ns);
                }
            }
        }
        if self.completed.len() < self.capacity {
            self.completed.push(summary);
        } else {
            self.dropped += 1;
        }
    }

    /// Closed spans, in completion order (bounded by the capacity).
    pub fn completed(&self) -> &[SpanSummary] {
        &self.completed
    }

    /// Number of operations still open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Closed spans discarded because the retention buffer was full (their
    /// latencies still reached the histograms).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Phase events observed while no span was open.
    pub fn orphaned(&self) -> u64 {
        self.orphaned
    }

    /// The non-empty latency histograms in name order: `flight.op_total`,
    /// then `flight.phase.<name>` sorted by phase name.
    pub fn hists(&self) -> Vec<(&'static str, &Histogram)> {
        let Some(h) = self.hists.as_deref() else {
            return Vec::new();
        };
        let mut phases = Phase::ALL;
        phases.sort_unstable_by_key(|p| p.hist_name());
        std::iter::once(("flight.op_total", &h.total))
            .chain(
                phases
                    .iter()
                    .map(|&p| (p.hist_name(), &h.phases[p.index()])),
            )
            .filter(|(_, hist)| !hist.is_empty())
            .collect()
    }

    /// Drop all state (keeps enabled flag and participants).
    pub fn clear(&mut self) {
        self.open.clear();
        self.completed.clear();
        self.dropped = 0;
        self.orphaned = 0;
        if let Some(h) = self.hists.as_deref_mut() {
            *h = SpanHists::default();
        }
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlightRecorder(enabled={}, open={}, completed={}, dropped={}, orphaned={})",
            self.enabled,
            self.open.len(),
            self.completed.len(),
            self.dropped,
            self.orphaned
        )
    }
}

impl OpenSpan {
    /// Charge the segment since the previous event to `phase`.
    #[inline]
    fn attribute(&mut self, now: SimTime, phase: Phase) {
        self.phase_ns[phase.index()] += now.saturating_sub(self.last).as_ns();
        self.last = now;
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn labels_and_phases_line_up() {
        for phase in Phase::ALL {
            assert!(phase.hist_name().ends_with(phase.name()));
        }
        assert_eq!(SpanEvent::Fire { unit: 1, dst: 2 }.label(), "fire");
        assert_eq!(SpanEvent::Fire { unit: 1, dst: 2 }.phase(), Phase::Fire);
        assert_eq!(SpanEvent::OpEnd { group: 1, seq: 2 }.phase(), Phase::Host);
        assert_eq!(SpanEvent::OpBegin { group: 1, seq: 2 }.label(), "op.begin");
    }

    #[test]
    fn describe_mentions_payload() {
        let s = SpanEvent::Wire {
            src: 1,
            dst: 2,
            bytes: 64,
        }
        .describe();
        assert!(
            s.contains("64B") && s.contains("node 1") && s.contains("node 2"),
            "{s}"
        );
    }

    #[test]
    fn disabled_recorder_ignores_everything() {
        let mut r = FlightRecorder::disabled();
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        r.observe(t(10), &SpanEvent::OpEnd { group: 1, seq: 0 });
        assert!(r.completed().is_empty());
        assert_eq!(r.open_count(), 0);
    }

    #[test]
    fn phase_sums_equal_total_exactly() {
        let mut r = FlightRecorder::with_capacity(16);
        r.set_participants(2);
        r.observe(t(0), &SpanEvent::OpBegin { group: 5, seq: 0 });
        r.observe(t(10), &SpanEvent::OpBegin { group: 5, seq: 0 });
        r.observe(t(30), &SpanEvent::Fire { unit: 0, dst: 1 });
        r.observe(
            t(70),
            &SpanEvent::Wire {
                src: 0,
                dst: 1,
                bytes: 32,
            },
        );
        r.observe(t(90), &SpanEvent::Arrive { src: 0, info: 0 });
        r.observe(t(100), &SpanEvent::Notify { unit: 9, cookie: 1 });
        r.observe(t(110), &SpanEvent::OpEnd { group: 5, seq: 0 });
        r.observe(t(120), &SpanEvent::OpEnd { group: 5, seq: 0 });

        assert_eq!(r.open_count(), 0);
        let spans = r.completed();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.total(), t(120));
        assert_eq!(s.phase(Phase::Host), 10 + 10 + 10);
        assert_eq!(s.phase(Phase::Fire), 20);
        assert_eq!(s.phase(Phase::Wire), 40);
        assert_eq!(s.phase(Phase::Arrive), 20);
        assert_eq!(s.phase(Phase::Notify), 10);
        let sum: u64 = s.phase_ns.iter().sum();
        assert_eq!(sum, s.total().as_ns());

        // Only the phases the span filled are reported, in name order,
        // each with the span's contribution.
        let hists = r.hists();
        let names: Vec<&str> = hists.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "flight.op_total",
                "flight.phase.arrive",
                "flight.phase.fire",
                "flight.phase.host",
                "flight.phase.notify",
                "flight.phase.wire",
            ]
        );
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(hists.iter().all(|(_, h)| h.count() == 1));
        assert_eq!(hists[2].1.max(), 20, "fire");
        assert_eq!(hists[5].1.max(), 40, "wire");
    }

    #[test]
    fn closes_without_participants_when_all_enders_arrive() {
        let mut r = FlightRecorder::with_capacity(4);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 7 });
        r.observe(t(1), &SpanEvent::OpBegin { group: 1, seq: 7 });
        r.observe(t(5), &SpanEvent::OpEnd { group: 1, seq: 7 });
        assert_eq!(r.open_count(), 1);
        r.observe(t(9), &SpanEvent::OpEnd { group: 1, seq: 7 });
        assert_eq!(r.open_count(), 0);
        assert_eq!(r.completed().len(), 1);
        assert_eq!(r.completed()[0].seq, 7);
    }

    #[test]
    fn overlapping_ops_attribute_to_the_elder() {
        let mut r = FlightRecorder::with_capacity(4);
        r.set_participants(1);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        // A banked next-epoch op opens while seq 0 is still in flight.
        r.observe(t(4), &SpanEvent::OpBegin { group: 1, seq: 1 });
        r.observe(t(10), &SpanEvent::Fire { unit: 0, dst: 1 });
        r.observe(t(20), &SpanEvent::OpEnd { group: 1, seq: 0 });
        r.observe(t(50), &SpanEvent::OpEnd { group: 1, seq: 1 });
        let spans = r.completed();
        assert_eq!(spans.len(), 2);
        // seq 0 owned the 0..10 fire segment.
        assert_eq!(spans[0].phase(Phase::Fire), 10);
        assert_eq!(spans[0].total(), t(20));
        // seq 1's whole window still adds up.
        let sum: u64 = spans[1].phase_ns.iter().sum();
        assert_eq!(sum, spans[1].total().as_ns());
    }

    #[test]
    fn orphaned_events_are_counted_not_attributed() {
        let mut r = FlightRecorder::with_capacity(4);
        r.observe(t(3), &SpanEvent::Fire { unit: 0, dst: 1 });
        r.observe(t(4), &SpanEvent::OpEnd { group: 1, seq: 0 });
        assert_eq!(r.orphaned(), 2);
        assert!(r.completed().is_empty());
    }

    #[test]
    fn capacity_bounds_retained_spans_but_histograms_see_all() {
        let mut r = FlightRecorder::with_capacity(2);
        r.set_participants(1);
        for seq in 0..5u64 {
            r.observe(t(seq * 100), &SpanEvent::OpBegin { group: 9, seq });
            r.observe(t(seq * 100 + 10), &SpanEvent::OpEnd { group: 9, seq });
        }
        assert_eq!(r.completed().len(), 2);
        assert_eq!(r.dropped(), 3);
        let hists = r.hists();
        assert_eq!(hists[0].0, "flight.op_total");
        assert_eq!(hists[0].1.count(), 5);
    }

    #[test]
    fn clear_resets_but_keeps_enabled() {
        let mut r = FlightRecorder::with_capacity(4);
        r.set_participants(1);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        r.observe(t(10), &SpanEvent::OpEnd { group: 1, seq: 0 });
        assert_eq!(r.hists().len(), 2, "op_total and host");
        r.clear();
        assert!(r.completed().is_empty());
        assert!(r.is_enabled());
        assert!(r.hists().is_empty());
    }

    #[test]
    fn disabled_recorder_holds_no_histograms_until_enabled() {
        let mut r = FlightRecorder::disabled();
        assert!(r.hists.is_none());
        assert!(r.hists().is_empty());
        r.enable();
        r.set_participants(1);
        r.observe(t(0), &SpanEvent::OpBegin { group: 1, seq: 0 });
        r.observe(t(10), &SpanEvent::OpEnd { group: 1, seq: 0 });
        assert_eq!(r.hists()[0].1.count(), 1);
    }

    #[test]
    fn span_event_is_four_words() {
        assert_eq!(std::mem::size_of::<SpanEvent>(), 32);
    }
}
