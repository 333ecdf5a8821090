//! Typed protocol events and per-operation span folding.
//!
//! The record log ([`crate::trace`]) records a typed [`SpanEvent`] over the
//! protocol phases the paper's latency decomposition cares about —
//! enqueue, fire, wire, arrive, notify, nack, retransmit — plus begin/end
//! markers for a collective operation keyed by `(group, seq)`.
//!
//! Once told how many participants join each operation, the log folds the
//! same event stream into per-operation *spans*: for every `(group, seq)`
//! pair it tracks the wall window from the first `OpBegin` to the last
//! `OpEnd` and attributes every intervening segment of simulated time to
//! the phase of the event that ended it. The per-span phase sums therefore
//! add up to the span's end-to-end latency *exactly*, which is what makes
//! the breakdown tables trustworthy. Closed spans feed fixed log2
//! histograms ([`crate::hist`]): the end-to-end total (`flight.op_total`)
//! and one per phase (`flight.phase.<name>`).

use crate::hist::Histogram;
use crate::time::SimTime;

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

    /// Human-readable detail string, used by the `flight` Chrome trace so
    /// the decoding lives next to the event definition instead of in an
    /// exporter.
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
    ended: u32,
    phase_ns: [u64; NUM_PHASES],
    events: u64,
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

/// The span fold of a record log ([`crate::Trace`]): turns the typed event
/// stream into per-operation phase breakdowns and latency histograms (the
/// end-to-end span latency plus each phase's per-span contribution,
/// indexed by [`Phase::index`]). A span closes on its `participants`-th
/// `OpEnd`.
#[derive(Clone)]
pub(crate) struct SpanFold {
    participants: u32,
    open: Vec<OpenSpan>,
    /// Phase-carrying events seen while no span was open (not attributable).
    pub(crate) orphaned: u64,
    total: Histogram,
    phases: [Histogram; NUM_PHASES],
}

impl SpanFold {
    /// A fold closing each span on its `participants`-th `OpEnd`.
    pub(crate) fn new(participants: u32) -> Self {
        assert!(participants > 0, "participants must be non-zero");
        SpanFold {
            participants,
            open: Vec::new(),
            orphaned: 0,
            total: Histogram::default(),
            phases: Default::default(),
        }
    }

    /// Fold one event, returning the span it closed (already counted in the
    /// histograms). `time` must be non-decreasing across calls (engine
    /// delivery order guarantees this).
    pub(crate) fn observe(&mut self, time: SimTime, event: &SpanEvent) -> Option<SpanSummary> {
        match *event {
            SpanEvent::OpBegin { group, seq } => {
                if let Some(span) = self
                    .open
                    .iter_mut()
                    .find(|s| s.group == group && s.seq == seq)
                {
                    span.attribute(time, Phase::Host);
                } else {
                    self.open.push(OpenSpan {
                        group,
                        seq,
                        begin: time,
                        last: time,
                        ended: 0,
                        phase_ns: [0; NUM_PHASES],
                        events: 1,
                    });
                }
                None
            }
            SpanEvent::OpEnd { group, seq } => {
                let Some(idx) = self
                    .open
                    .iter()
                    .position(|s| s.group == group && s.seq == seq)
                else {
                    // An end without a begin: recording started
                    // mid-operation. Not attributable.
                    self.orphaned += 1;
                    return None;
                };
                let span = &mut self.open[idx];
                span.attribute(time, Phase::Host);
                span.ended += 1;
                if span.ended < self.participants {
                    return None;
                }
                let span = self.open.swap_remove(idx);
                let summary = SpanSummary {
                    group: span.group,
                    seq: span.seq,
                    begin: span.begin,
                    end: time,
                    phase_ns: span.phase_ns,
                    events: span.events,
                };
                self.total.record(summary.total().as_ns());
                for (hist, &ns) in self.phases.iter_mut().zip(&summary.phase_ns) {
                    if ns > 0 {
                        hist.record(ns);
                    }
                }
                Some(summary)
            }
            ref ev => {
                // Attribute to the earliest-begun open span: with epoch
                // banking at most two operations overlap, and the elder one
                // owns the wall clock until it closes.
                if let Some(span) = self.open.iter_mut().min_by_key(|s| s.begin) {
                    span.attribute(time, ev.phase());
                } else {
                    self.orphaned += 1;
                }
                None
            }
        }
    }

    /// The non-empty latency histograms in name order: `flight.op_total`,
    /// then `flight.phase.<name>` sorted by phase name.
    pub(crate) fn hists(&self) -> Vec<(&'static str, &Histogram)> {
        let mut phases = Phase::ALL;
        phases.sort_unstable_by_key(|p| p.hist_name());
        std::iter::once(("flight.op_total", &self.total))
            .chain(
                phases
                    .iter()
                    .map(|&p| (p.hist_name(), &self.phases[p.index()])),
            )
            .filter(|(_, hist)| !hist.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// Fold `events` in order, returning the closed spans.
    fn fold(f: &mut SpanFold, events: &[(u64, SpanEvent)]) -> Vec<SpanSummary> {
        events
            .iter()
            .filter_map(|(ns, ev)| f.observe(t(*ns), ev))
            .collect()
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
    fn phase_sums_equal_total_exactly() {
        let mut f = SpanFold::new(2);
        let spans = fold(
            &mut f,
            &[
                (0, SpanEvent::OpBegin { group: 5, seq: 0 }),
                (10, SpanEvent::OpBegin { group: 5, seq: 0 }),
                (30, SpanEvent::Fire { unit: 0, dst: 1 }),
                (
                    70,
                    SpanEvent::Wire {
                        src: 0,
                        dst: 1,
                        bytes: 32,
                    },
                ),
                (90, SpanEvent::Arrive { src: 0, info: 0 }),
                (100, SpanEvent::Notify { unit: 9, cookie: 1 }),
                (110, SpanEvent::OpEnd { group: 5, seq: 0 }),
                (120, SpanEvent::OpEnd { group: 5, seq: 0 }),
            ],
        );

        assert!(f.open.is_empty());
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
        let hists = f.hists();
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
    fn overlapping_ops_attribute_to_the_elder() {
        let mut f = SpanFold::new(1);
        let spans = fold(
            &mut f,
            &[
                (0, SpanEvent::OpBegin { group: 1, seq: 0 }),
                // A banked next-epoch op opens while seq 0 is still in flight.
                (4, SpanEvent::OpBegin { group: 1, seq: 1 }),
                (10, SpanEvent::Fire { unit: 0, dst: 1 }),
                (20, SpanEvent::OpEnd { group: 1, seq: 0 }),
                (50, SpanEvent::OpEnd { group: 1, seq: 1 }),
            ],
        );
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
        let mut f = SpanFold::new(1);
        let spans = fold(
            &mut f,
            &[
                (3, SpanEvent::Fire { unit: 0, dst: 1 }),
                (4, SpanEvent::OpEnd { group: 1, seq: 0 }),
            ],
        );
        assert_eq!(f.orphaned, 2);
        assert!(spans.is_empty());
        assert!(f.hists().is_empty());
    }

    #[test]
    fn span_event_is_four_words() {
        assert_eq!(std::mem::size_of::<SpanEvent>(), 32);
    }
}
