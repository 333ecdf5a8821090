//! Spans around the calls the benchmark makes into each layer's public
//! traits, recorded from the benchmark's own code.
//!
//! A traced cluster is built with its collective engines and applications
//! wrapped ([`TracedColl`], [`TracedGmApp`], [`TracedElanApp`]); every call
//! through a wrapper records a span `(layer, start, end, parent)` whose
//! parent is the engine slice ([`Layer::Slice`]) it ran inside. Spans stay
//! in memory, bounded by a capacity, and are written out when the run ends;
//! the per-layer totals count every call made inside a slice, retained or
//! not.
//!
//! The simulator runs on the sequential engine, on this thread, so the
//! recorder is a thread-local: the wrapped components stay `Send` and carry
//! no handle to it.

use nicbar_elan::{ElanApi, ElanApp, TportTag};
use nicbar_gm::{
    ActionBuf, CollAction, CollOperand, CollPacket, GmApi, GmApp, GroupId, MsgId, MsgTag,
    NicCollective,
};
use nicbar_net::NodeId;
use nicbar_sim::{CauseId, SimTime};
use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

/// A traced boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// One `run_until(now + Δ)` call into the engine (the root span).
    Slice,
    /// A call into `NicCollective` (`core.protocol`: `PaperCollective`).
    Protocol,
    /// A call into `GmApp` / `ElanApp` (`core.apps`), including the host-API
    /// calls the application makes.
    Apps,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Slice => "sim.engine.slice",
            Layer::Protocol => "core.protocol",
            Layer::Apps => "core.apps",
        }
    }
}

/// One recorded call, in nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which boundary.
    pub layer: Layer,
    /// Start, ns since the recorder started.
    pub start_ns: u64,
    /// End, ns since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing slice span, if it was retained.
    pub parent: Option<u32>,
}

/// Call count, time inside, and work items produced at one boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls made.
    pub calls: u64,
    /// Wall nanoseconds inside the calls.
    pub ns: u64,
    /// Items the calls produced (protocol: actions appended).
    pub items: u64,
}

/// Everything a traced run recorded.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Retained spans; a slice precedes the calls made inside it.
    pub spans: Vec<Span>,
    /// Spans not retained because the buffer was full.
    pub dropped: u64,
    /// Totals per layer, indexed by `Layer as usize`.
    pub totals: [LayerTotals; 3],
    /// Collective sends the protocol flagged as retransmissions.
    pub coll_retx: u64,
}

impl TraceData {
    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Write the retained spans as tab-separated lines
    /// `index layer start_ns end_ns parent` after a header line.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "# index\tlayer\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

struct Recorder {
    origin: Instant,
    capacity: usize,
    /// Calls count only inside a slice, not in a round's untimed drain.
    in_slice: bool,
    open_slice: Option<u32>,
    data: TraceData,
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, span: Span) -> Option<u32> {
        if self.data.spans.len() < self.capacity {
            self.data.spans.push(span);
            u32::try_from(self.data.spans.len() - 1).ok()
        } else {
            self.data.dropped += 1;
            None
        }
    }

    fn record(&mut self, layer: Layer, start: Instant, end: Instant) {
        if !self.in_slice {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.open_slice;
        self.push(Span {
            layer,
            start_ns,
            end_ns,
            parent,
        });
        let t = &mut self.data.totals[layer as usize];
        t.calls += 1;
        t.ns += end_ns - start_ns;
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn with_rec(f: impl FnOnce(&mut Recorder)) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Start recording on this thread, retaining at most `capacity` spans.
/// Replaces any recording in progress.
pub fn start(capacity: usize) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            capacity,
            in_slice: false,
            open_slice: None,
            data: TraceData::default(),
        });
    });
}

/// Stop recording and return what was recorded (empty if never started).
pub fn finish() -> TraceData {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.data)
            .unwrap_or_default()
    })
}

/// Run `f` as one engine slice: the parent of every call made inside it.
pub fn slice<R>(f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    with_rec(|rec| {
        let at = rec.ns(start);
        rec.in_slice = true;
        rec.open_slice = rec.push(Span {
            layer: Layer::Slice,
            start_ns: at,
            end_ns: at,
            parent: None,
        });
    });
    let out = f();
    let end = Instant::now();
    with_rec(|rec| {
        let (start_ns, end_ns) = (rec.ns(start), rec.ns(end));
        rec.in_slice = false;
        if let Some(i) = rec.open_slice.take() {
            rec.data.spans[i as usize].end_ns = end_ns;
        }
        let t = &mut rec.data.totals[Layer::Slice as usize];
        t.calls += 1;
        t.ns += end_ns - start_ns;
    });
    out
}

/// Time one call into `layer`.
fn call<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    with_rec(|rec| rec.record(layer, start, end));
    out
}

/// Credit the protocol with the actions a call appended past `before`,
/// noting retransmissions.
fn appended(actions: &ActionBuf, before: usize) {
    let new = &actions.as_slice()[before..];
    if new.is_empty() {
        return;
    }
    let retx = new
        .iter()
        .filter(|a| matches!(a, CollAction::Send { retx: true, .. }))
        .count() as u64;
    with_rec(|rec| {
        if rec.in_slice {
            rec.data.totals[Layer::Protocol as usize].items += new.len() as u64;
            rec.data.coll_retx += retx;
        }
    });
}

/// A `NicCollective` whose every call is a [`Layer::Protocol`] span.
pub struct TracedColl<C> {
    /// The wrapped collective engine.
    pub inner: C,
}

impl<C: NicCollective> NicCollective for TracedColl<C> {
    fn on_doorbell(
        &mut self,
        now: SimTime,
        group: GroupId,
        epoch: u64,
        operand: &CollOperand,
        cause: CauseId,
        actions: &mut ActionBuf,
    ) {
        let before = actions.len();
        call(Layer::Protocol, || {
            self.inner
                .on_doorbell(now, group, epoch, operand, cause, actions)
        });
        appended(actions, before);
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &CollPacket,
        cause: CauseId,
        actions: &mut ActionBuf,
    ) {
        let before = actions.len();
        call(Layer::Protocol, || {
            self.inner.on_packet(now, pkt, cause, actions)
        });
        appended(actions, before);
    }

    fn on_timer(&mut self, now: SimTime, actions: &mut ActionBuf) {
        let before = actions.len();
        call(Layer::Protocol, || self.inner.on_timer(now, actions));
        appended(actions, before);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        call(Layer::Protocol, || self.inner.next_deadline())
    }
}

/// A `GmApp` whose every callback is a [`Layer::Apps`] span.
pub struct TracedGmApp<A> {
    /// The wrapped application.
    pub inner: A,
}

impl<A: GmApp> GmApp for TracedGmApp<A> {
    fn on_start(&mut self, api: &mut GmApi<'_>) {
        call(Layer::Apps, || self.inner.on_start(api));
    }

    fn on_recv(&mut self, api: &mut GmApi<'_>, src: NodeId, tag: MsgTag, len: u32) {
        call(Layer::Apps, || self.inner.on_recv(api, src, tag, len));
    }

    fn on_send_done(&mut self, api: &mut GmApi<'_>, msg_id: MsgId) {
        call(Layer::Apps, || self.inner.on_send_done(api, msg_id));
    }

    fn on_coll_done(&mut self, api: &mut GmApi<'_>, group: GroupId, epoch: u64, value: u64) {
        call(Layer::Apps, || {
            self.inner.on_coll_done(api, group, epoch, value)
        });
    }

    fn on_timer(&mut self, api: &mut GmApi<'_>) {
        call(Layer::Apps, || self.inner.on_timer(api));
    }
}

/// An `ElanApp` whose every callback is a [`Layer::Apps`] span.
pub struct TracedElanApp<A> {
    /// The wrapped application.
    pub inner: A,
}

impl<A: ElanApp> ElanApp for TracedElanApp<A> {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        call(Layer::Apps, || self.inner.on_start(api));
    }

    fn on_recv(&mut self, api: &mut ElanApi<'_>, src: NodeId, tag: TportTag, len: u32) {
        call(Layer::Apps, || self.inner.on_recv(api, src, tag, len));
    }

    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        call(Layer::Apps, || self.inner.on_coll_done(api, cookie));
    }

    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        call(Layer::Apps, || self.inner.on_timer(api));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_nest_under_the_open_slice_and_totals_count_past_capacity() {
        start(2);
        slice(|| {
            call(Layer::Apps, || ());
            call(Layer::Apps, || ());
        });
        let data = finish();
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.spans[0].layer, Layer::Slice);
        assert_eq!(data.spans[1].parent, Some(0));
        assert!(data.spans[0].end_ns >= data.spans[1].end_ns);
        assert_eq!(data.dropped, 1);
        assert_eq!(data.layer(Layer::Apps).calls, 2);
        assert_eq!(data.layer(Layer::Slice).calls, 1);
    }

    #[test]
    fn calls_outside_a_slice_are_not_counted() {
        start(8);
        call(Layer::Apps, || ());
        let data = finish();
        assert!(data.spans.is_empty());
        assert_eq!(data.layer(Layer::Apps).calls, 0);
    }

    #[test]
    fn nothing_is_recorded_when_not_started() {
        let _ = finish();
        slice(|| call(Layer::Protocol, || ()));
        assert!(finish().spans.is_empty());
    }
}
