//! ND001 fixture for the closure-form send: `send_at_with` keys an event
//! and then writes the message its closure builds into the event's slab
//! slot, so wall-clock taint reaching that message is flagged at the sink
//! line, as it would be in a plain `send_at` argument.

pub struct WallStamp {
    start: Instant,
}

impl WallStamp {
    pub fn ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

pub fn forward(stamp: &WallStamp, ctx: &mut Ctx, at: SimTime, target: ComponentId, pkt: Packet) {
    let host_ns = stamp.ns();
    ctx.send_at_with(at, target, move || { //~ ND001
        Event::Arrive(Packet { cause: host_ns, ..pkt })
    });
}

pub fn forward_clean(ctx: &mut Ctx, at: SimTime, target: ComponentId, pkt: Packet, wire: u64) {
    // A simulation-derived value reaches the same sink without a finding.
    ctx.send_at_with(at, target, move || Event::Arrive(Packet { cause: wire, ..pkt }));
}
