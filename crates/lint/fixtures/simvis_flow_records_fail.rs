//! ND001 fixture for the record-log sinks: `span`, `packet` and `ledger`
//! take a closure that builds the record, and wall-clock taint reaching
//! the closure's record is flagged at the sink line, as a direct argument
//! would be. The records are byte-pinned exports, so a host timestamp in
//! one breaks every capture.

pub struct HostClock {
    start: Instant,
}

impl HostClock {
    pub fn ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

pub fn emit(clock: &HostClock, ctx: &mut Ctx, cause: CauseId, now: SimTime, owner: Owner) {
    let host_ns = clock.ns();
    ctx.packet(|| PacketLog::new(cause, CausalKind::Fire).detail(host_ns, 0)); //~ ND001
    ctx.ledger(|| { //~ ND001
        Occ::hold(ResKind::NicCpu, now, now, 0, owner).unit(host_ns)
    });
    ctx.span(|| SpanEvent::Fire { //~ ND001
        unit: host_ns,
        dst: 1,
    });
}

pub fn emit_clean(ctx: &mut Ctx, cause: CauseId, now: SimTime, owner: Owner, unit: u64) {
    // Simulation-derived values reach the same sinks without a finding.
    ctx.packet(|| PacketLog::new(cause, CausalKind::Fire).detail(unit, 0));
    ctx.ledger(|| Occ::hold(ResKind::NicCpu, now, now, 0, owner).unit(unit));
    ctx.span(|| SpanEvent::Fire { unit, dst: 1 });
}
