//! OB001 fixture: the approved telemetry paths — interned counters and
//! buffer rendering — produce no findings. A `println!` in a comment or a
//! string literal is data, not telemetry.

use std::fmt::Write as _;

fn record(counters: &mut Counters, events: u64) {
    // println!("tempting, but no") — commented out is fine
    counters.add_id(counter_id!("engine.events"), events);
    counters.add("engine.windows", 1);
}

fn render(out: &mut String, events: u64) {
    let banner = "println! inside a string is fine";
    let _ = writeln!(out, "{banner}: {events}");
}
