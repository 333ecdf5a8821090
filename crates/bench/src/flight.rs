//! Exporters for flight-recorder captures ([`nicbar_core::FlightData`]).
//!
//! Two output formats share one capture:
//!
//! * [`chrome_trace`] renders the Chrome trace-event JSON that Perfetto /
//!   `chrome://tracing` loads directly — per-barrier spans as complete
//!   (`"X"`) events with the phase breakdown in `args`, every trace record
//!   as an instant (`"i"`) event on its component's track.
//! * [`breakdown`] renders the human-readable per-phase latency table with
//!   the histogram quantiles.
//!
//! Both formats always report the capture's drop count, so a truncated
//! recording can never masquerade as a complete one.

use crate::json::Writer;
use nicbar_core::FlightData;
use nicbar_sim::Phase;

/// Nanoseconds → microseconds for display and Chrome timestamps.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The producing engine, rendered for stamps: `"sequential"` or
/// `"parallel(K)"`. Simulation results are byte-identical across engines;
/// the stamp makes a cross-engine diff of exporter output self-describing
/// (the *only* line that may differ names the engine).
pub fn engine_stamp(cap: &FlightData) -> String {
    if cap.engine == "parallel" {
        format!("parallel({})", cap.shards)
    } else {
        cap.engine.to_string()
    }
}

/// Render one or more captures as Chrome trace-event JSON (the "JSON Object
/// Format": a `traceEvents` array plus metadata). Each capture gets its own
/// `pid`; barrier spans sit on a dedicated track, trace records on one
/// track per emitting component. Timestamps are microseconds of simulated
/// time, as the format requires.
pub fn chrome_trace(captures: &[FlightData]) -> String {
    let mut w = Writer::new();
    w.open_object();
    w.field("traceEvents");
    w.open_array();
    for (pid, cap) in captures.iter().enumerate() {
        let pid = pid as u64;
        // Process metadata: name the capture after its substrate and size.
        w.open_object();
        w.field("name");
        w.string("process_name");
        w.field("ph");
        w.string("M");
        w.field("pid");
        w.uint(pid);
        w.field("args");
        w.open_object();
        w.field("name");
        w.string(&format!(
            "{} barrier ({} nodes)",
            cap.substrate, cap.stats.n
        ));
        w.close_object();
        w.close_object();

        // Track 0 carries the per-barrier spans.
        w.open_object();
        w.field("name");
        w.string("thread_name");
        w.field("ph");
        w.string("M");
        w.field("pid");
        w.uint(pid);
        w.field("tid");
        w.uint(0);
        w.field("args");
        w.open_object();
        w.field("name");
        w.string("barrier spans");
        w.close_object();
        w.close_object();

        for span in cap.trace.completed() {
            w.open_object();
            w.field("name");
            w.string(&format!("barrier seq {}", span.seq));
            w.field("cat");
            w.string(cap.substrate);
            w.field("ph");
            w.string("X");
            w.field("pid");
            w.uint(pid);
            w.field("tid");
            w.uint(0);
            w.field("ts");
            w.number(span.begin.as_us());
            w.field("dur");
            w.number(span.total().as_us());
            w.field("args");
            w.open_object();
            w.field("group");
            w.uint(span.group);
            w.field("events");
            w.uint(span.events);
            for phase in Phase::ALL {
                let ns = span.phase(phase);
                if ns > 0 {
                    w.field(&format!("{}_us", phase.name()));
                    w.number(us(ns));
                }
            }
            w.close_object();
            w.close_object();
        }

        // Every retained trace record becomes an instant event on a track
        // named after its component (tid = component id + 1; 0 is spans).
        for r in cap.trace.iter() {
            w.open_object();
            w.field("name");
            w.string(r.label());
            w.field("cat");
            w.string(cap.substrate);
            w.field("ph");
            w.string("i");
            w.field("s");
            w.string("t");
            w.field("pid");
            w.uint(pid);
            w.field("tid");
            w.uint(r.component.0 as u64 + 1);
            w.field("ts");
            w.number(r.time.as_us());
            w.field("args");
            w.open_object();
            w.field("detail");
            w.string(&r.event.describe());
            w.close_object();
            w.close_object();
        }
    }
    w.close_array();
    w.field("displayTimeUnit");
    w.string("ns");
    // The drop count rides in metadata so a lossy capture is
    // self-describing.
    w.field("otherData");
    w.open_object();
    for (pid, cap) in captures.iter().enumerate() {
        w.field(&format!("{}:{}", pid, "dropped"));
        w.uint(cap.trace.dropped());
        w.field(&format!("{}:{}", pid, "orphaned"));
        w.uint(cap.trace.orphaned());
        w.field(&format!("{}:{}", pid, "engine"));
        w.string(&engine_stamp(cap));
    }
    w.close_object();
    w.close_object();
    w.finish()
}

/// Render the human-readable breakdown: per-phase latency attribution
/// averaged over the captured spans, the histogram quantiles, and the
/// phase-sum-vs-end-to-end consistency check.
pub fn breakdown(cap: &FlightData) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== flight capture: {} barrier, {} nodes ==",
        cap.substrate, cap.stats.n
    );
    let _ = writeln!(out, "engine: {}", engine_stamp(cap));
    let spans = cap.trace.completed();
    let _ = writeln!(
        out,
        "spans: {} captured, {} trace records retained",
        spans.len(),
        cap.trace.len()
    );
    if cap.trace.dropped() > 0 {
        let _ = writeln!(
            out,
            "warning: the log dropped {} records; spans and instants are truncated \
             (histograms still saw every span)",
            cap.trace.dropped()
        );
    }
    if cap.trace.orphaned() > 0 {
        let _ = writeln!(
            out,
            "note: {} events arrived with no open span (unattributed)",
            cap.trace.orphaned()
        );
    }
    if spans.is_empty() {
        let _ = writeln!(out, "(no spans captured)");
        return out;
    }

    // Phase attribution, averaged over spans. Per-span phase sums equal the
    // span's end-to-end latency by construction; the table re-derives the
    // totals independently as a cross-check.
    let n_spans = spans.len() as f64;
    let total_ns: u64 = spans.iter().map(|s| s.total().as_ns()).sum();
    let phase_sum_ns: u64 = spans
        .iter()
        .flat_map(|s| Phase::ALL.iter().map(|&p| s.phase(p)))
        .sum();
    let _ = writeln!(out, "\n{:>12} {:>12} {:>8}", "phase", "mean (µs)", "share");
    for phase in Phase::ALL {
        let ns: u64 = spans.iter().map(|s| s.phase(phase)).sum();
        if ns == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:>12} {:>12.3} {:>7.1}%",
            phase.name(),
            us(ns) / n_spans,
            ns as f64 / total_ns as f64 * 100.0
        );
    }
    let _ = writeln!(out, "{:>12} {:>12.3}", "end-to-end", us(total_ns) / n_spans);
    let drift = (phase_sum_ns as f64 - total_ns as f64).abs() / total_ns as f64;
    let _ = writeln!(
        out,
        "phase sums cover {:.3}% of end-to-end latency",
        phase_sum_ns as f64 / total_ns as f64 * 100.0
    );
    debug_assert!(drift < 0.01, "phase attribution drifted {drift}");

    let hists = cap.trace.hists();
    if !hists.is_empty() {
        let _ = writeln!(
            out,
            "\n{:>24} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "histogram (µs)", "count", "p50", "p95", "p99", "max"
        );
        for (name, h) in hists {
            let _ = writeln!(
                out,
                "{:>24} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                name,
                h.count(),
                us(h.p50()),
                us(h.p95()),
                us(h.p99()),
                us(h.max())
            );
        }
    }
    out
}

/// Print [`breakdown`] to stdout.
pub fn print_breakdown(cap: &FlightData) {
    print!("{}", breakdown(cap));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
    use nicbar_gm::GmParams;

    /// The NIC-based dissemination barrier, the paper's headline configuration.
    const DS: Barrier = Barrier::Nic(Algorithm::Dissemination);

    fn capture() -> FlightData {
        Scenario::gm(GmParams::lanai_xp(), 4, DS).capture(&RunCfg {
            warmup: 1,
            iters: 4,
            ..RunCfg::default()
        })
    }

    #[test]
    fn chrome_trace_contains_spans_and_instants() {
        let cap = capture();
        assert_eq!(cap.trace.completed().len(), 5, "one span per epoch");
        let json = chrome_trace(std::slice::from_ref(&cap));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""), "complete span events");
        assert!(json.contains("\"ph\": \"i\""), "instant events");
        assert!(json.contains("barrier seq 0"));
        assert!(json.contains("\"0:dropped\": 0"));
    }

    #[test]
    fn breakdown_phases_sum_to_end_to_end() {
        let cap = capture();
        for s in cap.trace.completed() {
            let sum: u64 = nicbar_sim::Phase::ALL.iter().map(|&p| s.phase(p)).sum();
            assert_eq!(sum, s.total().as_ns(), "exact attribution per span");
        }
        let text = breakdown(&cap);
        assert!(text.contains("end-to-end"));
        assert!(text.contains("100.000% of end-to-end"), "got:\n{text}");
        assert!(!text.contains("warning:"), "clean capture warns nothing");
    }

    /// Overflow a real engine's log through `Ctx::span` and check the one
    /// drop count rides into both exporter outputs.
    #[test]
    fn overflowing_the_log_reports_the_drop_count() {
        use nicbar_core::BarrierStats;
        use nicbar_sim::{Component, Ctx, Engine, SimTime, SpanEvent, Trace};

        struct Chatter;
        impl Component<u32> for Chatter {
            fn handle(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
                ctx.span(SpanEvent::Fire { unit: 0, dst: 1 });
                if msg > 0 {
                    ctx.send_self(SimTime::from_ns(10), msg - 1);
                }
            }
        }

        let mut engine: Engine<u32> = Engine::new(1);
        let id = engine.add(Chatter);
        *engine.trace_mut() = Trace::with_capacity(4);
        engine.schedule_at(SimTime::ZERO, id, 9);
        engine.run();
        assert_eq!(engine.trace().dropped(), 6, "10 emits into a 4-record log");

        let cap = FlightData {
            substrate: "gm",
            engine: "sequential",
            shards: 1,
            stats: BarrierStats {
                n: 1,
                mean_us: 0.0,
                per_iter_us: Vec::new(),
                wire_per_barrier: 0.0,
                counters: Vec::new(),
            },
            trace: std::mem::replace(engine.trace_mut(), Trace::disabled()),
        };
        let json = chrome_trace(std::slice::from_ref(&cap));
        assert!(json.contains("\"0:dropped\": 6"), "got:\n{json}");
        let text = breakdown(&cap);
        assert!(text.contains("dropped 6 records"), "got:\n{text}");
    }

    #[test]
    fn exporters_stamp_the_producing_engine() {
        let cap = capture();
        assert_eq!(cap.engine, "sequential");
        assert!(breakdown(&cap).contains("engine: sequential"));
        assert!(chrome_trace(std::slice::from_ref(&cap)).contains("\"0:engine\": \"sequential\""));

        let par = Scenario::gm(GmParams::lanai_xp(), 4, DS).capture(&RunCfg {
            warmup: 1,
            iters: 4,
            shards: 2,
            ..RunCfg::default()
        });
        assert_eq!((par.engine, par.shards), ("parallel", 2));
        assert!(breakdown(&par).contains("engine: parallel(2)"));
        assert!(chrome_trace(std::slice::from_ref(&par)).contains("\"0:engine\": \"parallel(2)\""));
    }
}
