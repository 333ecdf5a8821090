//! What the figure pipelines show the user about the event loop: the
//! counter report surfaced through `BarrierStats` is name-ordered.

use nicbar_core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar_gm::GmParams;

/// The counter report surfaced through `BarrierStats` stays name-ordered —
/// interning must not leak first-touch order into user-visible output.
#[test]
fn barrier_stats_counters_are_name_ordered() {
    let stats = Scenario::gm(
        GmParams::lanai_9_1(),
        8,
        Barrier::Nic(Algorithm::Dissemination),
    )
    .run(&RunCfg {
        warmup: 5,
        iters: 50,
        ..RunCfg::default()
    });
    let names: Vec<&str> = stats
        .counters
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "BarrierStats counters must be name-ordered");
    assert!(!names.is_empty(), "a barrier run must report counters");
}
