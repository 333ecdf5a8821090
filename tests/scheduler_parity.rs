//! What the figure pipelines show the user about the event loop: the
//! counter report surfaced through `BarrierStats` is name-ordered.

use nicbar_core::{gm_nic_barrier, Algorithm, RunCfg};
use nicbar_gm::{CollFeatures, GmParams};

/// The counter report surfaced through `BarrierStats` stays name-ordered —
/// interning must not leak first-touch order into user-visible output.
#[test]
fn barrier_stats_counters_are_name_ordered() {
    let stats = gm_nic_barrier(
        GmParams::lanai_9_1(),
        CollFeatures::paper(),
        8,
        Algorithm::Dissemination,
        RunCfg {
            warmup: 5,
            iters: 50,
            ..RunCfg::default()
        },
    );
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
