//! The statistics the benchmark reports.
//!
//! On a shared host the same binary runs for seconds at a time at one of
//! two speeds about 1.7x apart, with milder slow spells between, and the
//! share of time spent in each differs from run to run, so a whole-run
//! time, or a run's median slice, wanders with it. Rounds of one loss
//! pattern are identical, so slice `k` of every such round does the same
//! work. Each slice position's median across rounds is the typical cost
//! of its work; each slice's time over that median says how fast the host
//! ran it. The 2nd percentile of those ratios, pooled over every slice of
//! the run, is the host's fast state, and the typical costs scaled by it
//! give the time of the work in that state. Every slice's work stays in
//! (buffer growth, a burst of retransmissions); only the host's speed is
//! taken from the fast end, and from tens of thousands of slices rather
//! than from the few rounds that saw one position.

/// Quantile of a time sample taken as its fast end.
pub const FAST_END: f64 = 0.02;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; `None` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The fast end of a set of durations.
pub fn fast_time(times: &[f64]) -> Option<f64> {
    quantile(times, FAST_END)
}

/// Time of the work of `positions` in the host's fast state: each item
/// holds one slice position's wall times from every round that reached it.
pub fn fast_total<'a>(positions: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    let mut typical = 0.0;
    let mut speed = Vec::new();
    for times in positions {
        let Some(median) = quantile(times, 0.5) else {
            continue;
        };
        typical += median;
        if median > 0.0 {
            speed.extend(times.iter().map(|t| t / median));
        }
    }
    typical * quantile(&speed, FAST_END).unwrap_or(1.0)
}

/// Time of the work of `positions` with each position at its median.
pub fn median_total<'a>(positions: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    positions.into_iter().filter_map(|t| quantile(t, 0.5)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slice times of `rounds` identical rounds of `slices` slices, each
    /// slice 1.0 s of work in the fast state except slice 3, which costs
    /// 5.0 s in every round. A `slow_share` of rounds run 1.7x slower,
    /// rounds spread evenly through the run, and every time carries a
    /// deterministic ±2% jitter.
    fn bimodal(rounds: usize, slices: usize, slow_share: f64) -> Vec<Vec<f64>> {
        let slow_rounds = (rounds as f64 * slow_share).round() as usize;
        let mut by_position = vec![Vec::new(); slices];
        for r in 0..rounds {
            let slow = (r * 7919) % rounds < slow_rounds;
            for (k, times) in by_position.iter_mut().enumerate() {
                let work = if k == 3 { 5.0 } else { 1.0 };
                let jitter = 1.0 + 0.02 * ((((r * 31 + k * 17) % 101) as f64) / 50.0 - 1.0);
                times.push(work * if slow { 1.7 } else { 1.0 } * jitter);
            }
        }
        by_position
    }

    #[test]
    fn quantile_interpolates_and_handles_edges() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0], 0.9), Some(3.0));
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
        assert_eq!(
            quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.1),
            Some(2.0)
        );
    }

    #[test]
    fn the_fast_total_reads_the_fast_state_whatever_the_mix() {
        // 19 slices of 1.0 s plus one of 5.0 s.
        let fast = 24.0;
        for slow_share in [0.0, 0.3, 0.5, 0.7, 0.85] {
            let got = fast_total(&bimodal(40, 20, slow_share));
            assert!(
                (got / fast - 1.0).abs() < 0.03,
                "slow share {slow_share}: {got} s is not the fast round time {fast} s"
            );
        }
    }

    #[test]
    fn a_whole_run_median_follows_the_mix_instead() {
        let median_round = |slow_share: f64| {
            let by_position = bimodal(40, 20, slow_share);
            let totals: Vec<f64> = (0..40)
                .map(|r| by_position.iter().map(|t| t[r]).sum())
                .collect();
            quantile(&totals, 0.5).expect("non-empty")
        };
        assert!(median_round(0.7) / median_round(0.3) > 1.5);
    }

    #[test]
    fn an_expensive_slice_is_kept_not_filtered() {
        let with = fast_total(&bimodal(40, 20, 0.5));
        let mut without = bimodal(40, 20, 0.5);
        without.remove(3);
        assert!((with - fast_total(&without) - 5.0).abs() < 0.2);
    }
}
