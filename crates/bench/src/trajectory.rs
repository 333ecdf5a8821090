//! Perf-trajectory artifacts (`BENCH_*.json`, at the repository root).
//!
//! A trajectory records wall-clock runs: each full `fig_scale` run appends
//! one run to `BENCH_scale.json` (events/sec, wall seconds and peak RSS
//! per sweep point, next to its [`point`] latency summary, plus the
//! parallel engine's speedup over sequential). Each run embeds its
//! manifest so the artifact states which seed, config, and git revision
//! produced it. Simulated latencies alone are deterministic
//! model output, not performance; they live in `results/*.json` and
//! change only when behaviour does.
//!
//! The artifact is *append-only*: each regeneration adds one run object to
//! a `"runs"` array instead of truncating the file, so the trajectory is a
//! history — every entry carries its own manifest (seed, config hash, git
//! revision) and the file answers "when did this curve move?" without
//! spelunking CI logs. The history is capped at [`MAX_RUNS`] entries
//! (oldest dropped first), and a legacy single-run file (top-level
//! `"series"`) restarts the history rather than corrupting it.

use nicbar_core::BarrierStats;
use std::path::PathBuf;

/// Most runs retained in one `BENCH_*.json` history; the oldest entries
/// are dropped first. 64 runs × a few KiB keeps the tracked artifact far
/// below anything a repository would notice.
pub const MAX_RUNS: usize = 64;

/// One node count's latency summary.
#[derive(Clone, Debug)]
pub struct TrajectoryPoint {
    /// Group size.
    pub n: usize,
    /// Mean latency over the measured window, µs.
    pub mean_us: f64,
    /// Median (p50) latency, µs.
    pub median_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Measured iterations behind the quantiles.
    pub iters: usize,
}

/// Summarize one sweep point from its full stats. Quantiles use the
/// nearest-rank method over the sorted per-iteration samples.
pub fn point(n: usize, stats: &BarrierStats) -> TrajectoryPoint {
    let mut v = stats.per_iter_us.clone();
    v.sort_by(f64::total_cmp);
    let q = |f: f64| -> f64 {
        if v.is_empty() {
            return stats.mean_us;
        }
        let idx = ((v.len() as f64 - 1.0) * f).round() as usize;
        v[idx.min(v.len() - 1)]
    };
    TrajectoryPoint {
        n,
        mean_us: stats.mean_us,
        median_us: q(0.5),
        p99_us: q(0.99),
        iters: v.len(),
    }
}

/// Split the `"runs"` array of an existing trajectory artifact back into
/// its run-object sources. Returns an empty vector when the text has no
/// `"runs"` array — including the legacy single-run schema (top-level
/// `"series"`), which deliberately restarts the history. The scanner is
/// string-aware (a `{` inside a manifest's config string is data, not
/// structure).
fn extract_runs(text: &str) -> Vec<String> {
    let Some(key) = text.find("\"runs\"") else {
        return Vec::new();
    };
    let Some(open) = text[key..].find('[') else {
        return Vec::new();
    };
    let mut runs = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = None;
    for (i, c) in text[key + open..].char_indices() {
        let at = key + open + i;
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(at);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        runs.push(text[s..=at].to_string());
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    runs
}

/// Append `run_body` (one JSON object carrying its manifest) to the
/// `BENCH_<bench>.json` history at the repository root and return the
/// path. Existing runs are preserved (capped at [`MAX_RUNS`], oldest
/// dropped); a missing or legacy-schema file starts a fresh history.
pub fn append_run(bench: &str, run_body: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{bench}.json"));
    append_run_at(&path, bench, run_body)?;
    Ok(path)
}

/// [`append_run`] against an explicit file path (testable without touching
/// the process working directory).
pub fn append_run_at(path: &std::path::Path, bench: &str, run_body: &str) -> std::io::Result<()> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => extract_runs(&text),
        Err(_) => Vec::new(),
    };
    runs.push(run_body.to_string());
    if runs.len() > MAX_RUNS {
        let drop = runs.len() - MAX_RUNS;
        runs.drain(..drop);
    }
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"");
    out.push_str(bench);
    out.push_str("\",\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        // A retained run starts at its `{` but its later lines keep the
        // indent of their old position: strip that (the closing brace's
        // indent) before indenting every run by four spaces, so rewriting
        // the file leaves every retained run in the same shape.
        let run = run.trim();
        let pad = run
            .lines()
            .last()
            .map_or(0, |l| l.len() - l.trim_start().len());
        for (j, line) in run.lines().enumerate() {
            let indent = line.len() - line.trim_start().len();
            out.push_str("    ");
            out.push_str(if j == 0 {
                line
            } else {
                &line[indent.min(pad)..]
            });
            out.push('\n');
        }
        // Only the trailing comma distinguishes runs.
        if i + 1 < runs.len() {
            out.truncate(out.trim_end().len());
            out.push_str(",\n");
        }
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code
mod tests {
    use super::*;
    use crate::json::{Manifest, Writer};

    /// A minimal run body: one object carrying `manifest`.
    fn run_body(manifest: &Manifest) -> String {
        let mut w = Writer::new();
        w.open_object();
        manifest.emit(&mut w);
        w.close_object();
        w.finish()
    }

    fn stats(samples: &[f64]) -> BarrierStats {
        BarrierStats {
            n: 4,
            mean_us: samples.iter().sum::<f64>() / samples.len() as f64,
            per_iter_us: samples.to_vec(),
            wire_per_barrier: 0.0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn quantiles_use_nearest_rank_over_sorted_samples() {
        let s = stats(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let p = point(4, &s);
        assert_eq!(p.median_us, 3.0);
        assert_eq!(p.p99_us, 5.0);
        assert_eq!(p.iters, 5);
    }

    #[test]
    fn extract_runs_round_trips_and_ignores_string_braces() {
        let m = Manifest::new(1, "braces { in } config \"quoted\"");
        let body = run_body(&m);
        let file = format!("{{\n  \"bench\": \"t\",\n  \"runs\": [\n{body},\n{body}\n  ]\n}}\n");
        let runs = extract_runs(&file);
        assert_eq!(runs.len(), 2);
        for r in &runs {
            assert!(r.contains("\"manifest\""));
            assert!(r.trim().starts_with('{') && r.trim().ends_with('}'));
        }
    }

    #[test]
    fn legacy_single_run_schema_restarts_the_history() {
        assert!(extract_runs("{\n  \"bench\": \"x\",\n  \"series\": [{}]\n}").is_empty());
        assert!(extract_runs("").is_empty());
    }

    #[test]
    fn history_is_append_only_and_capped() {
        let dir = std::env::temp_dir().join(format!("nicbar_traj_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_t.json");
        let m = Manifest::new(9, "traj test");
        let body = run_body(&m);

        // Legacy file: one run replaces it.
        std::fs::write(&path, "{\n  \"bench\": \"t\",\n  \"series\": []\n}").unwrap();
        append_run_at(&path, "t", &body).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(extract_runs(&text).len(), 1);
        assert!(text.contains("\"runs\""));
        assert!(text.contains("\"manifest\""));

        // Appends grow the history monotonically...
        for i in 0..MAX_RUNS + 5 {
            let n = extract_runs(&std::fs::read_to_string(&path).unwrap()).len();
            append_run_at(&path, "t", &body).unwrap();
            let after = extract_runs(&std::fs::read_to_string(&path).unwrap()).len();
            assert!(after >= n, "append {i} shrank the history: {n} -> {after}");
            // ...up to the cap.
            assert!(after <= MAX_RUNS);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(extract_runs(&text).len(), MAX_RUNS);
        // Re-appending never re-indents a retained run: after all those
        // rewrites the oldest run sits where the newest does.
        let indents: Vec<usize> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("\"manifest\""))
            .map(|l| l.len() - l.trim_start().len())
            .collect();
        assert_eq!(indents.len(), MAX_RUNS);
        assert!(
            indents.iter().all(|&i| i == indents[0]),
            "manifest indents drifted: {indents:?}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
