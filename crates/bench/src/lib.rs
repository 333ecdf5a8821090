//! # nicbar-bench — the harness that regenerates the paper's evaluation
//!
//! One binary per figure (`fig5`, `fig6`, `fig7`, `fig8`), the headline
//! table (`table1`), the feature ablation (`ablation`), and the engine
//! throughput harness (`engine_sweep`). Each binary prints the paper's
//! series side by side with the simulated ones and writes machine-readable
//! JSON under `results/`.

#![warn(missing_docs)]

use std::io::Write;
use std::path::Path;

pub mod critpath;
pub mod engineprof;
pub mod flight;
pub mod json;
pub mod netdump;
pub mod trajectory;

pub use json::{Manifest, MANIFEST_SCHEMA};

/// One labelled curve of `(n, latency_us)` points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Curve label (e.g. "NIC-DS").
    pub label: String,
    /// `(nodes, latency µs)` points.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    /// Build from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(usize, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Latency at a given `n`, if present.
    pub fn at(&self, n: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(pn, _)| pn == n)
            .map(|&(_, v)| v)
    }
}

/// A complete figure: title plus series, serialized to `results/`.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure identifier ("fig5", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Run manifest embedded in the artifact (seed, config hash, git rev).
    pub manifest: Option<Manifest>,
    /// Heading of the printed table's x column; not part of the JSON.
    pub x_label: &'static str,
}

impl Figure {
    /// Assemble a figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>, series: Vec<Series>) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            series,
            manifest: None,
            x_label: "nodes",
        }
    }

    /// Head the printed table's x column with `label` instead of "nodes".
    pub fn with_x_label(mut self, label: &'static str) -> Self {
        self.x_label = label;
        self
    }

    /// Attach a run manifest, embedded under `"manifest"` in the JSON.
    pub fn with_manifest(mut self, manifest: Manifest) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// Print as an aligned text table.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let ns: Vec<usize> = {
            let mut all: Vec<usize> = self
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|&(n, _)| n))
                .collect();
            all.sort_unstable();
            all.dedup();
            all
        };
        let width = self.x_label.chars().count().max(6);
        print!("{:>width$}", self.x_label);
        for s in &self.series {
            print!("{:>16}", s.label);
        }
        println!();
        for n in ns {
            print!("{n:>width$}");
            for s in &self.series {
                match s.at(n) {
                    Some(v) => print!("{v:>16.2}"),
                    None => print!("{:>16}", "-"),
                }
            }
            println!();
        }
    }

    /// Render as JSON (the same shape `serde_json` used to emit for the
    /// derive: `points` as arrays of `[n, latency]` pairs).
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.open_object();
        w.field("id");
        w.string(&self.id);
        w.field("title");
        w.string(&self.title);
        if let Some(m) = &self.manifest {
            m.emit(&mut w);
        }
        w.field("series");
        w.open_array();
        for s in &self.series {
            w.open_object();
            w.field("label");
            w.string(&s.label);
            w.field("points");
            w.open_array();
            for &(n, v) in &s.points {
                w.compact_array(&[n as f64, v]);
            }
            w.close_array();
            w.close_object();
        }
        w.close_array();
        w.close_object();
        w.finish()
    }

    /// Write JSON to `results/<id>.json` (creating the directory).
    pub fn save(&self) -> std::io::Result<()> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        println!("[saved {}]", path.display());
        Ok(())
    }
}

/// Run `f` for every `n` in parallel. Each point is an independent
/// deterministic simulation, so the work is shared across at most
/// `available_parallelism` OS threads pulling indices from an atomic work
/// queue — a 40-point sweep no longer spawns 40 threads.
pub fn parallel_sweep<F>(ns: &[usize], f: F) -> Vec<(usize, f64)>
where
    F: Fn(usize) -> f64 + Sync,
{
    parallel_sweep_map(ns, f)
}

/// Generic [`parallel_sweep`]: collect any `Send` result per point, in
/// `n` order. Used where a sweep needs the full [`nicbar_core::BarrierStats`]
/// (per-iteration samples for median/p99), not just the mean.
pub fn parallel_sweep_map<T, F>(ns: &[usize], f: F) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    if ns.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(ns.len());
    let next = AtomicUsize::new(0);
    let merged = std::sync::Mutex::new(Vec::with_capacity(ns.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&n) = ns.get(i) else { break };
                    local.push((n, f(n)));
                }
                merged.lock().expect("sweep worker panicked").extend(local);
            });
        }
    });
    let mut out = merged.into_inner().expect("sweep worker panicked");
    out.sort_by_key(|&(n, _)| n);
    out
}

/// The benchmark iteration counts used by the figure binaries. The paper
/// uses 100 warm-up + 10 000 measured iterations on hardware; the simulated
/// fabric is deterministic, so 100 + 2 000 reaches the identical steady
/// state at a fraction of the wall time (changing this only narrows the
/// already-negligible variance).
pub fn figure_cfg() -> nicbar_core::RunCfg {
    nicbar_core::RunCfg {
        warmup: 100,
        iters: 2000,
        ..nicbar_core::RunCfg::default()
    }
}

/// CI-smoke iteration counts used by the figure binaries under `--quick`.
pub fn quick_cfg() -> nicbar_core::RunCfg {
    nicbar_core::RunCfg {
        warmup: 10,
        iters: 100,
        ..nicbar_core::RunCfg::default()
    }
}

/// The command-line options of the figure binaries that take the shared
/// flags (fig5–fig8, fig_scale, algo_compare and contend), parsed once.
#[derive(Clone, Debug)]
pub struct FigArgs {
    /// `--quick`: CI smoke mode — shrink the sweep and iteration counts.
    pub quick: bool,
    /// `--flight`: opt into a flight-recorded capture after the sweep.
    pub flight: bool,
    /// `--prof`: arm the engine self-profiler and print an `engine-prof`
    /// report for one parallel run after the sweep.
    pub prof: bool,
    /// [`quick_cfg`] under `--quick`, [`figure_cfg`] otherwise, with
    /// `--engine`/`--shards`/`--partition` already threaded in.
    pub cfg: nicbar_core::RunCfg,
}

/// Print `error: <msg>` and exit with status 2: how the bench binaries
/// reject a malformed command line.
pub fn exit_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// An output file named on the command line, created once the command line
/// parses and before anything runs, so an unwritable path costs no run.
pub struct OutputFile {
    path: String,
    file: std::fs::File,
}

impl OutputFile {
    /// Create (truncate) `path`; failure prints `error: could not write
    /// <path>: <reason>` and exits with status 2.
    pub fn create(path: String) -> Self {
        match std::fs::File::create(&path) {
            Ok(file) => OutputFile { path, file },
            Err(e) => exit_usage(&format!("could not write {path}: {e}")),
        }
    }

    /// Write `text` as the file's contents, failing as [`OutputFile::create`]
    /// does; returns the path for the caller's report line.
    pub fn write(mut self, text: &str) -> String {
        if let Err(e) = self.file.write_all(text.as_bytes()) {
            exit_usage(&format!("could not write {}: {e}", self.path));
        }
        self.path
    }
}

/// The argument after `flag`; a command line that ends first prints
/// `error: <flag> needs a value` and exits with status 2.
pub fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| exit_usage(&format!("{flag} needs a value")))
}

/// Parse an `--engine` flag value: `auto`, `sequential` or `parallel`.
pub fn parse_engine(value: &str) -> Result<nicbar_sim::EngineSel, String> {
    match value {
        "auto" => Ok(nicbar_sim::EngineSel::Auto),
        "sequential" => Ok(nicbar_sim::EngineSel::Sequential),
        "parallel" => Ok(nicbar_sim::EngineSel::Parallel),
        other => Err(format!(
            "--engine must be auto|sequential|parallel, got {other}"
        )),
    }
}

/// Parse a `--shards` flag value: a positive integer.
pub fn parse_shards(value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(k) if k >= 1 => Ok(k),
        _ => Err(format!("--shards must be a positive integer, got {value}")),
    }
}

/// Parse a `--partition` flag value: `contiguous` (the default even split)
/// or `profile=<path>` (profile-guided, reading a prior
/// `results/engine_prof.json`-shaped capture).
pub fn parse_partition(value: &str) -> Result<nicbar_sim::PartitionSel, String> {
    match value {
        "contiguous" => Ok(nicbar_sim::PartitionSel::Contiguous),
        other => match other.strip_prefix("profile=") {
            Some(path) => engineprof::partition_from_profile(path).ok_or_else(|| {
                format!(
                    "--partition profile={path}: not a readable, coherent engine_prof \
                     capture of at most {} components",
                    nicbar_sim::MAX_COMPONENTS
                )
            }),
            None => Err(format!(
                "--partition must be contiguous|profile=<path>, got {other}"
            )),
        },
    }
}

/// Parse the figure binaries' shared flags (program name excluded):
/// `--quick`, `--engine <auto|sequential|parallel>`, `--shards <K>` and
/// `--partition <contiguous|profile=PATH>`, plus the switches the binary
/// lists in `switches`. `--flight` and `--prof` set the matching
/// [`FigArgs`] fields; any other listed switch (contend's `--check`) is
/// the binary's own to look for. Every other argument is an error, so a
/// typo or a flag the binary never reads cannot quietly run its default job.
pub fn parse_fig_args(args: &[String], switches: &[&str]) -> Result<FigArgs, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let mut cfg = if quick { quick_cfg() } else { figure_cfg() };
    let (mut flight, mut prof) = (false, false);
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg {
            "--quick" => {}
            "--engine" => cfg.engine = parse_engine(value()?)?,
            "--shards" => cfg.shards = parse_shards(value()?)?,
            "--partition" => cfg.partition = parse_partition(value()?)?,
            switch if switches.contains(&switch) => {
                flight |= switch == "--flight";
                prof |= switch == "--prof";
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(FigArgs {
        quick,
        flight,
        prof,
        cfg,
    })
}

/// [`parse_fig_args`] over `std::env::args`; a malformed or unknown flag
/// prints `error: …` and exits with status 2.
pub fn fig_args(switches: &[&str]) -> FigArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_fig_args(&args, switches).unwrap_or_else(|e| exit_usage(&e))
}

/// The command line of a binary that takes no arguments: any argument
/// prints `error: unknown option <arg>` and exits with status 2.
pub fn no_args() {
    if let Some(arg) = std::env::args().nth(1) {
        exit_usage(&format!("unknown option {arg}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup() {
        let s = Series::new("x", vec![(2, 1.0), (4, 2.0)]);
        assert_eq!(s.at(4), Some(2.0));
        assert_eq!(s.at(8), None);
    }

    #[test]
    fn parallel_sweep_is_ordered_and_complete() {
        let pts = parallel_sweep(&[8, 2, 4], |n| n as f64 * 1.5);
        assert_eq!(pts, vec![(2, 3.0), (4, 6.0), (8, 12.0)]);
    }

    #[test]
    fn parallel_sweep_handles_more_points_than_cores() {
        let ns: Vec<usize> = (1..=97).collect();
        let pts = parallel_sweep(&ns, |n| n as f64);
        assert_eq!(pts.len(), 97);
        assert!(pts.iter().all(|&(n, v)| v == n as f64));
    }

    #[test]
    fn figure_print_does_not_panic() {
        let fig = Figure::new(
            "t",
            "test figure",
            vec![
                Series::new("a", vec![(2, 1.0)]),
                Series::new("b", vec![(2, 2.0), (4, 3.0)]),
            ],
        );
        fig.print();
    }

    #[test]
    fn fig_args_parse_the_shared_flags() {
        let args: Vec<String> = ["--quick", "--engine", "parallel", "--shards", "3", "--prof"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        let parsed = parse_fig_args(&args, &["--flight", "--prof"]).expect("well-formed flags");
        assert!(parsed.quick && !parsed.flight && parsed.prof);
        assert_eq!(parsed.cfg.engine, nicbar_sim::EngineSel::Parallel);
        assert_eq!(parsed.cfg.shards, 3);
        assert_eq!(parsed.cfg.iters, quick_cfg().iters);
    }

    #[test]
    fn figure_json_shape() {
        let fig = Figure::new("t", "ti\"tle", vec![Series::new("a", vec![(2, 1.5)])]);
        let j = fig.to_json();
        assert!(j.contains("\"id\": \"t\""));
        assert!(j.contains("\"ti\\\"tle\""));
        assert!(j.contains("[2, 1.5]"), "got: {j}");
    }
}
