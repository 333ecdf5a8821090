//! `nicbar-lint` — the workspace static-analysis gate.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p nicbar-lint              # scan the workspace
//! cargo run --release -p nicbar-lint -- --fixtures # rule self-test corpus
//! cargo run --release -p nicbar-lint -- --root <dir>
//! cargo run --release -p nicbar-lint -- --format json
//! ```
//!
//! The scan walks every `.rs` file under `crates/*` (vendor and the lint
//! crate itself excluded), parses each into an item tree, applies the
//! token-level rule catalogue of [`rules`], runs the flow-sensitive
//! nondeterminism analysis of [`flow`] over the whole workspace at once
//! (so taint crosses crate boundaries), checks the crate graph for
//! layering violations, subtracts the audited exceptions in `lint.toml`,
//! prints a per-rule summary table and exits nonzero if any unallowlisted
//! finding remains — or if an allowlist entry matched nothing (stale
//! exceptions must not outlive the code they excuse). `--fixtures` instead
//! runs every file in `crates/lint/fixtures/` against the rules and
//! asserts the `//~ RULE` markers line-for-line — the corpus the rules are
//! developed against. `--format json` emits machine-readable findings.

mod allow;
mod flow;
mod lexer;
mod parser;
mod rules;

use parser::FileTree;
use rules::{Finding, Scope};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fixtures = false;
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fixtures" => fixtures = true,
            "--root" => {
                let Some(dir) = it.next() else {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(dir));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("--format expects human|json, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other} (expected --fixtures / --root <dir> / --format <human|json>)"
                );
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.map_or_else(find_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nicbar-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if fixtures {
        run_fixtures(&root)
    } else {
        run_scan(&root, format)
    }
}

/// Ascend from the current directory to the workspace root (the directory
/// holding `lint.toml` next to a `Cargo.toml`).
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if dir.join("lint.toml").is_file() && dir.join("Cargo.toml").is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no lint.toml found between cwd and filesystem root".to_string());
        }
    }
}

/// Recursively collect `.rs` files under `dir`, repo-relative, sorted.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" {
                continue;
            }
            collect_rs(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Minimal JSON string escaping for the `--format json` output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace scan
// ---------------------------------------------------------------------------

fn run_scan(root: &Path, format: Format) -> ExitCode {
    let mut files = Vec::new();
    collect_rs(root, &root.join("crates"), &mut files);

    // Pass 1: parse every in-scope file (the flow analysis needs the whole
    // workspace at once so taint can cross crate boundaries).
    let mut trees: Vec<(FileTree, Scope)> = Vec::new();
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    for rel in &files {
        let Some(scope) = Scope::for_path(rel) else {
            continue;
        };
        let src = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("nicbar-lint: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        trees.push((parser::parse(rel, lexer::lex(&src)), scope));
        sources.insert(rel.clone(), src);
    }

    // Pass 2: token-level rules per file, then the workspace flow analysis.
    let mut findings: Vec<(Finding, String)> = Vec::new(); // finding + source line text
    let line_text = |path: &str, line: u32| -> String {
        sources
            .get(path)
            .and_then(|src| src.lines().nth(line as usize - 1))
            .unwrap_or("")
            .to_string()
    };
    for (tree, scope) in &trees {
        for f in rules::scan_file(tree, *scope) {
            let text = line_text(&f.path, f.line);
            findings.push((f, text));
        }
    }
    for f in flow::analyze(&trees) {
        let text = line_text(&f.path, f.line);
        findings.push((f, text));
    }
    findings.extend(check_layering(root).into_iter().map(|f| (f, String::new())));
    findings.sort_by(|(a, _), (b, _)| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    // Subtract the allowlist.
    let allow_src = std::fs::read_to_string(root.join("lint.toml")).unwrap_or_default();
    let mut allowlist = match allow::parse(&allow_src) {
        Ok(a) => a,
        Err((line, msg)) => {
            eprintln!("nicbar-lint: lint.toml:{line}: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut unallowed: Vec<&(Finding, String)> = Vec::new();
    let mut allowed_per_rule: BTreeMap<&str, u64> = BTreeMap::new();
    for pair in &findings {
        let (f, text) = pair;
        if let Some(entry) = allowlist
            .iter_mut()
            .find(|e| e.covers(f.rule, &f.path, text))
        {
            entry.used += 1;
            *allowed_per_rule.entry(f.rule).or_default() += 1;
        } else {
            unallowed.push(pair);
        }
    }
    // Stale entries are failures, not warnings: an audited exception that
    // matches nothing either outlived the code it excused or was never
    // needed — both mean lint.toml no longer reflects the tree.
    let stale: Vec<&allow::AllowEntry> = allowlist.iter().filter(|e| e.used == 0).collect();

    if format == Format::Json {
        let mut out = String::from("{\"findings\":[");
        let mut first = true;
        for (f, text) in &findings {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"text\":\"{}\"}}",
                f.rule,
                json_escape(&f.path),
                f.line,
                json_escape(&f.message),
                json_escape(text.trim()),
            ));
        }
        out.push_str("],\"unallowed\":[");
        for (i, (f, _)) in unallowed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{}}}",
                f.rule,
                json_escape(&f.path),
                f.line
            ));
        }
        out.push_str("],\"stale_allowlist\":[");
        for (i, e) in stale.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"decl_line\":{}}}",
                json_escape(&e.rule),
                json_escape(&e.path),
                e.decl_line
            ));
        }
        out.push_str(&format!(
            "],\"files_scanned\":{},\"total_findings\":{}}}",
            trees.len(),
            findings.len()
        ));
        println!("{out}");
    } else {
        for (f, text) in &unallowed {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
            if !text.is_empty() {
                println!("    {}", text.trim());
            }
        }
        for e in &stale {
            println!(
                "lint.toml:{}: stale allowlist entry ({} in {}) matched nothing — remove it",
                e.decl_line, e.rule, e.path
            );
        }

        // Summary table.
        println!();
        println!("rule    findings  allowed  description");
        println!("-----   --------  -------  -----------");
        for (rule, desc) in rules::CATALOGUE {
            let total = findings.iter().filter(|(f, _)| f.rule == *rule).count() as u64;
            let allowed = allowed_per_rule.get(rule).copied().unwrap_or(0);
            println!("{rule:<7} {total:>8}  {allowed:>7}  {desc}");
        }
        println!();
        if unallowed.is_empty() && stale.is_empty() {
            println!(
                "nicbar-lint: {} files scanned, {} finding(s), all allowlisted — OK",
                trees.len(),
                findings.len()
            );
        } else {
            println!(
                "nicbar-lint: {} unallowlisted finding(s), {} stale allowlist entrie(s) — add a fix or an audited lint.toml entry",
                unallowed.len(),
                stale.len()
            );
        }
    }
    if unallowed.is_empty() && stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Layering (LY001): crate-graph check from the manifests
// ---------------------------------------------------------------------------

/// `(crate, forbidden transitive dependencies)`; substrate-independent
/// layers must never pull in a backend — and nothing but the tooling layer
/// may depend on the model checker.
const LAYERING: &[(&str, &[&str])] = &[
    (
        "nicbar-sim",
        &[
            "nicbar-net",
            "nicbar-gm",
            "nicbar-elan",
            "nicbar-core",
            "nicbar-bench",
            "nicbar-verify",
        ],
    ),
    (
        "nicbar-net",
        &[
            "nicbar-gm",
            "nicbar-elan",
            "nicbar-core",
            "nicbar-bench",
            "nicbar-verify",
        ],
    ),
    (
        "nicbar-gm",
        &[
            "nicbar-elan",
            "nicbar-core",
            "nicbar-bench",
            "nicbar-verify",
        ],
    ),
    (
        "nicbar-elan",
        &["nicbar-gm", "nicbar-core", "nicbar-bench", "nicbar-verify"],
    ),
    ("nicbar-core", &["nicbar-bench", "nicbar-verify"]),
];

fn check_layering(root: &Path) -> Vec<Finding> {
    // name -> (manifest path, direct nicbar deps)
    let mut graph: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return Vec::new();
    };
    let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    dirs.sort();
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let Ok(src) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let rel = manifest
            .strip_prefix(root)
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .unwrap_or_default();
        let (name, deps) = parse_manifest(&src);
        if let Some(name) = name {
            graph.insert(name, (rel, deps));
        }
    }
    let mut findings = Vec::new();
    for (krate, forbidden) in LAYERING {
        let Some((manifest, _)) = graph.get(*krate) else {
            continue;
        };
        let reachable = transitive(&graph, krate);
        for f in *forbidden {
            if reachable.contains(&f.to_string()) {
                findings.push(Finding {
                    rule: "LY001",
                    path: manifest.clone(),
                    line: 1,
                    message: format!("{krate} must not depend (transitively) on {f}"),
                });
            }
        }
    }
    findings
}

/// Extract the package name and the `nicbar-*` entries of `[dependencies]`
/// (dev-dependencies are deliberately ignored: tests may cross layers).
fn parse_manifest(src: &str) -> (Option<String>, Vec<String>) {
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = String::new();
    for raw in src.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.to_string();
            continue;
        }
        if section == "[package]" && name.is_none() {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    name = Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
        if section == "[dependencies]" {
            if let Some((dep, _)) = line.split_once('=') {
                let dep = dep.trim();
                if dep.starts_with("nicbar-") {
                    deps.push(dep.to_string());
                }
            }
        }
    }
    (name, deps)
}

fn transitive(graph: &BTreeMap<String, (String, Vec<String>)>, start: &str) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    let mut stack: Vec<String> = graph
        .get(start)
        .map(|(_, deps)| deps.clone())
        .unwrap_or_default();
    while let Some(next) = stack.pop() {
        if seen.contains(&next) {
            continue;
        }
        if let Some((_, deps)) = graph.get(&next) {
            stack.extend(deps.iter().cloned());
        }
        seen.push(next);
    }
    seen.sort();
    seen
}

// ---------------------------------------------------------------------------
// Fixture self-test (--fixtures)
// ---------------------------------------------------------------------------

/// Fixture scope from the filename prefix. `simvis_` files run the ND
/// rules, `proto_` the PI001/PR*** family, `hotpath_` PI003, `exporter_`
/// PI002, `telemetry_` OB001; every fixture also runs the exporter rule
/// (it is workspace-wide in the real scan).
fn fixture_scope(name: &str) -> Option<Scope> {
    let mut scope = Scope {
        exporter: true,
        ..Scope::default()
    };
    if name.starts_with("simvis_") {
        scope.nondet = true;
        scope.hash_state = true;
    } else if name.starts_with("threads_") {
        scope.threads = true;
        scope.atomics = true;
    } else if name.starts_with("proto_") {
        scope.proto = true;
    } else if name.starts_with("hotpath_") {
        scope.hotpath = true;
    } else if name.starts_with("telemetry_") {
        scope.telemetry = true;
    } else if !name.starts_with("exporter_") {
        return None;
    }
    Some(scope)
}

fn run_fixtures(root: &Path) -> ExitCode {
    let dir = root.join("crates/lint/fixtures");
    let mut files = Vec::new();
    collect_rs(root, &dir, &mut files);
    if files.is_empty() {
        eprintln!("nicbar-lint: no fixtures under {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    let mut total_expected = 0usize;
    for rel in &files {
        let name = rel.rsplit('/').next().unwrap_or(rel);
        let Some(scope) = fixture_scope(name) else {
            eprintln!("{rel}: FAIL — unknown fixture category prefix");
            failures += 1;
            continue;
        };
        let src = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{rel}: FAIL — {e}");
                failures += 1;
                continue;
            }
        };
        // Expected findings: every `//~ RULE [RULE...]` marker, keyed by line.
        let mut expected: Vec<(u32, String)> = Vec::new();
        for (idx, line) in src.lines().enumerate() {
            if let Some(rest) = line.split("//~").nth(1) {
                for rule in rest.split_whitespace() {
                    expected.push((idx as u32 + 1, rule.to_string()));
                }
            }
        }
        total_expected += expected.len();
        // Each fixture is analyzed as its own one-file workspace: token
        // rules plus the flow analysis (so fixtures can exercise taint
        // propagation through local call chains).
        let ws = vec![(parser::parse(rel, lexer::lex(&src)), scope)];
        let mut findings = rules::scan_file(&ws[0].0, scope);
        findings.extend(flow::analyze(&ws));
        let mut got: Vec<(u32, String)> = findings
            .into_iter()
            .map(|f| (f.line, f.rule.to_string()))
            .collect();
        expected.sort();
        got.sort();
        if got == expected {
            println!("{name}: ok ({} finding(s))", expected.len());
        } else {
            failures += 1;
            eprintln!("{rel}: FAIL");
            for e in &expected {
                if !got.contains(e) {
                    eprintln!("  missing: line {} {}", e.0, e.1);
                }
            }
            for g in &got {
                if !expected.contains(g) {
                    eprintln!("  unexpected: line {} {}", g.0, g.1);
                }
            }
        }
    }
    println!(
        "nicbar-lint --fixtures: {} fixture(s), {} expected finding(s), {} failure(s)",
        files.len(),
        total_expected,
        failures
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
