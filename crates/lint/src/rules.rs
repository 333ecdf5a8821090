//! The rule catalogue and the token-level checkers.
//!
//! Rules are grouped by what they protect (see `DESIGN.md`, "Static
//! analysis & determinism guarantees"):
//!
//! * `ND***` — no nondeterminism sources in sim-visible code. The DES is
//!   bit-deterministic (same seed ⇒ same event order ⇒ same trace); wall
//!   clocks, entropy-seeded RNGs, hash-order iteration and environment
//!   reads would all silently break that.
//! * `PI***` — protocol invariants: checked-width arithmetic in the NIC
//!   bit-vector bookkeeping, exhaustive `SpanEvent`/`Phase`/`CausalKind` matches in
//!   exporters, and no panicking calls on the NIC hot path.
//! * `LY***` — layering: substrate-independent crates must not depend on
//!   backend crates (checked from the crate graph, not source text).

#[cfg(test)]
use crate::lexer::lex;
use crate::lexer::{Tok, Token};
use crate::parser::{self, FileTree};

/// A single rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`ND001`...).
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// `(id, one-line description)` for every rule, in report order.
pub const CATALOGUE: &[(&str, &str)] = &[
    (
        "ND001",
        "wall-clock taint (Instant / SystemTime, propagated through calls) reaching a sim-visible sink",
    ),
    (
        "ND002",
        "entropy-seeded randomness (thread_rng / from_entropy / OsRng) anywhere",
    ),
    (
        "ND003",
        "hash-order iteration (HashMap/HashSet .iter()/.keys()/for-in) in sim-visible code",
    ),
    (
        "ND004",
        "std::env reads outside bench binaries (runs must not depend on the environment)",
    ),
    (
        "ND005",
        "threads/channels/atomics (thread::spawn, thread::scope, mpsc, Atomic*::new) outside the parallel engine (crates/sim/src/parallel.rs) and its SPSC queue (crates/sim/src/queue.rs)",
    ),
    (
        "PI001",
        "bare narrowing `as` cast in protocol bit-vector bookkeeping (use try_from)",
    ),
    (
        "PI002",
        "wildcard `_ =>` arm in a SpanEvent/Phase/CausalKind/ResKind match (new variants would be silently swallowed)",
    ),
    (
        "PI003",
        "panic!/unwrap/expect on the NIC hot path outside debug_assert",
    ),
    (
        "OB001",
        "ad-hoc println!/eprintln!/dbg! telemetry in crates/sim (count through Counters or return the value in a capture)",
    ),
    (
        "PR001",
        "non-terminal catch-all arm in a protocol state-machine enum match (new transitions silently absorbed)",
    ),
    (
        "PR002",
        "original protocol send (retx: false, non-NACK) without a sent_payloads record in the same fn",
    ),
    (
        "PR003",
        "NicCollective::on_timer that can neither NACK, complete, nor delegate (stalls would never recover)",
    ),
    (
        "LY001",
        "layering: sim/net must not depend on backend crates (elan/gm/core/bench)",
    ),
];

/// Which rule families apply to a file (decided from its path, or forced
/// by fixture category in `--fixtures` mode).
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// ND001/ND002/ND004: sim-visible code (everything but bench binaries).
    pub nondet: bool,
    /// ND003 specifically (same scope as `nondet` in the real tree).
    pub hash_state: bool,
    /// ND005: no hand-rolled concurrency in sim-visible code. All worker
    /// threads belong to the rank-sharded parallel engine, whose merge
    /// discipline keeps the run deterministic; a stray `thread::spawn` or
    /// channel elsewhere reintroduces scheduling nondeterminism.
    pub threads: bool,
    /// ND005, atomics half: no `Atomic*::new` outside the SPSC mailbox
    /// implementation (`crates/sim/src/queue.rs`) and the parallel engine.
    /// A lone atomic is how ad-hoc cross-thread signalling starts; the
    /// engine's rings are the only audited lock-free protocol in the tree.
    pub atomics: bool,
    /// PI001: protocol bit-vector bookkeeping files.
    pub proto: bool,
    /// PI003: NIC hot-path files.
    pub hotpath: bool,
    /// PI002: applies everywhere source is scanned.
    pub exporter: bool,
    /// OB001: the engine crate (`crates/sim/`) must report through its
    /// counters or a returned capture (profiler data, recorder
    /// histograms), never by printing. A stray `println!` in the engine is
    /// invisible to the profiler's exporters, corrupts any harness that
    /// parses engine output, and (from a worker shard) interleaves
    /// nondeterministically.
    pub telemetry: bool,
}

impl Scope {
    /// The scope for a repo-relative path, or `None` if the file is not
    /// scanned at all (vendor, the lint crate itself).
    pub fn for_path(path: &str) -> Option<Scope> {
        if path.starts_with("vendor/") || path.starts_with("crates/lint/") {
            return None;
        }
        // The bench crate's binaries are host-side harnesses: they time
        // wall clocks and spawn sweep threads on purpose, and never run
        // inside the DES.
        let bench = path.starts_with("crates/bench/");
        // The model checker is a host-side tool like bench (it may read
        // wall clocks for progress reporting and env for CI knobs), but
        // its exploration must still be reproducible, so hash-order
        // iteration rules stay on.
        let tool = bench || path.starts_with("crates/verify/");
        let proto = matches!(
            path,
            "crates/core/src/protocol.rs"
                | "crates/core/src/host_app.rs"
                | "crates/core/src/elan_thread.rs"
                | "crates/core/src/elan_chain.rs"
        );
        let hotpath = matches!(path, "crates/gm/src/nic.rs" | "crates/elan/src/nic.rs");
        // The parallel engine owns all worker threads.
        let threads = !bench && path != "crates/sim/src/parallel.rs";
        Some(Scope {
            nondet: !tool,
            hash_state: !bench,
            threads,
            // queue.rs owns the SPSC ring's acquire/release pair — the one
            // place hand-written atomics are the point, not a smell.
            atomics: threads && path != "crates/sim/src/queue.rs",
            proto,
            hotpath,
            exporter: true,
            telemetry: path.starts_with("crates/sim/"),
        })
    }
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `a :: b` starting at `i` (where `a` is already matched at `i`).
fn path_seg(toks: &[Token], i: usize, next: &str) -> bool {
    punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') && ident_at(toks, i + 3) == Some(next)
}

/// Token index ranges covered by `#[cfg(test)] mod ... { ... }` blocks and
/// by `debug_assert*!(...)` argument lists — excluded from PI003.
fn excluded_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // #[cfg(test)]
        if punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '[')
            && ident_at(toks, i + 2) == Some("cfg")
            && punct_at(toks, i + 3, '(')
            && ident_at(toks, i + 4) == Some("test")
            && punct_at(toks, i + 5, ')')
            && punct_at(toks, i + 6, ']')
        {
            // Skip any further attributes, then expect an item; find its
            // opening brace and the matching close.
            let mut j = i + 7;
            while punct_at(toks, j, '#') {
                // skip a whole #[...] group
                let mut depth = 0usize;
                j += 1; // at '['
                loop {
                    match toks.get(j).map(|t| &t.tok) {
                        Some(Tok::Punct('[')) => depth += 1,
                        Some(Tok::Punct(']')) => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        None => break,
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Find the item's opening '{' (skipping e.g. `mod tests`).
            while j < toks.len() && !punct_at(toks, j, '{') {
                j += 1;
            }
            let start = j;
            let mut depth = 0usize;
            while j < toks.len() {
                if punct_at(toks, j, '{') {
                    depth += 1;
                } else if punct_at(toks, j, '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            ranges.push((start, j));
            i = j + 1;
            continue;
        }
        // debug_assert! / debug_assert_eq! / debug_assert_ne! ( ... )
        if let Some(name) = ident_at(toks, i) {
            if name.starts_with("debug_assert") && punct_at(toks, i + 1, '!') {
                let mut j = i + 2; // at '(' (or '[' / '{', all legal)
                let (open, close) = match toks.get(j).map(|t| &t.tok) {
                    Some(Tok::Punct('(')) => ('(', ')'),
                    Some(Tok::Punct('[')) => ('[', ']'),
                    Some(Tok::Punct('{')) => ('{', '}'),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let start = j;
                let mut depth = 0usize;
                while j < toks.len() {
                    if punct_at(toks, j, open) {
                        depth += 1;
                    } else if punct_at(toks, j, close) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                ranges.push((start, j));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i <= b)
}

/// Scan one file's source under `scope`; `path` is used only for
/// reporting. Parses the file and runs the token-level rules; the
/// flow-sensitive ND rules live in [`crate::flow`] and run over the whole
/// workspace at once.
#[cfg(test)]
pub fn scan_source(path: &str, src: &str, scope: Scope) -> Vec<Finding> {
    scan_file(&parser::parse(path, lex(src)), scope)
}

/// Token-level rules over one parsed file.
pub fn scan_file(tree: &FileTree, scope: Scope) -> Vec<Finding> {
    let path = tree.path.as_str();
    let toks = &tree.toks;
    let mut out = Vec::new();
    let push = |out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String| {
        out.push(Finding {
            rule,
            path: path.to_string(),
            line,
            message,
        });
    };

    // PI003 and OB001 both exempt `#[cfg(test)]` blocks (tests may panic
    // and may print).
    let excluded = if scope.hotpath || scope.telemetry {
        excluded_ranges(toks)
    } else {
        Vec::new()
    };
    // Terminal dispatch arms — a catch-all match arm whose whole body is a
    // `panic!`/`unreachable!` — are the idiomatic "this transition is
    // impossible" dead end. PI003 exempts them: the panic *is* the audited
    // terminal state, and PR001 independently checks it stays terminal.
    let terminal = if scope.hotpath {
        terminal_arm_ranges(toks)
    } else {
        Vec::new()
    };

    for i in 0..toks.len() {
        let line = toks[i].line;
        let Some(ident) = ident_at(toks, i) else {
            continue;
        };
        // --- ND002: entropy randomness ----------------------------------
        if scope.nondet && matches!(ident, "thread_rng" | "from_entropy" | "OsRng") {
            push(&mut out, "ND002", line, format!("use of {ident}"));
        }
        // --- ND004: environment reads -----------------------------------
        if scope.nondet {
            if ident == "std" && path_seg(toks, i, "env") {
                push(&mut out, "ND004", line, "use of std::env".to_string());
            } else if ident == "env"
                && punct_at(toks, i + 1, ':')
                && punct_at(toks, i + 2, ':')
                && matches!(
                    ident_at(toks, i + 3),
                    Some("var" | "vars" | "var_os" | "args" | "args_os")
                )
            {
                push(&mut out, "ND004", line, "environment read".to_string());
            }
        }
        // --- ND005: threads/channels outside the parallel engine --------
        if scope.threads {
            if ident == "thread" && (path_seg(toks, i, "spawn") || path_seg(toks, i, "scope")) {
                let what = ident_at(toks, i + 3).unwrap_or_default();
                push(
                    &mut out,
                    "ND005",
                    line,
                    format!("thread::{what} outside crates/sim/src/parallel.rs"),
                );
            }
            if ident == "mpsc" {
                push(
                    &mut out,
                    "ND005",
                    line,
                    "mpsc channel outside crates/sim/src/parallel.rs".to_string(),
                );
            }
        }
        // ND005, atomics half: constructing an atomic outside the SPSC
        // ring/engine. Only `Atomic*::new` is flagged — *using* a handle
        // someone else constructed is the constructor's problem.
        if scope.atomics
            && matches!(
                ident,
                "AtomicBool"
                    | "AtomicU8"
                    | "AtomicU16"
                    | "AtomicU32"
                    | "AtomicU64"
                    | "AtomicUsize"
                    | "AtomicI8"
                    | "AtomicI16"
                    | "AtomicI32"
                    | "AtomicI64"
                    | "AtomicIsize"
                    | "AtomicPtr"
            )
            && path_seg(toks, i, "new")
        {
            push(
                &mut out,
                "ND005",
                line,
                format!("{ident}::new outside the SPSC queue / parallel engine"),
            );
        }
        // --- PI001: narrowing casts -------------------------------------
        if scope.proto
            && ident == "as"
            && matches!(
                ident_at(toks, i + 1),
                Some("u8" | "u16" | "u32" | "i8" | "i16" | "i32")
            )
        {
            push(
                &mut out,
                "PI001",
                line,
                format!(
                    "bare `as {}` narrowing cast in bookkeeping path (use try_from)",
                    ident_at(toks, i + 1).unwrap_or_default()
                ),
            );
        }
        // --- PI003: hot-path panics -------------------------------------
        if scope.hotpath && !in_ranges(&excluded, i) && !in_ranges(&terminal, i) {
            if ident == "panic" && punct_at(toks, i + 1, '!') {
                push(
                    &mut out,
                    "PI003",
                    line,
                    "panic! on the NIC hot path".to_string(),
                );
            }
            if matches!(ident, "unwrap" | "expect") && i > 0 && punct_at(toks, i - 1, '.') {
                push(
                    &mut out,
                    "PI003",
                    line,
                    format!(".{ident}() on the NIC hot path"),
                );
            }
        }
        // --- OB001: ad-hoc print telemetry in the engine crate ----------
        if scope.telemetry
            && !in_ranges(&excluded, i)
            && matches!(ident, "println" | "eprintln" | "print" | "eprint" | "dbg")
            && punct_at(toks, i + 1, '!')
        {
            push(
                &mut out,
                "OB001",
                line,
                format!("{ident}! in crates/sim (count through Counters or return the value in a capture)"),
            );
        }
        // --- PI002: wildcard arms in SpanEvent/Phase/CausalKind/ResKind
        // matches ---------------------------------------------------------
        if scope.exporter && ident == "match" {
            scan_match(toks, i, path, &mut out);
        }
    }
    // --- PR***: protocol reachability (per-fn, needs the item tree) -----
    if scope.proto || scope.hotpath {
        scan_protocol_reachability(tree, scope, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Enums whose matches are NIC state-machine transition dispatch. A
/// catch-all arm over one of these absorbs future transitions silently —
/// unless it is *terminal* (its whole body is a `panic!`/`unreachable!`),
/// which declares the transition impossible and fails loudly instead.
const PROTO_ENUMS: &[&str] = &[
    "CollKind",
    "CollAction",
    "GroupOp",
    "EventAction",
    "GmEvent",
    "ElanEvent",
    "ThreadAction",
    "ThreadOp",
    "ElanPayload",
    "PacketKind",
];

/// Token ranges of catch-all+terminal match-arm bodies (PI003 exemption).
fn terminal_arm_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("match") {
            continue;
        }
        for arm in parser::match_arms(toks, i) {
            if parser::is_catch_all_pattern(toks, &arm) && parser::is_terminal_body(toks, &arm) {
                ranges.push(arm.body);
            }
        }
    }
    ranges
}

/// PR001/PR002/PR003 over the parsed item tree (skips `#[cfg(test)]`).
fn scan_protocol_reachability(tree: &FileTree, scope: Scope, out: &mut Vec<Finding>) {
    let toks = &tree.toks;
    for f in &tree.fns {
        if f.in_test {
            continue;
        }
        let Some((blo, bhi)) = f.body else {
            continue;
        };
        // --- PR001: catch-all arms in protocol enum matches -------------
        for i in blo..=bhi {
            if ident_at(toks, i) != Some("match") {
                continue;
            }
            let arms = parser::match_arms(toks, i);
            let is_protocol = arms.iter().any(|arm| {
                (arm.pat.0..arm.pat.1).any(|j| {
                    matches!(ident_at(toks, j), Some(name) if PROTO_ENUMS.contains(&name))
                        && punct_at(toks, j + 1, ':')
                        && punct_at(toks, j + 2, ':')
                })
            });
            if !is_protocol {
                continue;
            }
            for arm in &arms {
                if parser::is_catch_all_pattern(toks, arm) && !parser::is_terminal_body(toks, arm) {
                    out.push(Finding {
                        rule: "PR001",
                        path: tree.path.clone(),
                        line: toks[arm.pat.0].line,
                        message: "catch-all arm in a protocol enum match silently absorbs new \
                                  transitions (enumerate them, or make the arm terminal with panic!/unreachable!)"
                            .to_string(),
                    });
                }
            }
        }
        // PR002/PR003 are about the *collective* protocol; the hotpath NIC
        // wire layer only forwards CollActions it was handed.
        if !scope.proto {
            continue;
        }
        // --- PR002: original send must be recorded for NACK service -----
        let has_payload_record = (blo..=bhi).any(|i| {
            ident_at(toks, i) == Some("sent_payloads")
                && (i + 1..(i + 7).min(bhi + 1))
                    .any(|j| punct_at(toks, j, '=') && !punct_at(toks, j + 1, '='))
        });
        for i in blo..=bhi {
            if ident_at(toks, i) != Some("CollAction")
                || !punct_at(toks, i + 1, ':')
                || !punct_at(toks, i + 2, ':')
                || ident_at(toks, i + 3) != Some("Send")
                || !punct_at(toks, i + 4, '{')
            {
                continue;
            }
            let close = {
                let mut depth = 0isize;
                let mut j = i + 4;
                loop {
                    if j > bhi {
                        break bhi;
                    }
                    if punct_at(toks, j, '{') {
                        depth += 1;
                    } else if punct_at(toks, j, '}') {
                        depth -= 1;
                        if depth == 0 {
                            break j;
                        }
                    }
                    j += 1;
                }
            };
            let retx_false = (i + 4..close).any(|j| {
                ident_at(toks, j) == Some("retx")
                    && punct_at(toks, j + 1, ':')
                    && ident_at(toks, j + 2) == Some("false")
            });
            let literal_nack = (i + 4..close).any(|j| ident_at(toks, j) == Some("Nack"));
            if retx_false && !literal_nack && !has_payload_record {
                out.push(Finding {
                    rule: "PR002",
                    path: tree.path.clone(),
                    line: toks[i].line,
                    message: "original protocol send (retx: false) without a sent_payloads \
                              record in this fn — a NACK for this round could never be served"
                        .to_string(),
                });
            }
        }
        // --- PR003: on_timer must be able to recover a stall ------------
        if f.name == "on_timer" && f.trait_of.as_deref() == Some("NicCollective") {
            let can_recover = (blo..=bhi).any(|i| {
                matches!(ident_at(toks, i), Some("Nack" | "completed" | "HostDone"))
                    || (ident_at(toks, i) == Some("on_timer") && punct_at(toks, i - 1, '.'))
            });
            if !can_recover {
                out.push(Finding {
                    rule: "PR003",
                    path: tree.path.clone(),
                    line: f.line,
                    message: "NicCollective::on_timer never schedules a NACK, reaches \
                              completion, or delegates — a lost packet would stall forever"
                        .to_string(),
                });
            }
        }
    }
}

/// Inspect one `match` whose keyword sits at `kw`: if its arm *patterns*
/// name `SpanEvent::`, `Phase::` or `CausalKind::` and an arm-level `_ =>` (or
/// `_ if ... =>`) exists, flag it.
///
/// Only pattern positions count: a match over some other type whose arm
/// *bodies* construct or emit span events (common in tests and drivers) is
/// not an exporter and must not be flagged. Pattern position is tracked
/// with a small state machine: everything from the body's `{` (or from an
/// arm-ending `,` / block close back to depth 1) up to the next `=>` is
/// pattern + guard; everything after `=>` is body.
fn scan_match(toks: &[Token], kw: usize, path: &str, out: &mut Vec<Finding>) {
    // Find the body's opening brace: the first '{' at bracket/paren depth 0
    // after the scrutinee expression.
    let mut i = kw + 1;
    let mut depth = 0isize;
    let body_open = loop {
        match toks.get(i).map(|t| &t.tok) {
            None => return,
            Some(Tok::Punct('(' | '[')) => depth += 1,
            Some(Tok::Punct(')' | ']')) => depth -= 1,
            Some(Tok::Punct('{')) if depth == 0 => break i,
            _ => {}
        }
        i += 1;
    };
    // Walk the body, tracking brace depth (relative: body '{' = 1) and
    // paren/bracket depth within it.
    let mut brace = 0isize;
    let mut inner = 0isize;
    let mut in_pattern = true;
    let mut span_in_pattern = false;
    let mut wildcard_at: Option<u32> = None;
    let mut i = body_open;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => brace += 1,
            Tok::Punct('}') => {
                brace -= 1;
                if brace == 0 {
                    break;
                }
                // A `{ ... }` arm body closing back to depth 1 ends the
                // arm; the next tokens are the next arm's pattern.
                if brace == 1 && inner == 0 {
                    in_pattern = true;
                }
            }
            Tok::Punct('(' | '[') => inner += 1,
            Tok::Punct(')' | ']') => inner -= 1,
            Tok::Punct('=')
                if brace == 1 && inner == 0 && in_pattern && punct_at(toks, i + 1, '>') =>
            {
                in_pattern = false;
                i += 1; // skip the '>'
            }
            Tok::Punct(',') if brace == 1 && inner == 0 => in_pattern = true,
            // Any inner depth: tuple patterns like `(SpanEvent::X, _)`
            // still make this an exporter match.
            Tok::Ident(s)
                if (s == "SpanEvent" || s == "Phase" || s == "CausalKind" || s == "ResKind")
                    && punct_at(toks, i + 1, ':')
                    && in_pattern
                    && brace >= 1 =>
            {
                span_in_pattern = true;
            }
            // `_` lexes as an identifier. An arm-level wildcard sits in
            // pattern position at brace depth 1 / bracket depth 0 and is
            // followed by `=>` or a guard `if`.
            Tok::Ident(s)
                if s == "_"
                    && in_pattern
                    && brace == 1
                    && inner == 0
                    && wildcard_at.is_none()
                    && (ident_at(toks, i + 1) == Some("if")
                        || (punct_at(toks, i + 1, '=') && punct_at(toks, i + 2, '>'))) =>
            {
                wildcard_at = Some(toks[i].line);
            }
            _ => {}
        }
        i += 1;
    }
    if span_in_pattern {
        if let Some(line) = wildcard_at {
            out.push(Finding {
                rule: "PI002",
                path: path.to_string(),
                line,
                message: "wildcard `_ =>` arm in a match over SpanEvent/Phase/CausalKind/ResKind"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope_all() -> Scope {
        Scope {
            nondet: true,
            hash_state: true,
            threads: true,
            atomics: true,
            proto: true,
            hotpath: true,
            exporter: true,
            telemetry: true,
        }
    }

    fn rules_of(src: &str, scope: Scope) -> Vec<&'static str> {
        scan_source("t.rs", src, scope)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn hash_declarations_no_longer_flagged_at_token_level() {
        // Declaration/insert/lookup are deterministic; only *iteration*
        // is a hazard, and that is the flow analysis's job (crate::flow).
        let src = r#"
            use std::collections::HashMap;
            fn f() { let m: HashMap<u32, u32> = HashMap::new(); }
        "#;
        assert!(rules_of(src, scope_all()).is_empty());
    }

    #[test]
    fn env_flagged_but_bare_instant_is_not() {
        // ND001 moved to the flow analysis (reported at the sink, not the
        // keyword); ND004 stays keyword-level — an env read is nondeterministic
        // no matter where the value goes.
        let src = "fn f() { let t = std::time::Instant::now(); let v = std::env::var(\"X\"); }";
        let rules = rules_of(src, scope_all());
        assert!(!rules.contains(&"ND001"));
        assert!(rules.contains(&"ND004"));
    }

    #[test]
    fn threads_and_channels_flagged() {
        let src = r#"
            let h = std::thread::spawn(|| {});
            std::thread::scope(|s| {});
            let (tx, rx) = std::sync::mpsc::channel::<u32>();
            // thread::spawn in a comment is fine
            let s = "thread::spawn in a string is fine";
        "#;
        let rules = rules_of(src, scope_all());
        assert_eq!(rules.iter().filter(|r| **r == "ND005").count(), 3);
        // Out of scope (the parallel engine itself, bench binaries):
        // nothing flagged.
        let exempt = Scope {
            threads: false,
            ..scope_all()
        };
        assert!(rules_of(src, exempt).iter().all(|r| *r != "ND005"));
        // `available_parallelism` and thread-local storage are not
        // concurrency primitives and stay legal everywhere.
        let benign = "let n = std::thread::available_parallelism();";
        assert!(rules_of(benign, scope_all()).is_empty());
    }

    #[test]
    fn atomic_construction_flagged_only_in_atomics_scope() {
        let src = r#"
            static FLAG: AtomicBool = AtomicBool::new(false);
            let n = AtomicU64::new(0);
            let p = std::sync::atomic::AtomicUsize::new(7);
            // AtomicU32::new in a comment is fine
            let s = "AtomicU32::new in a string is fine";
        "#;
        let rules = rules_of(src, scope_all());
        assert_eq!(rules.iter().filter(|r| **r == "ND005").count(), 3);
        // The SPSC queue keeps `threads` scope (its tests may not spawn
        // ad hoc) but drops `atomics` — constructing rings is its job.
        let queue_scope = Scope {
            atomics: false,
            ..scope_all()
        };
        assert!(rules_of(src, queue_scope).iter().all(|r| *r != "ND005"));
        // Loading/storing through a reference is not construction.
        let benign = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert!(rules_of(benign, scope_all()).is_empty());
    }

    #[test]
    fn narrowing_cast_flagged_but_widening_not() {
        let src = "let a = x as u16; let b = y as u64; let c = z as usize;";
        let rules = rules_of(src, scope_all());
        assert_eq!(rules.iter().filter(|r| **r == "PI001").count(), 1);
    }

    #[test]
    fn hot_path_panic_flagged_outside_tests_and_debug_assert() {
        let src = r#"
            fn hot(x: Option<u32>) -> u32 {
                debug_assert!(x.clone().unwrap() > 0);
                x.unwrap()
            }
            #[cfg(test)]
            mod tests {
                fn t(x: Option<u32>) { x.unwrap(); panic!("boom"); }
            }
        "#;
        let rules = rules_of(src, scope_all());
        assert_eq!(rules.iter().filter(|r| **r == "PI003").count(), 1);
    }

    #[test]
    fn span_event_wildcard_match_flagged() {
        let flagged = r#"
            fn f(e: &SpanEvent) -> u32 {
                match e {
                    SpanEvent::Fire { .. } => 1,
                    _ => 0,
                }
            }
        "#;
        assert_eq!(rules_of(flagged, scope_all()), vec!["PI002"]);
        let exhaustive = r#"
            fn f(e: &SpanEvent) -> u32 {
                match e {
                    SpanEvent::Fire { .. } => 1,
                    SpanEvent::Wire { .. } => 2,
                }
            }
        "#;
        assert!(rules_of(exhaustive, scope_all()).is_empty());
        let unrelated = r#"
            fn f(x: u32) -> u32 {
                match x {
                    0 => 1,
                    _ => 0,
                }
            }
        "#;
        assert!(rules_of(unrelated, scope_all()).is_empty());
    }

    #[test]
    fn causal_kind_wildcard_match_flagged() {
        let flagged = r#"
            fn f(k: CausalKind) -> &'static str {
                match k {
                    CausalKind::Wire => "wire",
                    _ => "other",
                }
            }
        "#;
        assert_eq!(rules_of(flagged, scope_all()), vec!["PI002"]);
        let exhaustive = r#"
            fn f(k: CausalKind) -> u32 {
                match k {
                    CausalKind::Wire => 1,
                    CausalKind::Nack => 2,
                }
            }
        "#;
        assert!(rules_of(exhaustive, scope_all()).is_empty());
    }

    #[test]
    fn nested_unrelated_match_inside_span_match_is_clean() {
        let src = r#"
            fn f(e: &SpanEvent, x: u32) -> u32 {
                match e {
                    SpanEvent::Fire { .. } => match x {
                        0 => 1,
                        _ => 0,
                    },
                    SpanEvent::Wire { .. } => 2,
                }
            }
        "#;
        // The inner wildcard is at brace depth 2 of the outer match, and the
        // inner match body has no SpanEvent:: patterns.
        assert!(rules_of(src, scope_all()).is_empty());
    }

    #[test]
    fn span_events_in_arm_bodies_do_not_make_a_match_an_exporter() {
        // A match over `Msg` that *emits* spans in its bodies is not an
        // exporter: the wildcard is fine.
        let src = r#"
            fn f(msg: Msg, ctx: &mut Ctx) {
                match msg {
                    Msg::Tick(0) => {
                        ctx.span(SpanEvent::OpBegin { group: 7, seq: 0 });
                    }
                    Msg::Tick(1) => ctx.span(SpanEvent::Fire { unit: 0, dst: 1 }),
                    _ => unreachable!(),
                }
            }
        "#;
        assert!(rules_of(src, scope_all()).is_empty());
    }

    #[test]
    fn tuple_pattern_full_wildcard_is_flagged_but_positional_is_not() {
        let flagged = r#"
            fn f(e: &SpanEvent, x: u32) -> u32 {
                match (e, x) {
                    (SpanEvent::Fire { .. }, _) => 1,
                    _ => 0,
                }
            }
        "#;
        assert_eq!(rules_of(flagged, scope_all()), vec!["PI002"]);
        let positional = r#"
            fn f(e: &SpanEvent, x: u32) -> u32 {
                match (e, x) {
                    (SpanEvent::Fire { .. }, _) => 1,
                    (SpanEvent::Wire { .. }, n) => n,
                }
            }
        "#;
        assert!(rules_of(positional, scope_all()).is_empty());
    }

    #[test]
    fn print_telemetry_flagged_outside_tests() {
        let src = r#"
            fn report(n: u64) {
                println!("events: {n}");
                eprintln!("warning");
                dbg!(n);
                // println! in a comment is fine
                let s = "println! in a string is fine";
            }
            #[cfg(test)]
            mod tests {
                fn t() { println!("tests may print"); }
            }
        "#;
        let rules = rules_of(src, scope_all());
        assert_eq!(rules.iter().filter(|r| **r == "OB001").count(), 3);
        // Out of scope (bench binaries, other crates): nothing flagged.
        let exempt = Scope {
            telemetry: false,
            ..scope_all()
        };
        assert!(rules_of(src, exempt).iter().all(|r| *r != "OB001"));
        // `writeln!` into a buffer is rendering, not telemetry.
        let benign = "use std::fmt::Write; fn f(out: &mut String) { writeln!(out, \"x\").ok(); }";
        assert!(rules_of(benign, scope_all()).iter().all(|r| *r != "OB001"));
    }

    #[test]
    fn scope_gates_rules() {
        let src = "fn f() { let a = x as u16; let v = std::env::var(\"X\"); }";
        let none = Scope::default();
        assert!(scan_source("t.rs", src, none).is_empty());
        let nd_only = Scope {
            nondet: true,
            ..Scope::default()
        };
        // `std::env::var` trips both the `std::env` and the `env::var`
        // patterns — two findings, same line.
        assert_eq!(rules_of(src, nd_only), vec!["ND004", "ND004"]);
        let proto_only = Scope {
            proto: true,
            ..Scope::default()
        };
        assert_eq!(rules_of(src, proto_only), vec!["PI001"]);
    }

    #[test]
    fn terminal_dispatch_arm_panic_is_exempt_from_pi003() {
        // The idiomatic `other => panic!("unexpected event")` dead end on
        // the NIC dispatch match is the audited terminal state.
        let src = r#"
            fn handle(&mut self, msg: GmEvent) {
                match msg {
                    GmEvent::Inject(p) => self.inject(p),
                    other => panic!("NIC got unexpected event {other:?}"),
                }
            }
        "#;
        assert!(rules_of(src, scope_all()).iter().all(|r| *r != "PI003"));
        // A panic! in a non-catch-all arm (or outside a match) still fires.
        let src = r#"
            fn handle(&mut self, msg: GmEvent) {
                match msg {
                    GmEvent::Inject(p) => panic!("cannot inject"),
                    other => panic!("NIC got unexpected event {other:?}"),
                }
            }
        "#;
        assert_eq!(
            rules_of(src, scope_all())
                .iter()
                .filter(|r| **r == "PI003")
                .count(),
            1
        );
    }

    #[test]
    fn pr001_catch_all_in_protocol_match() {
        // Non-terminal catch-all over a protocol enum: flagged.
        let src = r#"
            fn label(k: &CollKind) -> u32 {
                match k {
                    CollKind::Nack => 1,
                    _ => 0,
                }
            }
        "#;
        assert_eq!(
            rules_of(src, scope_all())
                .iter()
                .filter(|r| **r == "PR001")
                .count(),
            1
        );
        // Terminal catch-all: the transition is declared impossible — ok.
        let src = r#"
            fn apply(op: GroupOp, payload: CollKind) {
                match (op, payload) {
                    (GroupOp::Barrier, CollKind::Barrier) => {}
                    (op, payload) => panic!("payload {payload:?} does not match {op:?}"),
                }
            }
        "#;
        assert!(rules_of(src, scope_all()).iter().all(|r| *r != "PR001"));
        // Catch-all over a non-protocol enum: none of PR001's business.
        let src = r#"
            fn f(x: u32) -> u32 {
                match x {
                    0 => 1,
                    _ => 0,
                }
            }
        "#;
        assert!(rules_of(src, scope_all()).iter().all(|r| *r != "PR001"));
    }

    #[test]
    fn pr002_send_without_payload_record() {
        let proto = Scope {
            proto: true,
            ..Scope::default()
        };
        // retx: false, non-NACK, no sent_payloads assignment → flagged.
        let bad = r#"
            fn emit(&mut self, actions: &mut ActionBuf) {
                actions.push(CollAction::Send { dst, pkt, retx: false, cause });
            }
        "#;
        assert_eq!(rules_of(bad, proto), vec!["PR002"]);
        // Same send with the record in the same fn → clean.
        let good = r#"
            fn emit(&mut self, actions: &mut ActionBuf) {
                live.sent_payloads[r] = payload.clone();
                actions.push(CollAction::Send { dst, pkt, retx: false, cause });
            }
        "#;
        assert!(rules_of(good, proto).is_empty());
        // Retransmissions and NACKs are served from the record, not into it.
        let retx = r#"
            fn serve(&mut self, actions: &mut ActionBuf) {
                actions.push(CollAction::Send { dst, pkt, retx: true, cause });
            }
            fn nack(&mut self, actions: &mut ActionBuf) {
                actions.push(CollAction::Send {
                    dst,
                    pkt: CollPacket { src, group, epoch, round, kind: CollKind::Nack },
                    retx: false,
                    cause,
                });
            }
        "#;
        assert!(rules_of(retx, proto).is_empty());
    }

    #[test]
    fn pr003_on_timer_must_recover() {
        let proto = Scope {
            proto: true,
            ..Scope::default()
        };
        // An on_timer that only updates bookkeeping can never recover a
        // lost packet.
        let bad = r#"
            impl NicCollective for Stuck {
                fn on_timer(&mut self, now: SimTime, actions: &mut ActionBuf) {
                    self.ticks += 1;
                }
            }
        "#;
        assert_eq!(rules_of(bad, proto), vec!["PR003"]);
        // NACK construction, completion reference, or delegation: fine.
        let good = r#"
            impl NicCollective for Paper {
                fn on_timer(&mut self, now: SimTime, actions: &mut ActionBuf) {
                    actions.push(CollAction::Send { dst, pkt: nack_pkt(CollKind::Nack), retx: false, cause });
                }
            }
            impl NicCollective for Wrapper {
                fn on_timer(&mut self, now: SimTime, actions: &mut ActionBuf) {
                    self.inner.on_timer(now, actions);
                }
            }
        "#;
        assert!(rules_of(good, proto).iter().all(|r| *r != "PR003"));
        // on_timer fns NOT implementing NicCollective (host apps, drivers)
        // are out of scope.
        let unrelated = r#"
            impl HostApp {
                fn on_timer(&mut self, now: SimTime) { self.ticks += 1; }
            }
        "#;
        assert!(rules_of(unrelated, proto).is_empty());
    }
}
