//! Flow-sensitive nondeterminism analysis over the parsed item trees.
//!
//! The token-level ND rules flagged *keywords*: every `Instant` mention and
//! every `HashMap` declaration, wherever it sat. That forced allowlist
//! entries for code that is provably harmless (a wall-clock kept for host
//! self-profiling, a `HashSet` that is only ever probed) and said nothing
//! about the actual hazard: nondeterminism *reaching sim-visible state*.
//!
//! This module replaces the keyword checks for ND001 and ND003 with a
//! conservative dataflow over [`crate::parser::FileTree`]s:
//!
//! * **ND001 (wall-clock taint)** — `Instant` / `SystemTime` values are
//!   taint sources. Taint propagates through `let` bindings, struct fields
//!   typed as a clock, and *calls*: a cross-crate call graph is built and a
//!   fixpoint marks every function whose return value can carry taint.
//!   A finding is reported only where taint flows into a **sink** — an
//!   engine scheduling/telemetry call (`send*`, `schedule_*`, `count*`,
//!   `push*`), a record-log call (`span`, `packet`, `ledger`) or a
//!   `SimTime` construction — at the sink's line. A closure argument (the
//!   record builders, `push_with`'s action builder, `send_at_with`'s event
//!   builder) is scanned like any other.
//! * **ND003 (hash-order iteration)** — `HashMap`/`HashSet` bindings,
//!   params and fields are tracked by type; a finding is reported only
//!   where one is *iterated* (`.iter()`, `.keys()`, `.drain()`, …, or a
//!   `for … in` loop), because only iteration order can leak into event
//!   order. Insert/lookup/remove on a hash container is deterministic and
//!   now legal without an allowlist entry.
//!
//! Resolution is deliberately conservative in the *quiet* direction: a
//! method call whose receiver type cannot be determined is not propagated
//! (never invent taint), and `#[cfg(test)]` functions are skipped entirely.

use crate::lexer::{Tok, Token};
use crate::parser::{FileTree, FnItem};
use crate::rules::{Finding, Scope};
use std::collections::{BTreeMap, BTreeSet};

/// Engine calls through which a tainted value becomes sim-visible state:
/// an event, a counter, a protocol action, or a record of the byte-pinned
/// record log (`span`, `packet`, `ledger`).
const SINKS: &[&str] = &[
    "send",
    "send_at",
    "send_at_with",
    "send_self",
    "send_batch",
    "schedule_at",
    "schedule_in",
    "schedule_batch",
    "count",
    "count_id",
    "span",
    "packet",
    "ledger",
    "push",
    "push_with",
    "push_batch",
];

/// Methods whose call on a hash container observes its iteration order.
const ITERS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

fn is_clock_ty(ty: &str) -> bool {
    ty.contains("Instant") || ty.contains("SystemTime")
}

fn is_hash_ty(ty: &str) -> bool {
    ty.contains("HashMap") || ty.contains("HashSet")
}

/// `(file index, fn index)` — a function's identity across the workspace.
type FnId = (usize, usize);

/// Cross-file lookup tables.
struct Index {
    /// `(owner type, method name)` → fn.
    methods: BTreeMap<(String, String), FnId>,
    /// Free fn name → every fn with that name (resolved only if unique).
    free: BTreeMap<String, Vec<FnId>>,
    /// `(owner type, field name)` → flattened type text.
    fields: BTreeMap<(String, String), String>,
}

impl Index {
    fn build(files: &[(FileTree, Scope)]) -> Self {
        let mut methods = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut fields = BTreeMap::new();
        for (fi, (tree, _)) in files.iter().enumerate() {
            for (ki, f) in tree.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                match &f.owner {
                    Some(owner) => {
                        methods.insert((owner.clone(), f.name.clone()), (fi, ki));
                    }
                    None => free.entry(f.name.clone()).or_default().push((fi, ki)),
                }
            }
            for fld in &tree.fields {
                fields.insert((fld.owner.clone(), fld.name.clone()), fld.ty.clone());
            }
        }
        Index {
            methods,
            free,
            fields,
        }
    }
}

/// Per-function environment: declared types and taint/hash sets for local
/// names (params and `let` bindings).
#[derive(Default)]
struct Env {
    types: BTreeMap<String, String>,
    tainted: BTreeSet<String>,
    hashed: BTreeSet<String>,
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

/// First meaningful ident of a type range — `&mut Vec<T>` → `Vec`.
fn base_ty(ty: &str) -> &str {
    let start = ty
        .char_indices()
        .find(|(_, c)| c.is_alphabetic() || *c == '_')
        .map_or(ty.len(), |(i, _)| i);
    let rest = &ty[start..];
    let end = rest
        .char_indices()
        .find(|(_, c)| !c.is_alphanumeric() && *c != '_')
        .map_or(rest.len(), |(i, _)| i);
    let word = &rest[..end];
    if matches!(word, "mut" | "dyn" | "impl") {
        base_ty(&rest[end..])
    } else {
        word
    }
}

/// Parse the parameter list of `f`'s signature into `env.types` (and seed
/// the taint/hash sets from parameter types).
fn seed_params(tree: &FileTree, f: &FnItem, env: &mut Env) {
    let toks = &tree.toks;
    let (lo, hi) = f.sig;
    // Find the parameter '(' — the first '(' after the fn name + generics.
    let mut i = lo;
    while i < hi && !punct_at(toks, i, '(') {
        i += 1;
    }
    let mut depth = 0isize;
    let open = i;
    let mut close = i;
    while close < hi {
        match toks.get(close).map(|t| &t.tok) {
            Some(Tok::Punct('(')) => depth += 1,
            Some(Tok::Punct(')')) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        close += 1;
    }
    let mut i = open + 1;
    while i < close {
        // `name : Type` pairs (skip `self`, `mut`, pattern innards).
        if let Some(name) = ident_at(toks, i) {
            if name != "self"
                && name != "mut"
                && punct_at(toks, i + 1, ':')
                && !punct_at(toks, i + 2, ':')
            {
                // Type: to the ',' at angle/paren depth 0 or the close.
                let mut j = i + 2;
                let mut angle = 0isize;
                let mut inner = 0isize;
                while j < close {
                    match &toks[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct('(' | '[') => inner += 1,
                        Tok::Punct(')' | ']') => inner -= 1,
                        Tok::Punct(',') if angle <= 0 && inner <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let ty = crate::parser::flatten(toks, (i + 2, j));
                if is_clock_ty(&ty) {
                    env.tainted.insert(name.to_string());
                }
                if is_hash_ty(&ty) {
                    env.hashed.insert(name.to_string());
                }
                env.types.insert(name.to_string(), ty);
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// The analysis driver.
struct Analysis<'a> {
    files: &'a [(FileTree, Scope)],
    index: Index,
    /// Functions whose return value can carry wall-clock taint.
    returns_taint: BTreeSet<FnId>,
}

impl<'a> Analysis<'a> {
    /// Resolve the call `name(` at token `i` to a workspace function.
    /// `owner` is the enclosing impl type (receiver of `self`).
    fn resolve_call(
        &self,
        toks: &[Token],
        i: usize,
        env: &Env,
        owner: Option<&str>,
    ) -> Option<FnId> {
        let name = ident_at(toks, i)?;
        if !punct_at(toks, i + 1, '(') {
            return None;
        }
        if i >= 1 && punct_at(toks, i - 1, '.') {
            // Method call: type the receiver or stay silent.
            let recv = ident_at(toks, i - 2)?;
            let recv_ty: Option<String> = if recv == "self" {
                owner.map(str::to_string)
            } else if i >= 4 && punct_at(toks, i - 3, '.') && ident_at(toks, i - 4) == Some("self")
            {
                // `self.field.m(...)` — type the field.
                owner
                    .and_then(|o| self.index.fields.get(&(o.to_string(), recv.to_string())))
                    .map(|ty| base_ty(ty).to_string())
            } else {
                env.types.get(recv).map(|ty| base_ty(ty).to_string())
            };
            let ty = recv_ty?;
            return self.index.methods.get(&(ty, name.to_string())).copied();
        }
        if i >= 2 && punct_at(toks, i - 1, ':') && punct_at(toks, i - 2, ':') {
            // `Type::assoc(...)`.
            let ty = ident_at(toks, i - 3)?;
            return self
                .index
                .methods
                .get(&(ty.to_string(), name.to_string()))
                .copied();
        }
        // Bare call: resolve only a workspace-unique free fn.
        match self.index.free.get(name).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            _ => None,
        }
    }

    /// Is the token at `i` a taint atom under `env`?
    fn is_atom(&self, toks: &[Token], i: usize, env: &Env, owner: Option<&str>) -> bool {
        let Some(name) = ident_at(toks, i) else {
            return false;
        };
        if name == "Instant" || name == "SystemTime" {
            return true;
        }
        if env.tainted.contains(name) && (i == 0 || !punct_at(toks, i - 1, '.')) {
            return true;
        }
        // `self.field` where the field's type is a clock.
        if i >= 2 && punct_at(toks, i - 1, '.') && ident_at(toks, i - 2) == Some("self") {
            if let Some(o) = owner {
                if let Some(ty) = self.index.fields.get(&(o.to_string(), name.to_string())) {
                    if is_clock_ty(ty) {
                        return true;
                    }
                }
            }
        }
        // A call to a taint-returning function.
        if punct_at(toks, i + 1, '(') {
            if let Some(id) = self.resolve_call(toks, i, env, owner) {
                if self.returns_taint.contains(&id) {
                    return true;
                }
            }
        }
        false
    }

    /// Is `name` (at `i`) a hash container read under `env`? Covers a
    /// bare binding/param and a `self.field` access.
    fn is_hash_expr(&self, toks: &[Token], i: usize, env: &Env, owner: Option<&str>) -> bool {
        let Some(name) = ident_at(toks, i) else {
            return false;
        };
        if env.hashed.contains(name) && (i == 0 || !punct_at(toks, i - 1, '.')) {
            return true;
        }
        if i >= 2 && punct_at(toks, i - 1, '.') && ident_at(toks, i - 2) == Some("self") {
            if let Some(o) = owner {
                if let Some(ty) = self.index.fields.get(&(o.to_string(), name.to_string())) {
                    return is_hash_ty(ty);
                }
            }
        }
        false
    }

    /// Scan one function body. When `out` is `Some`, sink findings are
    /// appended; the return value reports whether any taint atom exists in
    /// the body (the `returns_taint` ingredient).
    fn scan_fn(&self, fi: usize, f: &FnItem, out: &mut Option<(&mut Vec<Finding>, Scope)>) -> bool {
        let tree = &self.files[fi].0;
        let toks = &tree.toks;
        let Some((blo, bhi)) = f.body else {
            return false;
        };
        let owner = f.owner.as_deref();
        let mut env = Env::default();
        seed_params(tree, f, &mut env);
        let mut has_atom = false;
        let mut i = blo;
        while i <= bhi {
            let Some(name) = ident_at(toks, i) else {
                i += 1;
                continue;
            };
            // --- `let` binding: classify the initializer ----------------
            if name == "let" {
                // Binding name: first ident after `let` (skipping `mut`),
                // ignored for destructuring patterns (conservative).
                let mut j = i + 1;
                if ident_at(toks, j) == Some("mut") {
                    j += 1;
                }
                if let Some(bind) = ident_at(toks, j) {
                    if !punct_at(toks, j + 1, ',') && !punct_at(toks, j + 1, ')') {
                        // Optional `: Type` ascription.
                        let mut k = j + 1;
                        let mut ty_text = String::new();
                        if punct_at(toks, k, ':') && !punct_at(toks, k + 1, ':') {
                            let ty_start = k + 1;
                            let mut angle = 0isize;
                            while k <= bhi {
                                match &toks[k].tok {
                                    Tok::Punct('<') => angle += 1,
                                    Tok::Punct('>') => angle -= 1,
                                    Tok::Punct('=' | ';') if angle <= 0 => break,
                                    _ => {}
                                }
                                k += 1;
                            }
                            ty_text = crate::parser::flatten(toks, (ty_start, k));
                        }
                        // Initializer: `= expr ;` at brace/paren depth 0.
                        let mut taint = is_clock_ty(&ty_text);
                        let mut hash = is_hash_ty(&ty_text);
                        if punct_at(toks, k, '=') && !punct_at(toks, k + 1, '=') {
                            let mut depth = 0isize;
                            let mut e = k + 1;
                            while e <= bhi {
                                match &toks[e].tok {
                                    Tok::Punct('(' | '[' | '{') => depth += 1,
                                    Tok::Punct(')' | ']' | '}') => depth -= 1,
                                    Tok::Punct(';') if depth <= 0 => break,
                                    Tok::Ident(s) if s == "HashMap" || s == "HashSet" => {
                                        hash = true;
                                    }
                                    _ => {}
                                }
                                if self.is_atom(toks, e, &env, owner) {
                                    taint = true;
                                }
                                if self.is_hash_expr(toks, e, &env, owner) {
                                    hash = true;
                                }
                                e += 1;
                            }
                        }
                        if taint {
                            env.tainted.insert(bind.to_string());
                        }
                        if hash {
                            env.hashed.insert(bind.to_string());
                        }
                        if !ty_text.is_empty() {
                            env.types.insert(bind.to_string(), ty_text);
                        }
                    }
                }
                i += 1;
                continue;
            }
            // --- taint atoms (for the returns_taint fixpoint) -----------
            if self.is_atom(toks, i, &env, owner) {
                has_atom = true;
            }
            if let Some((out, scope)) = out.as_mut() {
                let line = toks[i].line;
                // --- ND001: taint reaching a sink -----------------------
                if scope.nondet {
                    let sink_args: Option<(usize, &'static str)> = if SINKS.contains(&name)
                        && punct_at(toks, i + 1, '(')
                        && punct_at(toks, i - 1, '.')
                    {
                        Some((i + 1, "engine sink"))
                    } else if name == "SimTime" {
                        // `SimTime(x)` or `SimTime::from_ns(x)` construction.
                        if punct_at(toks, i + 1, '(') {
                            Some((i + 1, "SimTime construction"))
                        } else if punct_at(toks, i + 1, ':')
                            && punct_at(toks, i + 2, ':')
                            && ident_at(toks, i + 3)
                                .is_some_and(|m| m.starts_with("from") || m == "new")
                            && punct_at(toks, i + 4, '(')
                        {
                            Some((i + 4, "SimTime construction"))
                        } else {
                            None
                        }
                    } else {
                        None
                    };
                    if let Some((open, what)) = sink_args {
                        let mut depth = 0isize;
                        let mut j = open;
                        while j <= bhi {
                            match &toks[j].tok {
                                Tok::Punct('(') => depth += 1,
                                Tok::Punct(')') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            if self.is_atom(toks, j, &env, owner) {
                                out.push(Finding {
                                    rule: "ND001",
                                    path: tree.path.clone(),
                                    line,
                                    message: format!(
                                        "wall-clock taint reaches {what} `{name}` (source propagated through calls/bindings)"
                                    ),
                                });
                                break;
                            }
                            j += 1;
                        }
                    }
                }
                // --- ND003: hash-order iteration ------------------------
                if scope.hash_state {
                    if ITERS.contains(&name)
                        && punct_at(toks, i + 1, '(')
                        && punct_at(toks, i - 1, '.')
                    {
                        let hashed_recv = self.is_hash_expr(toks, i - 2, &env, owner)
                            || (i >= 4
                                && punct_at(toks, i - 3, '.')
                                && ident_at(toks, i - 4) == Some("self")
                                && self.is_hash_expr(toks, i - 2, &env, owner));
                        if hashed_recv {
                            out.push(Finding {
                                rule: "ND003",
                                path: tree.path.clone(),
                                line,
                                message: format!(
                                    "hash-order iteration (`.{name}()` on a HashMap/HashSet) can reach event order"
                                ),
                            });
                        }
                    }
                    if name == "for" {
                        // `for pat in expr {` — scan the expr for a hash
                        // container read.
                        let mut j = i + 1;
                        let mut depth = 0isize;
                        while j <= bhi && !(depth == 0 && ident_at(toks, j) == Some("in")) {
                            match &toks[j].tok {
                                Tok::Punct('(' | '[') => depth += 1,
                                Tok::Punct(')' | ']') => depth -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                        let mut e = j + 1;
                        let mut depth = 0isize;
                        while e <= bhi {
                            match &toks[e].tok {
                                Tok::Punct('(' | '[') => depth += 1,
                                Tok::Punct(')' | ']') => depth -= 1,
                                Tok::Punct('{') if depth == 0 => break,
                                _ => {}
                            }
                            if self.is_hash_expr(toks, e, &env, owner)
                                && !punct_at(toks, e + 1, '.')
                            {
                                out.push(Finding {
                                    rule: "ND003",
                                    path: tree.path.clone(),
                                    line: toks[i].line,
                                    message:
                                        "hash-order iteration (`for … in` over a HashMap/HashSet) can reach event order"
                                            .to_string(),
                                });
                                break;
                            }
                            e += 1;
                        }
                    }
                }
            }
            i += 1;
        }
        has_atom
    }
}

/// Run the flow analysis over the workspace; `files` pairs each parsed
/// tree with its scan scope. Findings are deduplicated per (rule, line).
pub fn analyze(files: &[(FileTree, Scope)]) -> Vec<Finding> {
    let mut analysis = Analysis {
        files,
        index: Index::build(files),
        returns_taint: BTreeSet::new(),
    };
    // Fixpoint: a fn returns taint if it returns a value and its body can
    // produce one (conservative: any atom anywhere in the body).
    loop {
        let mut changed = false;
        for (fi, (tree, _)) in files.iter().enumerate() {
            for (ki, f) in tree.fns.iter().enumerate() {
                let id = (fi, ki);
                if f.in_test || !f.returns_value || analysis.returns_taint.contains(&id) {
                    continue;
                }
                if analysis.scan_fn(fi, f, &mut None) {
                    analysis.returns_taint.insert(id);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Reporting pass.
    let mut out = Vec::new();
    for (fi, (tree, scope)) in files.iter().enumerate() {
        if !scope.nondet && !scope.hash_state {
            continue;
        }
        for f in &tree.fns {
            if f.in_test {
                continue;
            }
            let mut sink = Some((&mut out, *scope));
            analysis.scan_fn(fi, f, &mut sink);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn nd_scope() -> Scope {
        Scope {
            nondet: true,
            hash_state: true,
            ..Scope::default()
        }
    }

    fn run(src: &str) -> Vec<(String, u32)> {
        let tree = parse("t.rs", lex(src));
        analyze(&[(tree, nd_scope())])
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    #[test]
    fn direct_instant_into_sink_flagged_at_sink() {
        let src = "fn f(ctx: &mut Ctx) {\nlet t = Instant::now();\nctx.schedule_at(SimTime::from_ns(elapsed(t)), 0);\n}";
        let got = run(src);
        // Two sinks on line 3: the schedule_at call and the SimTime
        // construction — deduped to one finding per line.
        assert_eq!(got, vec![("ND001".to_string(), 3)]);
    }

    #[test]
    fn taint_through_call_chain_and_field() {
        let src = r#"
            struct Clock { epoch: Instant }
            impl Clock {
                fn now_ns(&self) -> u64 { self.epoch.elapsed().as_nanos() as u64 }
            }
            fn caller(c: &Clock, ctx: &mut Ctx) {
                let t = wrap(c);
                ctx.count(t);
            }
            fn wrap(c: &Clock) -> u64 { c.now_ns() }
        "#;
        let got = run(src);
        assert_eq!(got, vec![("ND001".to_string(), 8)]);
    }

    #[test]
    fn clock_kept_for_metrics_only_is_clean() {
        // A wall clock that never reaches a sink: no findings (this is the
        // ProfClock pattern the old keyword rule needed 4 allowlist
        // entries for).
        let src = r#"
            struct Prof { epoch: Instant, total: u64 }
            impl Prof {
                fn now_ns(&self) -> u64 { self.epoch.elapsed().as_nanos() as u64 }
                fn lap(&mut self) { self.total += self.now_ns(); }
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn hash_lookup_clean_iteration_flagged() {
        let src = r#"
            fn probe(seen: &mut HashSet<u64>, x: u64) -> bool { seen.insert(x) }
            fn order(seen: &HashSet<u64>) -> u64 {
                let mut acc = 0;
                for v in seen {
                    acc += v;
                }
                acc + seen.iter().count() as u64
            }
        "#;
        let got = run(src);
        assert_eq!(
            got,
            vec![("ND003".to_string(), 5), ("ND003".to_string(), 8)]
        );
    }

    #[test]
    fn hash_field_iteration_flagged_lookup_clean() {
        let src = r#"
            struct S { ids: HashSet<u64> }
            impl S {
                fn has(&self, x: u64) -> bool { self.ids.contains(&x) }
                fn sum(&self) -> u64 { let mut a = 0; for v in self.ids.iter() { a += v; } a }
            }
        "#;
        let got = run(src);
        assert_eq!(got, vec![("ND003".to_string(), 5)]);
    }

    #[test]
    fn ambiguous_method_name_not_propagated() {
        // Two types expose `.now()`; the untyped receiver must not pick up
        // taint from the wrong one.
        let src = r#"
            struct Wall { epoch: Instant }
            impl Wall { fn now(&self) -> u64 { self.epoch.elapsed().as_nanos() as u64 } }
            struct Sim { t: u64 }
            impl Sim { fn now(&self) -> u64 { self.t } }
            fn f(ctx: &mut Ctx, sim: &Sim) {
                ctx.count(sim.now());
                let anon = mystery();
                ctx.count(anon.now());
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn typed_receiver_propagates_taint() {
        let src = r#"
            struct Wall { epoch: Instant }
            impl Wall { fn now(&self) -> u64 { self.epoch.elapsed().as_nanos() as u64 } }
            fn f(ctx: &mut Ctx, w: &Wall) {
                ctx.count(w.now());
            }
        "#;
        let got = run(src);
        assert_eq!(got, vec![("ND001".to_string(), 5)]);
    }

    #[test]
    fn test_fns_are_exempt() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn t(ctx: &mut Ctx) { ctx.count(Instant::now().elapsed().as_nanos() as u64) }
            }
        "#;
        assert!(run(src).is_empty());
    }
}
