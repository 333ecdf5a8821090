#!/usr/bin/env bash
# Full local gate: release build, workspace tests, clippy with warnings
# denied, formatting, static analysis, protocol model checking, and the
# observability zero-overhead gate. Run from anywhere inside the repo.
#
# Every gate runs under the `gate` wrapper, which times it, records PASS
# or FAIL, and carries on with the next gate. The summary at the end lists
# every gate's wall time and status, so one failing gate neither hides the
# others nor leaves the slow one to guesswork; the script exits non-zero
# if any gate failed.
set -euo pipefail
cd "$(dirname "$0")/.."

GATE_NAMES=()
GATE_SECS=()
GATE_STATUS=()
FAILED=()
gate() {
    local name="$1"
    shift
    local t0 t1 status
    t0=$(date +%s%N)
    # Bash ignores `set -e` inside anything called from `if`, `||` or `&&`,
    # so the gate runs in a `set -e` subshell outside any condition (a
    # failing step inside a multi-command gate function still fails it),
    # and its status is read afterwards.
    set +e
    (
        set -e
        "$@"
    )
    status=$?
    set -e
    t1=$(date +%s%N)
    GATE_NAMES+=("$name")
    GATE_SECS+=("$(printf '%d.%03d' $(((t1 - t0) / 1000000000)) $(((t1 - t0) / 1000000 % 1000)))")
    if [ "$status" -eq 0 ]; then
        GATE_STATUS+=(PASS)
    else
        GATE_STATUS+=(FAIL)
        FAILED+=("$name")
        echo "check.sh: gate $name FAILED (exit $status)" >&2
    fi
}

# Formatting covers our crates only: vendor/* members are upstream code we
# keep byte-identical, and rustfmt's `ignore` option is nightly-only.
fmt_gate() {
    local fmt_pkgs=()
    for manifest in crates/*/Cargo.toml; do
        fmt_pkgs+=(-p "$(grep -m1 '^name' "$manifest" | sed 's/.*"\(.*\)"/\1/')")
    done
    cargo fmt "${fmt_pkgs[@]}" --check
}
gate "fmt" fmt_gate

gate "build" cargo build --release --workspace
gate "build-examples" cargo build --examples --workspace
gate "test" cargo test -q --workspace
gate "clippy" cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied: a renamed or deleted item must not leave a
# broken (or private) intra-doc link behind.
doc_gate() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}
gate "doc" doc_gate

# Benchmark oracle: barbench/ is its own Cargo workspace, so neither the
# workspace tests nor clippy build it. Its tests pin the exact simulated
# latency, packet and event counts of the benchmark workloads.
gate "barbench-test" cargo test --release --offline -q --manifest-path barbench/Cargo.toml

# Static analysis: nicbar-lint enforces the determinism and protocol
# invariants (rule catalogue in DESIGN.md). The fixture self-test runs
# first so a broken rule cannot silently pass the workspace; the workspace
# scan then fails on any finding not covered by an audited lint.toml entry
# (and fails on stale entries covering nothing).
gate "lint-fixtures" cargo run --release -q -p nicbar-lint -- --fixtures
gate "lint-scan" cargo run --release -q -p nicbar-lint

# Protocol model checking: nicbar-verify drives the real PaperCollective
# through the exhaustive interleaving space of the adversarial network
# (loss, duplication, reorder, unbounded delay) for DS, PE and GB barriers
# on both substrates and proves safety invariants, deadlock-freedom and
# NACK liveness on every configuration of the gate matrix. Exploration is
# deterministic, so each row's state and transition counts (everything
# but the time column) must also equal results/verify_counts.txt: a change
# that moves a count changed what the checker explores, and regenerates
# that file in the same commit.
verify_matrix_gate() {
    local out
    out=$(mktemp)
    if ! cargo run --release -q -p nicbar-verify -- --check | tee "$out"; then
        rm -f "$out"
        return 1
    fi
    if ! sed -nE 's/^((OK|FAIL).* transitions) +[0-9.]+s$/\1/p' "$out" |
        diff results/verify_counts.txt -; then
        echo "check.sh: nicbar-verify state/transition counts differ from results/verify_counts.txt" >&2
        rm -f "$out"
        return 1
    fi
    rm -f "$out"
}
gate "verify-matrix" verify_matrix_gate

# Counterexample pipeline: an injected protocol bug must yield a minimal
# counterexample whose netdump trace replays through why-slow.
verify_counterexample_gate() {
    local tmp
    tmp=$(mktemp -d)
    if ! cargo run --release -q -p nicbar-verify -- \
        --nodes 2 --substrate gm --inject skip-payload-record \
        --expect-violation --trace-out "$tmp/cex.jsonl" > /dev/null 2>&1; then
        echo "check.sh: injected bug was NOT caught by nicbar-verify" >&2
        rm -rf "$tmp"
        return 1
    fi
    if ! cargo run --release -q -p nicbar-bench --bin why-slow -- \
        --replay "$tmp/cex.jsonl" > /dev/null; then
        echo "check.sh: counterexample trace failed to replay through why-slow" >&2
        rm -rf "$tmp"
        return 1
    fi
    rm -rf "$tmp"
}
gate "verify-counterexample" verify_counterexample_gate

# Results freshness: run from an empty directory, the figure binaries must
# reproduce every committed results/*.json they write, byte for byte apart
# from the git_rev stamp. A change that moves a simulated number therefore
# regenerates its artifact in the same commit. Deterministic, so it runs
# before the host-timed gates below.
RESULTS_FRESH_BINS=(fig5 fig6 fig7 fig8 algo_compare interference contend topology_sensitivity)
RESULTS_FRESH_FILES=(fig5 fig6 fig7 fig8 algo_compare_gm algo_compare_elan interference contend
    topology_sensitivity)
results_fresh_gate() {
    local root tmp bin f stale=0
    root=$(pwd)
    tmp=$(mktemp -d)
    for bin in "${RESULTS_FRESH_BINS[@]}"; do
        if ! (cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
            -p nicbar-bench --bin "$bin" > /dev/null); then
            echo "check.sh: $bin failed" >&2
            rm -rf "$tmp"
            return 1
        fi
    done
    for f in "${RESULTS_FRESH_FILES[@]}"; do
        if ! diff <(grep -v '"git_rev"' "$tmp/results/$f.json") \
            <(grep -v '"git_rev"' "results/$f.json") > /dev/null; then
            echo "check.sh: results/$f.json is stale (regenerate it from a clean run)" >&2
            stale=1
        fi
    done
    rm -rf "$tmp"
    return "$stale"
}
gate "results-fresh" results_fresh_gate

# Export freshness: run from an empty directory, the capture exporters
# (the Chrome trace, both why-slow JSONL netdumps and their reports,
# contend's interference report and table1's headline ratios over the
# Elanlib tree and the host-based barrier) and the six examples' stdout must
# reproduce the committed results/exports.sha256 byte for byte, and the gm
# netdump must come out the same from the 2-shard parallel engine. None of
# these outputs carries a git rev or a host stamp, so the sums pin them
# whole.
EXPORTS_EXAMPLES=(collective_ops fine_grained_app lossy_fabric nic_thread_tradeoff qsnet2_whatif
    quickstart)
exports_fresh_gate() {
    local root tmp status=0
    root=$(pwd)
    tmp=$(mktemp -d)
    bench() {
        local bin="$1"
        shift
        (cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
            -p nicbar-bench --bin "$bin" -- "$@")
    }
    bench flight --chrome chrome.json > "$tmp/flight.out" &&
        bench why-slow --nodes 8 --drop 0.02 --seed 7 --jsonl gm.jsonl \
            > "$tmp/why-slow-gm.out" &&
        bench why-slow --substrate elan --jsonl elan.jsonl > "$tmp/why-slow-elan.out" &&
        bench contend --quick > "$tmp/contend.out" &&
        bench table1 > "$tmp/table1.out" &&
        bench why-slow --nodes 8 --drop 0.02 --seed 7 --shards 2 --jsonl gm2.jsonl \
            > /dev/null || status=1
    local e
    for e in "${EXPORTS_EXAMPLES[@]}"; do
        (cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" --example "$e") \
            > "$tmp/example-$e.out" || status=1
    done
    if [ "$status" -eq 0 ] &&
        ! (cd "$tmp" && sha256sum --quiet -c "$root/results/exports.sha256"); then
        echo "check.sh: exports or example output differ from results/exports.sha256" >&2
        status=1
    fi
    if [ "$status" -eq 0 ] && ! cmp -s "$tmp/gm.jsonl" "$tmp/gm2.jsonl"; then
        echo "check.sh: why-slow --shards 2 netdump differs from the sequential one" >&2
        status=1
    fi
    rm -rf "$tmp"
    return "$status"
}
gate "exports-fresh" exports_fresh_gate

# Zero-overhead gate: with the record log off, engine throughput must
# stay within 5% of the saved baseline. Skipped if the baseline has never
# been generated (run the full engine_sweep once).
if [ -f results/engine_sweep.json ]; then
    gate "engine-sweep-quick" cargo run --release -p nicbar-bench --bin engine_sweep -- --quick
else
    echo "check.sh: no results/engine_sweep.json baseline, skipping --quick gate"
fi

# Engine self-profiler smoke: a profiled 2-shard 64-node run must account
# for >= 95% of worker wall time and name a dominant bottleneck
# (engine_prof --check exits nonzero otherwise). On hosts with >= 8
# hardware threads the full gate also profiles 8 shards x 4096 nodes and
# asserts the bottleneck the committed results/engine_prof_pr7.json
# capture named holds a smaller share of lost time today.
engine_prof_quick_gate() {
    cargo run --release -q -p nicbar-bench --bin engine_prof -- --quick --check > /dev/null
}
gate "engine-prof-quick" engine_prof_quick_gate
if [ "$(nproc 2>/dev/null || echo 1)" -ge 8 ]; then
    engine_prof_full_gate() {
        cargo run --release -q -p nicbar-bench --bin engine_prof -- --check > /dev/null
    }
    gate "engine-prof-full" engine_prof_full_gate
else
    echo "check.sh: < 8 hardware threads, skipping full engine_prof gate"
fi

# Parallel-engine parity smoke: the rank-sharded engine must reproduce the
# sequential run byte-for-byte — counters, spans, causal packet records and
# barrier latencies — at 2..8 shards on both substrates, with loss, and one
# shard must build the sequential engine (tests/parallel_parity.rs; release
# so the windowed loop matches the shipped hot path).
gate "parallel-parity" cargo test --release -q --test parallel_parity

# Causal-observability smoke: why-slow on an 8-node lossy GM sim must
# produce a non-empty critical path for every barrier, attribute >= 95%
# of each span's wall time to its edges, and drop zero records from the
# log (--check exits nonzero otherwise).
why_slow_gate() {
    cargo run --release -q -p nicbar-bench --bin why-slow -- \
        --nodes 8 --drop 0.02 --seed 7 --check > /dev/null
}
gate "why-slow-smoke" why_slow_gate

# Allocation gate: a steady-state NIC barrier must not touch the heap.
# The counting-allocator test runs in its own binary (process-wide
# allocator, single test), release mode so the measurement matches the
# shipped hot path.
gate "alloc-steady" cargo test --release -q --test alloc_steady

# Scalability smoke: the quick sweep (sub-sampled grid up to the 65,536-node
# gm NIC-DS point) must complete, both dissemination curves must fit the
# ceil(log2 N) staircase, and the engine-comparison series must reproduce
# the sequential latency bit-for-bit under sharding. On hosts with >= 8
# hardware threads fig_scale additionally asserts the 8-shard parallel
# engine beats sequential by >= 4.5x on the 4096-node gm point (raised
# from 3x when adaptive lookahead + SPSC mailboxes landed; skipped with a
# visible message on smaller hosts) — fig_scale exits nonzero otherwise.
# Like every figure binary's --quick run, it writes nothing.
fig_scale_gate() {
    cargo run --release -q -p nicbar-bench --bin fig_scale -- --quick > /dev/null
}
gate "fig-scale-smoke" fig_scale_gate

# Tracked wall-clock trajectory: each full fig_scale run appends one
# manifest-stamped run to BENCH_scale.json at the repo root. The artifact
# must be an append-only history (a "runs" array) with a manifest, and
# every run's engine series must carry an "armed" flag and a "cpu_model"
# host stamp, so a speedup gate that could not arm on the recording host
# says so in the artifact, next to the host it ran on.
# (grep -c prints 0 *and* exits 1 on zero matches; a missing file prints
# nothing — both normalized to a plain number by count_runs.) Simulated
# latencies are not tracked here: they are deterministic, and
# results-fresh pins them in results/*.json.
count_runs() { grep -c '"manifest"' "$1" 2>/dev/null || true; }
bench_trajectory_gate() {
    local f=BENCH_scale.json runs armed cpu
    [ -s "$f" ] || { echo "check.sh: missing $f" >&2; return 1; }
    grep -q '"manifest"' "$f" || { echo "check.sh: $f lacks a manifest" >&2; return 1; }
    grep -q '"runs"' "$f" || { echo "check.sh: $f is not an append-only trajectory" >&2; return 1; }
    runs=$(count_runs "$f"); runs=${runs:-0}
    armed=$(grep -c '"armed"' "$f" || true)
    if [ "${armed:-0}" -lt "$runs" ]; then
        echo "check.sh: $f has $runs runs but only ${armed:-0} \"armed\" flags" >&2
        return 1
    fi
    cpu=$(grep -c '"cpu_model"' "$f" || true)
    if [ "${cpu:-0}" -lt "$runs" ]; then
        echo "check.sh: $f has $runs runs but only ${cpu:-0} \"cpu_model\" stamps" >&2
        return 1
    fi
    echo "check.sh: $f OK ($runs runs)"
}
gate "bench-trajectory" bench_trajectory_gate

# Contention-observability smoke: the contend scenario (overlapping barrier
# groups + bulk traffic, run on both substrates) must attribute >= 95% of
# critical-path wait time to named resource holders via the occupancy
# ledger, report a top interferer, drop zero records from the log, and reproduce
# byte-identically on the sharded parallel engine (--check exits nonzero
# otherwise).
contend_gate() {
    cargo run --release -q -p nicbar-bench --bin contend -- --quick --check > /dev/null
}
gate "contend-smoke" contend_gate

echo ""
echo "check.sh: per-gate wall time"
for i in "${!GATE_NAMES[@]}"; do
    printf '  %9ss  %s  %s\n' "${GATE_SECS[$i]}" "${GATE_STATUS[$i]}" "${GATE_NAMES[$i]}"
done
if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "check.sh: ${#FAILED[@]} gate(s) FAILED: ${FAILED[*]}" >&2
    exit 1
fi
echo "check.sh: all green"
