#!/usr/bin/env sh
# Local CI gate: formatting, offline release build, full offline test run.
# The build environment has no registry access, so everything runs with
# --offline; the workspace has no third-party dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> perfbench build"
# The benchmark declared in BENCHMARK.json is a standalone package that
# compiles against the workspace's public API; build it here so an API
# break fails CI instead of the benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> figure10 smoke"
# Section 4.5 end to end through the bench path: 197.parser's genuine
# bug must be detected under each of the five configurations, and no
# other workload may report a detection.
F10_OUT=$(mktemp)
./target/release/figure10 test > "$F10_OUT"
F10_NOTES=$(grep -c '^note:' "$F10_OUT" || true)
F10_PARSER=$(grep '^note: 197\.parser detected 1 undefined-use site(s) under ' "$F10_OUT" \
    | sed 's/.* under //' | sort -u | wc -l)
if [ "$F10_NOTES" -ne 5 ] || [ "$F10_PARSER" -ne 5 ]; then
    echo "error: figure10 must note 197.parser's one bug once per config, and nothing else" >&2
    cat "$F10_OUT" >&2
    exit 1
fi
rm -f "$F10_OUT"

echo "==> fuzz smoke"
# A fixed, deterministic differential campaign across the static/dynamic
# soundness boundary (plus a fuel-fault and a front-end havoc pass).
# Exit code 1 — any classified mismatch — fails the gate.
./target/release/usher fuzz --smoke
./target/release/usher fuzz --smoke --fault fuel
./target/release/usher fuzz --seeds 6 --mutants 10 --frontend --no-minimize

echo "==> degradation smoke"
# Graceful degradation gate (DESIGN.md §10): the fault-injected fuzz
# campaigns must classify clean, a starved CLI run must degrade — not
# die — and say so in its telemetry, an injected stage panic must be
# contained the same way, and --strict must turn the degradation into a
# hard failure.
./target/release/usher fuzz --smoke --fault budget-exhaust
./target/release/usher fuzz --smoke --fault cache-corrupt
DEG_TC=$(mktemp) && DEG_JSON=$(mktemp)
./target/release/usher gen --seed 37 --helpers 16 --stmts 12 > "$DEG_TC"
./target/release/usher analyze "$DEG_TC" --budget-steps 500 --no-cache --report > /dev/null 2> "$DEG_JSON"
grep -q '"reason":"budget-exhausted"' "$DEG_JSON"
./target/release/usher analyze "$DEG_TC" --inject-panic resolve --no-cache --report > /dev/null 2> "$DEG_JSON"
grep -q '"reason":"stage-panic"' "$DEG_JSON"
if ./target/release/usher analyze "$DEG_TC" --budget-steps 500 --no-cache --strict > /dev/null 2>&1; then
    echo "error: --strict must fail on an exhausted budget" >&2
    exit 1
fi
rm -f "$DEG_TC" "$DEG_JSON"

echo "==> pointer-strategy smoke"
# Pointer-stage overhaul gate (DESIGN.md §12): the cross-strategy
# divergence fuzz mode must classify clean (every solver strategy's plan
# fingerprints identically and survives the native-vs-instrumented
# oracle), and on a generated program the CLI knob must be observably
# inert — `usher check` under every --pointer-strategy value prints
# byte-identical output, while the analyze telemetry names the strategy
# that ran.
./target/release/usher fuzz --smoke --fault strategy-diverge
STR_TC=$(mktemp) && STR_A=$(mktemp) && STR_B=$(mktemp)
./target/release/usher gen --seed 41 --helpers 12 --stmts 10 > "$STR_TC"
for S in reference andersen prefilter prefilter-wave; do
    ./target/release/usher analyze "$STR_TC" --pointer-strategy "$S" --no-cache --report > /dev/null 2> "$STR_B"
    grep -q "\"strategy\":\"$S\"" "$STR_B"
    ./target/release/usher check "$STR_TC" --pointer-strategy "$S" --no-cache > "$STR_B" 2>&1 || true
    if [ ! -s "$STR_A" ]; then
        cp "$STR_B" "$STR_A"
    elif ! cmp -s "$STR_A" "$STR_B"; then
        echo "error: usher check output diverged under --pointer-strategy $S" >&2
        exit 1
    fi
done
rm -f "$STR_TC" "$STR_A" "$STR_B"

echo "==> serve smoke"
# Persistent-service gate (DESIGN.md §11): drive the JSON-lines protocol
# over stdin — cold analyze, warm re-analyze (the cache must hit), a
# single-function edit that must take the incremental path and recompute
# exactly one function, a query, stats with a nonzero warm-hit ratio,
# and a clean shutdown.
SRV_OUT=$(mktemp)
printf '%s\n' \
  '{"op":"analyze","source":"def scale(int v) -> int {\n    int bias = 4;\n    if (v) { return v * bias; }\n    return bias;\n}\ndef risky(int c) -> int {\n    int x;\n    if (c) { x = 1; }\n    if (x) { return 1; }\n    return 0;\n}\ndef main(int c) {\n    print(scale(risky(c)));\n}","id":"ci-a1"}' \
  '{"op":"analyze","source":"def scale(int v) -> int {\n    int bias = 4;\n    if (v) { return v * bias; }\n    return bias;\n}\ndef risky(int c) -> int {\n    int x;\n    if (c) { x = 1; }\n    if (x) { return 1; }\n    return 0;\n}\ndef main(int c) {\n    print(scale(risky(c)));\n}","id":"ci-a2"}' \
  '{"op":"edit","session":1,"func":"scale","body":"def scale(int v) -> int {\n    int bias = 9;\n    if (v) { return v * bias; }\n    return bias;\n}","id":"ci-e1"}' \
  '{"op":"query","session":1,"id":"ci-q1"}' \
  '{"op":"stats","id":"ci-s1"}' \
  '{"op":"shutdown","id":"ci-z1"}' \
  | ./target/release/usher serve > "$SRV_OUT" 2>/dev/null
grep -q '"id":"ci-a1".*"mode":"cold"' "$SRV_OUT"
grep -q '"id":"ci-a2".*"mode":"warm"' "$SRV_OUT"
grep -q '"id":"ci-e1".*"incremental":true,"functions_recomputed":1' "$SRV_OUT"
grep -q '"id":"ci-q1".*"plan_digest"' "$SRV_OUT"
grep -q '"id":"ci-s1".*"analyzes_warm":1' "$SRV_OUT"
if grep -q '"warm_hit_ratio":0[,}]' "$SRV_OUT"; then
    echo "error: serve smoke warm-hit ratio must be nonzero" >&2
    exit 1
fi
if grep -q '"ok":false' "$SRV_OUT"; then
    echo "error: serve smoke produced a failed response" >&2
    cat "$SRV_OUT" >&2
    exit 1
fi
grep -q '"op":"shutdown"' "$SRV_OUT"
rm -f "$SRV_OUT"

echo "==> crash-safety smoke"
# Crash-safe serve gate (DESIGN.md §14): the serve-chaos fuzz campaign
# must classify clean — every injected torn write / ENOSPC / kill-point
# either recovers the session byte-identically from the WAL or degrades
# with a recorded reason, and never corrupts the store. Then a literal
# kill -9: a serving process is killed mid-session and a fresh process
# on the same store directory must replay the WAL, report the recovered
# session in stats, and answer queries against it.
./target/release/usher fuzz --seeds 2 --mutants 0 --no-minimize --fault serve-chaos
CRS_DIR=$(mktemp -d) && CRS_OUT=$(mktemp) && CRS_PIPE=$(mktemp -u)
mkfifo "$CRS_PIPE"
./target/release/usher serve --store-dir "$CRS_DIR" < "$CRS_PIPE" > "$CRS_OUT" 2>/dev/null &
CRS_PID=$!
exec 3> "$CRS_PIPE"
printf '%s\n' \
  '{"op":"analyze","source":"def risky(int c) -> int {\n    int x;\n    if (c) { x = 1; }\n    if (x) { return 1; }\n    return 0;\n}\ndef main(int c) {\n    print(risky(c));\n}","id":"cr-a1"}' >&3
CRS_TRIES=0
until grep -q '"id":"cr-a1"' "$CRS_OUT" 2>/dev/null; do
    CRS_TRIES=$((CRS_TRIES + 1))
    if [ "$CRS_TRIES" -gt 100 ]; then
        echo "error: crash smoke: serve never answered the analyze" >&2
        kill -9 "$CRS_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
kill -9 "$CRS_PID" 2>/dev/null || true
wait "$CRS_PID" 2>/dev/null || true
exec 3>&-
rm -f "$CRS_PIPE"
printf '%s\n' \
  '{"op":"stats","id":"cr-s1"}' \
  '{"op":"query","session":1,"id":"cr-q1"}' \
  '{"op":"query-use","session":1,"check":0,"id":"cr-u1"}' \
  '{"op":"shutdown","id":"cr-z1"}' \
  | ./target/release/usher serve --store-dir "$CRS_DIR" > "$CRS_OUT" 2>/dev/null
grep -q '"id":"cr-s1".*"sessions_recovered":1' "$CRS_OUT"
grep -q '"id":"cr-q1".*"plan_digest"' "$CRS_OUT"
grep -q '"id":"cr-u1".*"maybe_undef"' "$CRS_OUT"
if grep -q '"ok":false' "$CRS_OUT"; then
    echo "error: crash smoke: recovered session produced a failed response" >&2
    cat "$CRS_OUT" >&2
    exit 1
fi
rm -rf "$CRS_DIR" "$CRS_OUT"

echo "==> demand smoke"
# Demand-driven query gate (DESIGN.md §13): the demand-divergence fuzz
# mode must classify clean (every check's demand verdict is complete,
# equals the exhaustive resolver's and is memoized on repeat); a served
# session must answer point queries, memoize repeats, and invalidate the
# memo on edit (epoch bump); and structured errors must carry
# machine-readable kinds.
./target/release/usher fuzz --smoke --fault demand-diverge
DMD_OUT=$(mktemp)
printf '%s\n' \
  '{"op":"analyze","source":"def risky(int c) -> int {\n    int x;\n    if (c) { x = 1; }\n    if (x) { return 1; }\n    return 0;\n}\ndef main(int c) {\n    print(risky(c));\n}","id":"ci-d1"}' \
  '{"op":"query-use","session":1,"check":0,"id":"ci-d2"}' \
  '{"op":"query-use","session":1,"check":0,"id":"ci-d3"}' \
  '{"op":"edit","session":1,"func":"risky","body":"def risky(int c) -> int {\n    int x;\n    if (c) { x = 2; }\n    if (x) { return 1; }\n    return 0;\n}","id":"ci-d4"}' \
  '{"op":"query-use","session":1,"check":0,"id":"ci-d5"}' \
  '{"op":"stats","id":"ci-d6"}' \
  '{"op":"shutdown","id":"ci-d7"}' \
  | ./target/release/usher serve > "$DMD_OUT" 2>/dev/null
grep -q '"id":"ci-d2".*"memo_hit":false' "$DMD_OUT"
grep -q '"id":"ci-d2".*"epoch":0' "$DMD_OUT"
grep -q '"id":"ci-d3".*"memo_hit":true' "$DMD_OUT"
grep -q '"id":"ci-d3".*"nodes_visited":0' "$DMD_OUT"
grep -q '"id":"ci-d5".*"memo_hit":false' "$DMD_OUT"
grep -q '"id":"ci-d5".*"epoch":1' "$DMD_OUT"
grep -q '"id":"ci-d6".*"demand_queries":3' "$DMD_OUT"
if grep -q '"ok":false' "$DMD_OUT"; then
    echo "error: demand smoke produced a failed response" >&2
    cat "$DMD_OUT" >&2
    exit 1
fi
# Error probes ride a separate serve process: these responses are
# *expected* to fail, with recorded machine-readable reasons.
printf '%s\n' \
  '{"op":"query-use","session":1,"check":0,"id":"ci-x1"}' \
  '{"op":"analyze","source":"def main(int c) {\n    int x;\n    if (c) { x = 1; }\n    print(x);\n}","id":"ci-x2"}' \
  '{"op":"query-use","session":1,"check":9999,"id":"ci-x3"}' \
  '{"op":"shutdown","id":"ci-x4"}' \
  | ./target/release/usher serve > "$DMD_OUT" 2>/dev/null
grep -q '"error_kind":"unknown-session".*"id":"ci-x1"' "$DMD_OUT"
grep -q '"error_kind":"bad-check-index".*"id":"ci-x3"' "$DMD_OUT"
rm -f "$DMD_OUT"

echo "==> CI OK"
