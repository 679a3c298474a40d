#!/usr/bin/env bash
# Full local CI gate: build, tests, formatting, lints.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --workspace --release
cargo test -q --workspace
# The repo benchmark (perfbench/) is its own Cargo workspace, so the
# workspace tests do not build it; its smoke test catches a read/serve API
# change that would break the benchmark.
cargo test -q --release --manifest-path perfbench/Cargo.toml
# The resilience suite is the gate for storage-fault behaviour; run it
# explicitly so a filtered or partial test invocation cannot skip it.
cargo test -q --test failure_injection
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# Observability pipeline: run the traced fig6 workload, render its report,
# export + schema-check the Chrome trace, and gate against the committed
# perf baseline (see docs/OBSERVABILITY.md). Small workload — this is a
# smoke test of the artifact pipeline, not a perf measurement, so only the
# baseline comparison (on identical settings) is load-bearing.
OBS_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_DIR"' EXIT
SPIO=target/release/spio
"$SPIO" bench --procs 8 --per-rank 2000 --runs 2 \
  --write "$OBS_DIR/bench.json" \
  --trace-out "$OBS_DIR/trace.json" \
  --report-out "$OBS_DIR/report.json" \
  --metrics-out "$OBS_DIR/metrics.jsonl"
"$SPIO" report "$OBS_DIR/report.json" > /dev/null
"$SPIO" trace "$OBS_DIR/trace.json" > /dev/null
"$SPIO" trace "$OBS_DIR/trace.json" --chrome "$OBS_DIR/chrome.json"
"$SPIO" check-trace "$OBS_DIR/chrome.json"
"$SPIO" bench --procs 8 --per-rank 2000 --runs 2 --baseline "$OBS_DIR/bench.json"
echo "ci: observability pipeline OK"

# Read-serving pipeline (see docs/SERVING.md): generate an on-disk dataset,
# smoke the LOD-answering query path and the serve-bench replay, check the
# serving metrics surface in the rendered report, then run the read bench
# and gate cold/warm latency with the same >20% + 20ms rule as the write
# gate. Like above, the baseline comparison runs on identical settings
# within this invocation, so it checks the gate machinery, not the machine.
"$SPIO" gen "$OBS_DIR/ds" 8 2000 > /dev/null
"$SPIO" query "$OBS_DIR/ds" 0 0 0 0.5 0.5 0.5 --lod 1 > /dev/null
"$SPIO" serve-bench "$OBS_DIR/ds" --clients 2 --queries 8 \
  --report-out "$OBS_DIR/serve_report.json" > /dev/null
"$SPIO" report "$OBS_DIR/serve_report.json" | grep -q "serve.query"
"$SPIO" report "$OBS_DIR/serve_report.json" | grep -q "serve.cache.hits"
"$SPIO" bench --read --per-rank 2000 --clients 2 --queries 8 --runs 2 \
  --write "$OBS_DIR/read.json" \
  --report-out "$OBS_DIR/read_report.json" \
  --metrics-out "$OBS_DIR/read_metrics.jsonl"
"$SPIO" report "$OBS_DIR/read_report.json" > /dev/null
"$SPIO" bench --read --per-rank 2000 --clients 2 --queries 8 --runs 2 \
  --baseline "$OBS_DIR/read.json"
echo "ci: read-serving pipeline OK"

# Verification gates (see docs/VERIFICATION.md):
# 1. `spio lint` — source-tree rule scan against the committed lint.ratchet
#    baseline; counts may only decrease (exit 1 on any increase).
# 2. The schedule-explorer suite — every collective schedule-invariant
#    across seeded interleavings, every known-bad comm fixture diagnosed.
# 3. `spio verify-comm` — the same checks through the CLI surface, wider
#    seed sweep.
"$SPIO" lint
cargo test -q -p spio-verify --test schedule_explorer
"$SPIO" verify-comm --procs 4 --seeds 16 > /dev/null
echo "ci: verification gates OK"

# Optional ThreadSanitizer pass over the comm runtime. TSan needs a nightly
# toolchain with -Zsanitizer support; skip gracefully when absent so the
# gate stays runnable on stable.
if rustc --version | grep -q nightly && \
   rustc -Zhelp 2>/dev/null | grep -q "sanitizer"; then
  RUSTFLAGS="-Zsanitizer=thread" \
    cargo test -q -p spio-comm --target "$(rustc -vV | sed -n 's/host: //p')" \
    || { echo "ci: tsan FAILED"; exit 1; }
  echo "ci: tsan OK"
else
  echo "ci: tsan skipped (stable toolchain, -Zsanitizer unavailable)"
fi

echo "ci: all checks passed"
