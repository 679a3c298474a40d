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
# export + schema-check the Chrome trace, then record a bench record and
# gate a second run against it (see docs/OBSERVABILITY.md). Small workload
# — this is a smoke test of the artifact pipeline and of the one bench
# record/comparator on the fig6 workload, not a perf measurement; the
# committed BENCH_*.json fingerprints are checked by the
# committed_baselines test.
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
# serving metrics surface in the rendered report, then record the read
# workload and gate a second run against it through the same bench record
# and comparator as the write gate (>20% + 20 ms on cold/warm latency,
# error on a fingerprint mismatch). Like above, the comparison runs on
# identical settings within this invocation, so it checks the gate
# machinery, not the machine.
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
# 1. The clippy panic gate — no `unwrap`/`expect` in library or binary
#    code. `--lib --bins` never compiles `#[cfg(test)]` modules, `tests/`,
#    `benches/` or `examples/`, so tests may unwrap freely. A site that
#    must keep a panic carries `#[expect(clippy::..., reason = "...")]`;
#    a stale one fails the `--all-targets -D warnings` run above. That run
#    also enforces the root clippy.toml's `disallowed-methods`. The gate
#    below also denies an `unsafe` block without a `// SAFETY:` comment;
#    the CRC-32 hardware dispatch in spio-util holds the only one.
# 2. The schedule-explorer suite — every collective schedule-invariant
#    across seeded interleavings, every known-bad comm fixture diagnosed.
# 3. `spio verify-comm` — the same checks through the CLI surface, wider
#    seed sweep.
cargo clippy --workspace --lib --bins -- -D clippy::unwrap_used -D clippy::expect_used -D clippy::undocumented_unsafe_blocks
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
