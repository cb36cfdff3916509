#!/usr/bin/env bash
# Local CI gate: the tier-1 checks plus formatting, lints, and the
# conformance-fuzz smoke run.
#
# Usage: scripts/ci.sh
# Runs from the repository root regardless of the caller's cwd.
#
# Knobs:
#   NLI_THREADS   worker count for the deterministic parallel runtime.
#                 The suite and the fuzz smoke both run at 1 and 4 below,
#                 because the runtime promises bit-identical results at
#                 any worker count (DESIGN.md §3.2) — the fuzz driver's
#                 stdout is compared byte-for-byte across the two.
#   FUZZ_SEED / FUZZ_CASES
#                 fixed seed (default 42) and case count (default 500)
#                 for the fuzz smoke (DESIGN.md §3.4). Any oracle
#                 violation fails the gate; the driver prints a minimized
#                 reproducer plus its replay line.
#
# After the tests and the fuzz smoke, two smoke stages drive the real
# binaries over loopback TCP: the admin plane (nli-server, loadgen
# --connect and nli-top must reconcile per-tenant counts) and the server
# loadgen (transcripts byte-identical at 1 and 4 workers). Performance is
# measured by nlibench (BENCHMARK.json) and the criterion benches, not
# here.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

# The parallel runtime promises bit-identical results at any worker count
# (DESIGN.md §3.2): run the suite sequentially and with a 4-worker pool so
# both the oracle path and the fan-out path gate the merge.
echo "==> cargo test (NLI_THREADS=1)"
NLI_THREADS=1 cargo test -q

echo "==> cargo test (NLI_THREADS=4)"
NLI_THREADS=4 cargo test -q

# Shared-path race guard: tests that touch temp directories, ports or
# process-wide state must pass both alone and side by side, run after run.
# Each binary runs 5 times at one test thread and 5 times at eight.
echo "==> race guard (5 runs each at --test-threads=1 and 8)"
RACE_LOG=$(mktemp)
for spec in nli-core:crash_recovery nli-core:dml_conformance nli-core:index_invalidation \
  nli-server:protocol_loopback nli-server:admin_plane nli-server:dml_over_wire; do
  for threads in 1 8; do
    for run in 1 2 3 4 5; do
      if ! cargo test -q -p "${spec%%:*}" --test "${spec#*:}" -- --test-threads="$threads" \
        > "$RACE_LOG" 2>&1; then
        cat "$RACE_LOG"
        echo "${spec#*:} failed on run $run at --test-threads=$threads"
        exit 1
      fi
    done
  done
done
rm -f "$RACE_LOG"

# Conformance-fuzz smoke (DESIGN.md §3.4): a fixed-seed batch must be
# violation-free at 1 and 4 workers with byte-identical stdout, and the
# negative --inject-bug pass must prove the oracle still fires.
FUZZ_SEED="${FUZZ_SEED:-42}"
FUZZ_CASES="${FUZZ_CASES:-500}"
FUZZ_BIN=target/release/fuzz

echo "==> fuzz smoke (seed=$FUZZ_SEED cases=$FUZZ_CASES, NLI_THREADS=1)"
NLI_THREADS=1 "$FUZZ_BIN" --seed "$FUZZ_SEED" --cases "$FUZZ_CASES" > /tmp/nli_fuzz_t1.out

echo "==> fuzz smoke (seed=$FUZZ_SEED cases=$FUZZ_CASES, NLI_THREADS=4)"
NLI_THREADS=4 "$FUZZ_BIN" --seed "$FUZZ_SEED" --cases "$FUZZ_CASES" > /tmp/nli_fuzz_t4.out

echo "==> fuzz smoke output is byte-identical across worker counts"
cmp /tmp/nli_fuzz_t1.out /tmp/nli_fuzz_t4.out

# Index scans are an access path, not a semantics change: the same batch
# with every random index declaration suppressed must print the same bytes.
echo "==> fuzz smoke (--no-indexes) is byte-identical to the indexed run"
NLI_THREADS=4 "$FUZZ_BIN" --seed "$FUZZ_SEED" --cases "$FUZZ_CASES" --no-indexes > /tmp/nli_fuzz_noidx.out
cmp /tmp/nli_fuzz_t4.out /tmp/nli_fuzz_noidx.out

echo "==> fuzz negative check (--inject-bug must be caught)"
"$FUZZ_BIN" --seed "$FUZZ_SEED" --cases 100 --inject-bug > /dev/null

echo "==> fuzz negative check (--inject-index-bug must be caught)"
"$FUZZ_BIN" --seed "$FUZZ_SEED" --cases 200 --inject-index-bug > /dev/null

echo "==> fuzz negative check (--inject-wal-bug must be caught)"
"$FUZZ_BIN" --seed "$FUZZ_SEED" --cases 40 --inject-wal-bug > /dev/null

# Admin-plane smoke (DESIGN.md §3.9): boot the real
# server binary with slow capture at 0µs and NLI_TRACE set, drive a
# 200-request burst over the wire, and reconcile the observability plane
# end to end — nli-top must parse the STATS/STATS TENANT/SLOWLOG/HEALTH
# frames, the per-tenant request counts must sum to the fleet's total,
# the slow ring must be non-empty, and the drain-time SLO report, trace
# snapshot and event journal must be written and agree with each other.
echo "==> admin plane smoke (nli-server + loadgen --connect + nli-top)"
ADMIN_DIR=$(mktemp -d)
mkfifo "$ADMIN_DIR/stdin"
NLI_TRACE="$ADMIN_DIR/trace.json" target/release/nli-server --addr 127.0.0.1:0 \
  --slow-threshold-us 0 --slo-report "$ADMIN_DIR/slo.json" \
  < "$ADMIN_DIR/stdin" > "$ADMIN_DIR/stdout" &
ADMIN_PID=$!
# hold the fifo open for writing so the server does not read EOF early
exec 9> "$ADMIN_DIR/stdin"
for _ in $(seq 1 100); do
  grep -q "listening on" "$ADMIN_DIR/stdout" 2>/dev/null && break
  sleep 0.1
done
ADMIN_ADDR=$(sed -n 's/^nli-server listening on \([0-9.:]*\).*/\1/p' "$ADMIN_DIR/stdout")
test -n "$ADMIN_ADDR" || { echo "server never bound a port"; exit 1; }
target/release/nli-server-loadgen --connect "$ADMIN_ADDR" \
  --clients 4 --requests 50
echo "==> nli-top reconciles per-tenant counts and the slow ring"
target/release/nli-top --addr "$ADMIN_ADDR" --once \
  --expect-requests 200 --require-slowlog
echo quit >&9
exec 9>&-
wait "$ADMIN_PID"
test -s "$ADMIN_DIR/slo.json" || { echo "SLO report missing or empty"; exit 1; }
grep -q '"slow_captured"' "$ADMIN_DIR/slo.json"
echo "==> trace snapshot and event journal agree with the served requests"
# One server.request span per admitted request of the burst.
grep -A1 '"server.request": {' "$ADMIN_DIR/trace.json" | grep -q '"count": 200,' \
  || { echo "spans.server.request missing or not 200"; exit 1; }
# One slow_query journal line per entry the slow ring retained.
JOURNAL="$ADMIN_DIR/trace.json.events.jsonl"
RETAINED=$(sed -n 's/.*"slowlog_entries": *\([0-9]*\).*/\1/p' "$ADMIN_DIR/slo.json")
JOURNALED=$(grep -c '"event":"slow_query"' "$JOURNAL" || true)
test -n "$RETAINED" && test "$RETAINED" -gt 0 && test "$JOURNALED" = "$RETAINED" \
  || { echo "journal holds $JOURNALED slow_query lines, slow ring retained $RETAINED"; exit 1; }
# Slow capture re-profiles SQL/EXEC after the request's span closed, so
# every such entry carries its span tree.
if grep -E '"verb":"(SQL|EXEC)"' "$JOURNAL" | grep -q '"tree":"-"'; then
  echo "a SQL/EXEC slow-query entry has no span tree"; exit 1
fi
rm -rf "$ADMIN_DIR"

# Server smoke: same 200-request burst at two executor-worker counts and
# two pool worker counts; every client's response transcript must be
# byte-identical between the runs.
echo "==> server loadgen smoke"
NLI_THREADS=1 target/release/nli-server-loadgen \
  --clients 4 --requests 50 --exec-workers 1 --dump /tmp/nli_server_dump_w1.txt
NLI_THREADS=4 target/release/nli-server-loadgen \
  --clients 4 --requests 50 --exec-workers 4 --dump /tmp/nli_server_dump_w4.txt
echo "==> server transcripts are byte-identical across worker counts"
cmp /tmp/nli_server_dump_w1.txt /tmp/nli_server_dump_w4.txt

echo "CI gate passed."
