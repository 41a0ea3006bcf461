#!/usr/bin/env bash
# Self-maintenance smoke test: run the two-process whipsnode fleet with the
# warehouse site black-holing EVERY source query (-stall-queries) and the
# manager site on auxiliary-relation maintenance (-self-maintain). A
# query-based manager would hang forever; the self-maintaining fleet must
# finish with complete MVC, and its /metrics must show zero source queries
# and a nonzero count of locally computed deltas. Used by CI; runnable
# locally from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:7656}
DEBUG=${DEBUG:-127.0.0.1:8082}
UPDATES=${UPDATES:-60}
SEED=${SEED:-11}
BIN=$(mktemp -d)/whipsnode
WH_LOG=$(mktemp)

cleanup() {
    kill "${WH_PID:-}" "${MG_PID:-}" 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/whipsnode

echo "== warehouse site: every source query black-holed =="
"$BIN" -role warehouse -addr "$ADDR" -updates "$UPDATES" -seed "$SEED" \
    -stall-queries >"$WH_LOG" 2>&1 &
WH_PID=$!
sleep 0.5
echo "== manager site: auxiliary-relation maintenance =="
"$BIN" -role managers -addr "$ADDR" -self-maintain -debug "$DEBUG" &
MG_PID=$!

if ! wait "$WH_PID"; then
    echo "FAIL: warehouse run exited nonzero (did a manager query the stalled source?)" >&2
    cat "$WH_LOG" >&2
    exit 1
fi

echo "== verdict =="
if ! grep -q 'complete=true' "$WH_LOG" || ! grep -q '^OK$' "$WH_LOG"; then
    echo "FAIL: run under a fully stalled source did not verify complete MVC" >&2
    cat "$WH_LOG" >&2
    exit 1
fi

METRICS=$(curl -fsS "http://$DEBUG/metrics")
if grep -E '^vm_source_queries_total\{[^}]*\} [1-9]' <<<"$METRICS"; then
    echo "FAIL: self-maintaining managers issued source queries" >&2
    exit 1
fi
if ! grep -Eq '^vm_local_deltas_total\{[^}]*\} [1-9]' <<<"$METRICS"; then
    echo "FAIL: vm_local_deltas_total never became nonzero" >&2
    grep -E '^vm_' <<<"$METRICS" >&2 || true
    exit 1
fi
if ! grep -Eq '^vm_aux_bytes\{[^}]*\} [1-9]' <<<"$METRICS"; then
    echo "FAIL: vm_aux_bytes gauge is zero — auxiliaries not resident" >&2
    grep -E '^vm_' <<<"$METRICS" >&2 || true
    exit 1
fi

echo "== /metrics.json parses =="
# Fetch whole before truncating: with pipefail, curl | head fails the
# script when head closes the pipe before curl finishes writing.
METRICS_JSON=$(curl -fsS "http://$DEBUG/metrics.json")
head -c 200 <<<"$METRICS_JSON"
echo

grep -E 'recovered|^V1: |complete=' "$WH_LOG" || true
grep -E '^(vm_source_queries_total|vm_local_deltas_total|vm_aux_bytes)' <<<"$METRICS"
echo "selfmaint smoke OK"
