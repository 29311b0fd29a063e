#!/usr/bin/env bash
# soak.sh — the soak gate (300 s nightly, 30 s on every pull request):
# a race-instrumented hashserved on the durable backend under sustained
# load, finished with a SIGTERM graceful drain and a goroutine-leak
# check (the server exits 3 if anything outlives shutdown). Any data
# race aborts the server and fails the run.
#
# The load comes in two parts:
#
#   1. The legacy mixed phase (inserts, zipf lookups, deletes) with TTL
#      and CAS batches mixed in — churn on the ack path under race.
#   2. One timed run per YCSB-shaped workload (A, B, C, D, E, F from
#      hashload -ycsb), each gated on its overall p99 latency.
#
# SLO gates are env-overridable: SOAK_P99_US is the default per-workload
# p99 ceiling in microseconds, SOAK_<W>_P99_US (e.g. SOAK_E_P99_US)
# overrides one workload. The scan-heavy E defaults looser.
#
# Trajectory artifacts land in SOAK_ARTDIR (default ./soak-artifacts):
# each workload's SUMMARY JSON as SOAK_<W>.json, the legacy phase as
# SOAK_legacy.json, two Prometheus /metrics scrapes bracketing the
# load as SOAK_metrics_start.txt / SOAK_metrics_end.txt, and the
# server's heap profile after the load as SOAK_heap.pprof (from
# /debug/pprof/heap on the metrics listener; a non-200 answer fails the
# run) — nightly CI uploads the directory, so a soak regression comes
# with the counter trajectory that explains it.
#
# Cleanup is trap-based: the SIGTERM drain and leak check run even when
# a load phase fails, so a mid-soak server death reports the goroutine
# dump instead of silently skipping it.
#
# Usage: scripts/soak.sh [seconds]   (total load budget, default 300)
set -euo pipefail

SECS=${1:-300}
BIN=${BIN:-bin}
ART=${SOAK_ARTDIR:-soak-artifacts}
P99_DEFAULT=${SOAK_P99_US:-500000}
WORK=$(mktemp -d)
OK=0
DRAINED=fail

cleanup() {
  trap - EXIT
  if [ -n "${SRV_PID:-}" ]; then
    echo "--- SIGTERM drain + goroutine leak check (runs even after a failed phase) ---"
    fetch metrics "$ART/SOAK_metrics_end.txt" || true
    kill -TERM "$SRV_PID" 2>/dev/null || true
    if wait "$SRV_PID" 2>/dev/null; then
      DRAINED=ok
      grep -E "checkpointed|leakcheck" "$WORK/srv.log" || true
    else
      echo "drain FAILED: race, leaked goroutines, or unclean exit; server log tail:" >&2
      tail -40 "$WORK/srv.log" >&2 || true
    fi
    SRV_PID=
  fi
  if [ "$OK" = 1 ] && [ "$DRAINED" = ok ]; then
    rm -rf "$WORK"
    echo "soak OK"
  else
    echo "soak FAILED; logs kept in $WORK" >&2
    exit 1
  fi
}
trap cleanup EXIT

fetch() { # fetch PATH OUTFILE: GET http://$MADDR/PATH, failing on a non-200
  if command -v curl >/dev/null; then
    curl -fsS "http://$MADDR/$1" -o "$2"
  else
    wget -qO "$2" "http://$MADDR/$1"
  fi
}

slo_for() { # slo_for WORKLOAD -> prints the p99 gate in µs
  local var="SOAK_$1_P99_US"
  if [ -n "${!var:-}" ]; then
    echo "${!var}"
  elif [ "$1" = E ]; then
    echo $((P99_DEFAULT * 4)) # scan pages are heavier per request
  else
    echo "$P99_DEFAULT"
  fi
}

mkdir -p "$BIN" "$ART"
go build -race -o "$BIN/hashserved.race" ./cmd/hashserved
go build -o "$BIN/hashload" ./cmd/hashload

# Metrics on a fixed loopback port the scraper can find; the data port
# is still kernel-assigned.
MADDR=127.0.0.1:${SOAK_METRICS_PORT:-9457}
"$BIN/hashserved.race" -addr 127.0.0.1:0 -backend file -path "$WORK/t" \
  -shards 4 -leakcheck -quiet -metrics "$MADDR" -sweep 250ms \
  -addrfile "$WORK/addr" >"$WORK/srv.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 100); do [ -s "$WORK/addr" ] && break; sleep 0.1; done
ADDR=$(cat "$WORK/addr")

# Budget: half the wall time for the legacy churn phase, the other half
# split across the six YCSB workloads.
LEGACY_SECS=$((SECS / 2))
YCSB_SECS=$(((SECS - LEGACY_SECS) / 6))
[ "$YCSB_SECS" -ge 5 ] || YCSB_SECS=5
echo "soaking $ADDR: ${LEGACY_SECS}s legacy mix + 6 x ${YCSB_SECS}s YCSB (race-built server, metrics on $MADDR)"
fetch metrics "$ART/SOAK_metrics_start.txt"

"$BIN/hashload" -addr "$ADDR" -duration "${LEGACY_SECS}s" -conns 4 -workers 8 \
  -batch 128 -lookupfrac 0.40 -deletefrac 0.10 -casfrac 0.10 -ttlfrac 0.25 \
  -dist zipf -summary "$ART/SOAK_legacy.json" | tee "$WORK/legacy.out"
ERRS=$(awk '/^SUMMARY /{for(i=1;i<=NF;i++) if ($i ~ /^errors=/) {split($i,a,"="); print a[2]}}' "$WORK/legacy.out")
if [ "$ERRS" -ne 0 ]; then
  echo "FAIL: legacy soak phase reported $ERRS errors" >&2
  exit 1
fi

for W in A B C D E F; do
  GATE=$(slo_for "$W")
  echo "--- YCSB-$W for ${YCSB_SECS}s (gate: p99 <= ${GATE}µs, 0 errors) ---"
  TTL_FLAG=0
  [ "$W" = A ] && TTL_FLAG=0.25 # churn workload also exercises UPSERTTTL
  "$BIN/hashload" -addr "$ADDR" -ycsb "$W" -duration "${YCSB_SECS}s" \
    -workers 8 -batch 128 -records 50000 -ttlfrac "$TTL_FLAG" \
    -summary "$ART/SOAK_$W.json" | tee "$WORK/ycsb_$W.out"
  read -r ERRS P99 < <(awk '/^SUMMARY /{
    for (i = 1; i <= NF; i++) {
      if ($i ~ /^errors=/) { split($i, a, "="); e = a[2] }
      if ($i ~ /^p99_us=/) { split($i, b, "="); p = b[2] }
    }
    printf "%d %d\n", e, p
  }' "$WORK/ycsb_$W.out")
  if [ "$ERRS" -ne 0 ]; then
    echo "FAIL: YCSB-$W reported $ERRS errors" >&2
    exit 1
  fi
  if [ "$P99" -gt "$GATE" ]; then
    echo "FAIL: YCSB-$W p99 ${P99}µs above the ${GATE}µs SLO gate" >&2
    exit 1
  fi
done

fetch debug/pprof/heap "$ART/SOAK_heap.pprof" || {
  echo "FAIL: /debug/pprof/heap did not answer 200 on $MADDR" >&2
  exit 1
}

OK=1
