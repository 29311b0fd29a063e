#!/usr/bin/env bash
# e2e.sh — the serving layer's end-to-end gate, run by the e2e CI job.
#
# Phase 1 (smoke): boot hashserved on the mem backend, drive it with
# hashload for a few seconds, and require >= MIN_OPS sustained ops/s
# with zero errors.
#
# Phase 1b (API smoke): a short YCSB-E run — cursor-paged scans mixed
# with inserts — against the same server shape, exercising the SCAN
# opcode end to end.
#
# Phase 2 (kill -9): boot a durable hashserved (file backend) on a temp
# dir, run hashload with an acked-write log — a quarter of insert
# batches ride UPSERTTTL and a tenth of batches are CAS swaps, so TTL
# and CAS mutations sit on the same zero-acked-loss claim — kill -9 the
# server mid-traffic, restart it on the same dir, and verify every
# acked write survived. Finishes with a SIGTERM graceful-drain shutdown.
#
# Phase 3 (recovery time): a durable knuth server on 4 shards takes a
# REOPEN_N-record preload (hashload -ycsb C -records), checkpoints it on
# SIGTERM and restarts; a tail of at least REOPEN_TAIL acked inserts
# then sits in the WAL alone when the server is killed -9. The restart
# after the kill is timed from launch to the address file: the server
# listens only once recovery (checkpoint load plus WAL replay) is done,
# and that time must stay under REOPEN_MAX_MS — a generous ceiling that
# catches recovery becoming accidentally serial or quadratic, not a
# tight perf gate. Every acked tail record must then read back.
#
# Phase 4 (replication failover): boot a durable semi-sync primary
# (-syncfollowers 1) plus a follower replica, drive zipf load with an
# acked-write log while a quarter of acked batches are re-read on the
# replica carrying their ReadToken, kill -9 the primary mid-traffic,
# promote the follower, and verify — against the promoted node — that
# every acked write survived and zero token reads violated
# read-your-writes.
#
# Phase 5 (chained failover under contention): boot a 3-node CHAIN —
# semi-sync primary, F1 following it, F2 following F1 — and drive
# CONTENDED zipf load (-overlap: every worker upserts the same hot
# keyspace from many connections, the total-write-order trigger) with
# token reads checked at the END of the chain. Kill -9 the primary
# mid-traffic, promote F1 (F2's subscription to F1 rides through), then
# gate: zero token violations at the chain end, every acked key present
# on BOTH survivors, and — the §2a gate — a full convergence diff
# between F1 and F2 over the contended keyspace with zero differences.
#
# Usage: scripts/e2e.sh [bindir]   (defaults to ./bin; binaries are
# built if missing)
set -euo pipefail

BIN=${1:-bin}
MIN_OPS=${MIN_OPS:-100000}
SMOKE_SECS=${SMOKE_SECS:-5s}
KILL_SECS=${KILL_SECS:-10s}
REOPEN_N=${REOPEN_N:-10000000}
REOPEN_TAIL=${REOPEN_TAIL:-500000}
REOPEN_MAX_MS=${REOPEN_MAX_MS:-30000}
WORK=$(mktemp -d)
OK=0
# On failure the work dir is kept (CI uploads /tmp/tmp.*/ as a debug
# artifact); only a fully green run cleans up after itself.
cleanup() {
  kill -9 "${SRV_PID:-}" 2>/dev/null || true
  kill -9 "${FOLLOWER_PID:-}" 2>/dev/null || true
  kill -9 "${F2_PID:-}" 2>/dev/null || true
  if [ "$OK" = 1 ]; then
    rm -rf "$WORK"
  else
    echo "e2e FAILED; logs kept in $WORK" >&2
  fi
}
trap cleanup EXIT

mkdir -p "$BIN"
[ -x "$BIN/hashserved" ] || go build -o "$BIN/hashserved" ./cmd/hashserved
[ -x "$BIN/hashload" ] || go build -o "$BIN/hashload" ./cmd/hashload

wait_addr() { # wait_addr FILE [SECONDS, default 10] -> prints address
  for _ in $(seq 1 $((${2:-10} * 50))); do
    if [ -s "$1" ]; then cat "$1"; return 0; fi
    sleep 0.02
  done
  echo "server never wrote $1" >&2
  return 1
}

echo "=== e2e phase 1: mem-backend smoke (gate: >= $MIN_OPS ops/s, 0 errors) ==="
"$BIN/hashserved" -addr 127.0.0.1:0 -backend mem -shards 4 \
  -addrfile "$WORK/addr1" -quiet >"$WORK/srv1.log" 2>&1 &
SRV_PID=$!
ADDR=$(wait_addr "$WORK/addr1")
"$BIN/hashload" -addr "$ADDR" -duration "$SMOKE_SECS" -conns 4 -workers 16 \
  -batch 256 -lookupfrac 0.5 -summary "$WORK/smoke.json" | tee "$WORK/smoke.out"

echo "=== e2e phase 1b: YCSB-E scan smoke (gate: 0 errors) ==="
"$BIN/hashload" -addr "$ADDR" -ycsb E -duration 3s -workers 8 -batch 128 \
  -records 20000 -summary "$WORK/scan.json" | tee "$WORK/scan.out"
SCAN_ERRS=$(awk '/^SUMMARY /{for(i=1;i<=NF;i++) if ($i ~ /^errors=/) {split($i,a,"="); print a[2]}}' "$WORK/scan.out")
if [ "$SCAN_ERRS" -ne 0 ]; then
  echo "FAIL: scan smoke reported $SCAN_ERRS errors" >&2
  exit 1
fi
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=

read -r OPS ERRS < <(awk '/^SUMMARY /{
  for (i = 1; i <= NF; i++) {
    if ($i ~ /^ops_per_sec=/) { split($i, a, "="); ops = a[2] }
    if ($i ~ /^errors=/)      { split($i, b, "="); errs = b[2] }
  }
  printf "%d %d\n", ops, errs
}' "$WORK/smoke.out")
echo "smoke: $OPS ops/s, $ERRS errors"
if [ "$ERRS" -ne 0 ]; then
  echo "FAIL: smoke run reported $ERRS errors" >&2
  exit 1
fi
if [ "$OPS" -lt "$MIN_OPS" ]; then
  echo "FAIL: smoke throughput $OPS ops/s below gate $MIN_OPS" >&2
  exit 1
fi

echo "=== e2e phase 2: durable backend, TTL/CAS-mixed load, kill -9 mid-traffic, verify acked writes ==="
DATA="$WORK/data"
mkdir -p "$DATA"
"$BIN/hashserved" -addr 127.0.0.1:0 -backend file -path "$DATA/t" -shards 4 \
  -addrfile "$WORK/addr2" -quiet >"$WORK/srv2.log" 2>&1 &
SRV_PID=$!
ADDR=$(wait_addr "$WORK/addr2")
"$BIN/hashload" -addr "$ADDR" -duration "$KILL_SECS" -conns 4 -workers 8 \
  -batch 128 -lookupfrac 0.3 -ttlfrac 0.25 -casfrac 0.10 \
  -acklog "$WORK/acks.log" \
  -summary "$WORK/kill.json" >"$WORK/load2.log" 2>&1 &
LOAD_PID=$!
sleep 4
echo "kill -9 $SRV_PID (server, mid-traffic)"
kill -9 "$SRV_PID"
SRV_PID=
wait "$LOAD_PID" || { echo "FAIL: hashload did not tolerate the server dying" >&2; cat "$WORK/load2.log" >&2; exit 1; }
grep '^SUMMARY ' "$WORK/load2.log"
ACKED=$(wc -l <"$WORK/acks.log")
echo "acked mutations logged: $ACKED"
if [ "$ACKED" -eq 0 ]; then
  echo "FAIL: no acked writes before the kill — gate proved nothing" >&2
  exit 1
fi

echo "--- restarting server on the same path (crash recovery) ---"
"$BIN/hashserved" -addr 127.0.0.1:0 -backend file -path "$DATA/t" -shards 4 \
  -addrfile "$WORK/addr3" -quiet >"$WORK/srv3.log" 2>&1 &
SRV_PID=$!
ADDR=$(wait_addr "$WORK/addr3")
grep recovered_len "$WORK/srv3.log" || true
"$BIN/hashload" -addr "$ADDR" -verify "$WORK/acks.log"

echo "--- graceful SIGTERM drain of the recovered server ---"
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=
grep checkpointed "$WORK/srv3.log"

echo "=== e2e phase 3: served restart of $REOPEN_N records + a WAL tail of >= $REOPEN_TAIL (gate: launch to listening <= ${REOPEN_MAX_MS} ms) ==="
RDATA="$WORK/reopen"
mkdir -p "$RDATA"
serve_reopen() { # serve_reopen N: start the phase's durable server, log srv-rN.log, address addr-rN
  "$BIN/hashserved" -addr 127.0.0.1:0 -structure knuth -backend file -path "$RDATA/t" \
    -shards 4 -expected "$REOPEN_N" -addrfile "$WORK/addr-r$1" -quiet >"$WORK/srv-r$1.log" 2>&1 &
  SRV_PID=$!
}
serve_reopen 1
ADDR=$(wait_addr "$WORK/addr-r1")
"$BIN/hashload" -addr "$ADDR" -ycsb C -records "$REOPEN_N" -duration 1s \
  -workers 4 -batch 256 2>&1 | tee "$WORK/preload.out" | grep -E '^(hashload: preloaded|SUMMARY )'
kill -TERM "$SRV_PID"
wait "$SRV_PID"
grep checkpointed "$WORK/srv-r1.log"

serve_reopen 2
ADDR=$(wait_addr "$WORK/addr-r2" $((REOPEN_MAX_MS / 1000)))
# Owned inserts, acked once their WAL record is fsynced. Another round,
# if one is needed, upserts the same keys with the same values again:
# more records to replay, the same keys to verify.
TAIL=0
: >"$WORK/tail-acks.log"
while [ "$TAIL" -lt "$REOPEN_TAIL" ]; do
  "$BIN/hashload" -addr "$ADDR" -duration 3s -conns 4 -workers 16 -batch 256 \
    -lookupfrac 0 -acklog "$WORK/tail-round.log" | grep '^SUMMARY '
  TAIL=$((TAIL + $(wc -l <"$WORK/tail-round.log")))
  cat "$WORK/tail-round.log" >>"$WORK/tail-acks.log"
done
echo "kill -9 $SRV_PID after $TAIL acked tail records"
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true

T0=$(date +%s%N)
serve_reopen 3
ADDR=$(wait_addr "$WORK/addr-r3" $((REOPEN_MAX_MS / 1000 + 10)))
REOPEN_MS=$((($(date +%s%N) - T0) / 1000000))
RLEN=$(sed -n 's/.*recovered_len=\([0-9]*\).*/\1/p' "$WORK/srv-r3.log")
echo "recovery: ${REOPEN_MS} ms from launch to listening, recovered_len=$RLEN ($REOPEN_N records + $TAIL tail records)"
if [ "$REOPEN_MS" -gt "$REOPEN_MAX_MS" ]; then
  echo "FAIL: recovery took ${REOPEN_MS} ms, gate is ${REOPEN_MAX_MS} ms" >&2
  exit 1
fi
if [ "${RLEN:-0}" -lt "$REOPEN_N" ]; then
  echo "FAIL: recovered_len ${RLEN:-?} is below the $REOPEN_N preloaded records" >&2
  exit 1
fi
"$BIN/hashload" -addr "$ADDR" -verify "$WORK/tail-acks.log"
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=

echo "=== e2e phase 4: replication failover (kill -9 primary, promote follower, gate: zero acked-write loss, zero token violations) ==="
FAIL_SECS=${FAIL_SECS:-10s}
PDATA="$WORK/repl-primary"
FDATA="$WORK/repl-follower"
mkdir -p "$PDATA" "$FDATA"
"$BIN/hashserved" -addr 127.0.0.1:0 -backend file -path "$PDATA/t" -shards 4 \
  -syncfollowers 1 -addrfile "$WORK/addr-p" -quiet >"$WORK/srv-p.log" 2>&1 &
SRV_PID=$!
PADDR=$(wait_addr "$WORK/addr-p")
"$BIN/hashserved" -addr 127.0.0.1:0 -backend file -path "$FDATA/t" -shards 4 \
  -follow "$PADDR" -addrfile "$WORK/addr-f" -quiet >"$WORK/srv-f.log" 2>&1 &
FOLLOWER_PID=$!
FADDR=$(wait_addr "$WORK/addr-f")
sleep 1 # let the follower subscribe before semi-sync acks depend on it

"$BIN/hashload" -addr "$PADDR" -replica "$FADDR" -duration "$FAIL_SECS" \
  -conns 4 -workers 8 -batch 128 -lookupfrac 0.3 -dist zipf \
  -acklog "$WORK/repl-acks.log" -summary "$WORK/failover.json" \
  >"$WORK/load4.log" 2>&1 &
LOAD_PID=$!
sleep 4
echo "kill -9 $SRV_PID (primary, mid-traffic)"
kill -9 "$SRV_PID"
SRV_PID=
wait "$LOAD_PID" || { echo "FAIL: hashload did not tolerate the primary dying" >&2; cat "$WORK/load4.log" >&2; exit 1; }
grep '^SUMMARY ' "$WORK/load4.log"

read -r TCHECKS TVIOLS RACKED < <(awk '/^SUMMARY /{
  for (i = 1; i <= NF; i++) {
    if ($i ~ /^token_checks=/)     { split($i, a, "="); c = a[2] }
    if ($i ~ /^token_violations=/) { split($i, b, "="); v = b[2] }
    if ($i ~ /^acked_inserts=/)    { split($i, d, "="); n = d[2] }
  }
  printf "%d %d %d\n", c, v, n
}' "$WORK/load4.log")
echo "failover load: $RACKED acked inserts, $TCHECKS token reads on the replica, $TVIOLS violations"
if [ "$RACKED" -eq 0 ]; then
  echo "FAIL: no acked writes before the primary was killed — gate proved nothing" >&2
  exit 1
fi
if [ "$TCHECKS" -eq 0 ]; then
  echo "FAIL: no token-carrying replica reads ran — read-your-writes was not exercised" >&2
  exit 1
fi
if [ "$TVIOLS" -ne 0 ]; then
  echo "FAIL: $TVIOLS token reads on the replica violated read-your-writes" >&2
  exit 1
fi

echo "--- promoting the follower ---"
"$BIN/hashload" -addr "$FADDR" -promote | tee "$WORK/promote.out"
grep -q 'PROMOTED role=primary writable=true epoch=1' "$WORK/promote.out" || {
  echo "FAIL: promotion did not yield a writable epoch-1 primary" >&2
  exit 1
}

echo "--- verifying every acked write against the promoted node ---"
"$BIN/hashload" -addr "$FADDR" -verify "$WORK/repl-acks.log"

echo "--- graceful SIGTERM drain of the promoted node ---"
kill -TERM "$FOLLOWER_PID"
wait "$FOLLOWER_PID"
FOLLOWER_PID=
grep checkpointed "$WORK/srv-f.log"

echo "=== e2e phase 5: 3-node chain, contended load, kill -9 primary, promote F1 (gate: zero loss, zero violations, zero diffs on both survivors) ==="
CHAIN_SECS=${CHAIN_SECS:-10s}
CP="$WORK/chain-p"; CF1="$WORK/chain-f1"; CF2="$WORK/chain-f2"
mkdir -p "$CP" "$CF1" "$CF2"
"$BIN/hashserved" -addr 127.0.0.1:0 -backend file -path "$CP/t" -shards 4 \
  -syncfollowers 1 -addrfile "$WORK/addr-cp" -quiet >"$WORK/srv-cp.log" 2>&1 &
SRV_PID=$!
CPADDR=$(wait_addr "$WORK/addr-cp")
"$BIN/hashserved" -addr 127.0.0.1:0 -backend file -path "$CF1/t" -shards 4 \
  -follow "$CPADDR" -addrfile "$WORK/addr-cf1" -quiet >"$WORK/srv-cf1.log" 2>&1 &
FOLLOWER_PID=$!
CF1ADDR=$(wait_addr "$WORK/addr-cf1")
# F2 subscribes to F1's OWN ship log — the chain's second hop. Only F1
# talks to the primary; F2's stream must survive F1's promotion.
"$BIN/hashserved" -addr 127.0.0.1:0 -backend file -path "$CF2/t" -shards 4 \
  -follow "$CF1ADDR" -addrfile "$WORK/addr-cf2" -quiet >"$WORK/srv-cf2.log" 2>&1 &
F2_PID=$!
CF2ADDR=$(wait_addr "$WORK/addr-cf2")
sleep 1 # let both hops subscribe before semi-sync acks depend on F1

# Contended zipf load: every worker hammers the same 4096-key space, and
# token reads are checked at the END of the chain (F2) — the strongest
# read-your-writes claim the topology can make.
"$BIN/hashload" -addr "$CPADDR" -replica "$CF2ADDR" -duration "$CHAIN_SECS" \
  -conns 4 -workers 8 -batch 128 -overlap 4096 -dist zipf \
  -acklog "$WORK/chain-acks.log" -summary "$WORK/chain.json" \
  >"$WORK/load5.log" 2>&1 &
LOAD_PID=$!
sleep 4
echo "kill -9 $SRV_PID (chain primary, mid-traffic)"
kill -9 "$SRV_PID"
SRV_PID=
wait "$LOAD_PID" || { echo "FAIL: hashload did not tolerate the chain primary dying" >&2; cat "$WORK/load5.log" >&2; exit 1; }
grep '^SUMMARY ' "$WORK/load5.log"

read -r TCHECKS TVIOLS RACKED < <(awk '/^SUMMARY /{
  for (i = 1; i <= NF; i++) {
    if ($i ~ /^token_checks=/)     { split($i, a, "="); c = a[2] }
    if ($i ~ /^token_violations=/) { split($i, b, "="); v = b[2] }
    if ($i ~ /^acked_inserts=/)    { split($i, d, "="); n = d[2] }
  }
  printf "%d %d %d\n", c, v, n
}' "$WORK/load5.log")
echo "chain load: $RACKED acked contended upserts, $TCHECKS token reads at chain end, $TVIOLS violations"
if [ "$RACKED" -eq 0 ]; then
  echo "FAIL: no acked writes before the chain primary was killed — gate proved nothing" >&2
  exit 1
fi
if [ "$TCHECKS" -eq 0 ]; then
  echo "FAIL: no token reads reached the chain end — the chain was not exercised" >&2
  exit 1
fi
if [ "$TVIOLS" -ne 0 ]; then
  echo "FAIL: $TVIOLS token reads at the chain end violated read-your-writes" >&2
  exit 1
fi

echo "--- promoting F1 (F2 keeps following it) ---"
"$BIN/hashload" -addr "$CF1ADDR" -promote | tee "$WORK/chain-promote.out"
grep -q 'PROMOTED role=primary writable=true epoch=1' "$WORK/chain-promote.out" || {
  echo "FAIL: chain promotion did not yield a writable epoch-1 primary" >&2
  exit 1
}

echo "--- convergence diff between both survivors over the contended keyspace ---"
"$BIN/hashload" -addr "$CF1ADDR" -replica "$CF2ADDR" -batch 128 -diff "$WORK/chain-acks.log"

echo "--- verifying every acked key on both survivors ---"
"$BIN/hashload" -addr "$CF1ADDR" -verify "$WORK/chain-acks.log"
"$BIN/hashload" -addr "$CF2ADDR" -verify "$WORK/chain-acks.log"

echo "--- graceful SIGTERM drain of both survivors ---"
kill -TERM "$F2_PID"
wait "$F2_PID"
F2_PID=
grep checkpointed "$WORK/srv-cf2.log"
kill -TERM "$FOLLOWER_PID"
wait "$FOLLOWER_PID"
FOLLOWER_PID=
grep checkpointed "$WORK/srv-cf1.log"

OK=1
echo "=== e2e OK ==="
