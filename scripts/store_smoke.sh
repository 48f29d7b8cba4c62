#!/usr/bin/env sh
# CI smoke for the result-history store (internal/store + cmd/sthist):
# archives must survive a real stserved process restart, and the trend
# gate must pass an unmodified run yet flag an injected regression.
#
# Phase 1 — archive on compute: stserved runs with -store-dir and the
# memory cache off; 3 identical no_cache submissions each simulate and
# archive.
#
# Phase 2 — durability across restart: stserved is stopped and started
# again on the same store directory; it must reopen all 3 records, and
# 2 more no_cache submissions must continue the history (5 records,
# visible over GET /v1/history). The store is also the cache's
# persistent tier: one reusable submission must then be answered 200,
# "cached": true, with bytes identical to phase 1's first result, and
# archive nothing (still 5 records).
#
# Phase 3 — trend gate: with 5 archived runs, `sthist -gate` passes the
# server's own (unmodified) result document, then fails — naming the
# metric, experiment, and changepoint — when a synthetic 15% throughput
# drop is injected. The trend table is written to $STORE_REPORT for CI
# to keep as an artifact.
set -eu

ADDR=${STORE_ADDR:-127.0.0.1:8403}
BASE="http://$ADDR"
TMP=$(mktemp -d)
STORE="$TMP/store"
STORE_REPORT=${STORE_REPORT:-$TMP/trend-report.txt}
go build -o ./bin/stserved ./cmd/stserved
go build -o ./bin/sthist ./cmd/sthist

PID=
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

req() { # req OUT [curl args] -> http_code on stdout, body into OUT
  out=$1; shift
  curl -s -o "$out" -w '%{http_code}' "$@"
}

json_field() { # json_field FILE KEY -> first string value of KEY
  sed -n 's/.*"'"$2"'": "\([^"]*\)".*/\1/p' "$1" | head -1
}

start_served() { # start_served LOG
  ./bin/stserved -addr "$ADDR" -workers 1 -queue 8 -cache 0 \
    -store-dir "$STORE" 2>"$1" &
  PID=$!
  i=0
  until [ "$(req /dev/null "$BASE/v1/healthz" || true)" = 200 ]; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "FAIL: stserved never came up" >&2; cat "$1" >&2; exit 1; }
    sleep 0.2
  done
}

stop_served() {
  kill -INT "$PID"
  rc=0
  wait "$PID" || rc=$?
  PID=
  [ "$rc" = 0 ] || { echo "FAIL: stserved exited $rc" >&2; exit 1; }
}

# submit_and_wait OUT — run the quick E1a point, recomputing even when
# the store holds it, and save its result bytes.
BODY='{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2}, "no_cache": true}'
REUSE='{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2}}'
submit_and_wait() {
  code=$(req "$TMP/post.json" -X POST -d "$BODY" "$BASE/v1/jobs")
  case $code in 200|202) ;; *) echo "FAIL: submit returned $code" >&2; exit 1;; esac
  ID=$(json_field "$TMP/post.json" id)
  i=0
  while :; do
    req "$TMP/job.json" "$BASE/v1/jobs/$ID" >/dev/null
    status=$(json_field "$TMP/job.json" status)
    [ "$status" = done ] && break
    case $status in failed|cancelled) echo "FAIL: job $ID $status" >&2; cat "$TMP/job.json" >&2; exit 1;; esac
    i=$((i + 1))
    [ "$i" -le 150 ] || { echo "FAIL: job $ID stuck in $status" >&2; exit 1; }
    sleep 0.2
  done
  req "$1" "$BASE/v1/jobs/$ID/result" >/dev/null
}

echo "== phase 1: three submissions archive three records =="
start_served "$TMP/served1.log"
submit_and_wait "$TMP/head.json"
submit_and_wait /dev/null
submit_and_wait /dev/null
req "$TMP/health.json" "$BASE/v1/healthz" >/dev/null
grep -q '"records": 3' "$TMP/health.json" || {
  echo "FAIL: healthz does not report 3 archived records" >&2
  cat "$TMP/health.json" >&2; exit 1
}
echo "OK: 3 runs archived"

echo "== phase 2: archive survives a real process restart =="
stop_served
start_served "$TMP/served2.log"
grep -q "result store .*3 records" "$TMP/served2.log" || {
  echo "FAIL: restarted stserved did not reopen 3 records" >&2
  cat "$TMP/served2.log" >&2; exit 1
}
submit_and_wait /dev/null
submit_and_wait /dev/null
req "$TMP/history.json" "$BASE/v1/history?experiment=E1a" >/dev/null
runs=$(grep -c '"seq"' "$TMP/history.json" || true)
[ "$runs" = 5 ] || {
  echo "FAIL: /v1/history shows $runs runs, want 5" >&2
  cat "$TMP/history.json" >&2; exit 1
}
echo "OK: 5 runs of history across a restart"

code=$(req "$TMP/reuse.post" -X POST -d "$REUSE" "$BASE/v1/jobs")
[ "$code" = 200 ] || { echo "FAIL: reusable submit returned $code, want 200 (store hit)" >&2; exit 1; }
grep -q '"cached": true' "$TMP/reuse.post" || {
  echo "FAIL: reusable submit not served from the store" >&2
  cat "$TMP/reuse.post" >&2; exit 1
}
RID=$(json_field "$TMP/reuse.post" id)
req "$TMP/reuse.json" "$BASE/v1/jobs/$RID/result" >/dev/null
cmp -s "$TMP/head.json" "$TMP/reuse.json" || {
  echo "FAIL: store-served result is not byte-identical to the first run" >&2; exit 1
}
req "$TMP/health.json" "$BASE/v1/healthz" >/dev/null
grep -q '"records": 5' "$TMP/health.json" || {
  echo "FAIL: store hit changed the record count" >&2
  cat "$TMP/health.json" >&2; exit 1
}
stop_served
echo "OK: result archived before the restart served as a cached hit, byte-identical"

echo "== phase 3: gate passes clean, flags an injected 15% drop =="
./bin/sthist -store "$STORE" -trends -experiment E1a >"$STORE_REPORT"
echo "trend report: $STORE_REPORT ($(wc -l <"$STORE_REPORT") lines)"

./bin/sthist -store "$STORE" -gate "$TMP/head.json" || {
  echo "FAIL: gate rejected an unmodified run" >&2; exit 1
}

rc=0
./bin/sthist -store "$STORE" -gate "$TMP/head.json" \
  -inject throughput=0.85 >"$TMP/gate.out" 2>&1 || rc=$?
[ "$rc" = 1 ] || { echo "FAIL: injected regression exited $rc, want 1" >&2; cat "$TMP/gate.out" >&2; exit 1; }
grep -q 'E1a .* throughput' "$TMP/gate.out" || {
  echo "FAIL: gate did not name the regressed metric" >&2
  cat "$TMP/gate.out" >&2; exit 1
}
grep -q 'changepoint: this run' "$TMP/gate.out" || {
  echo "FAIL: gate did not name the changepoint" >&2
  cat "$TMP/gate.out" >&2; exit 1
}
echo "OK: gate clean on real history, exit 1 + named changepoint on injected drop"
