#!/usr/bin/env sh
# CI smoke for the simulation service (cmd/stserved): end-to-end over
# real HTTP, with the real simulator behind it.
#
# Phase 1 — content-addressed caching: the same experiment submitted
# twice runs once; the second response is flagged cached and its result
# bytes are identical to the first, byte for byte.
#
# Phase 2 — backpressure: with 1 worker and a 1-deep queue, a third
# concurrent job is refused immediately with 429 + Retry-After instead
# of blocking, and a DELETE cancels the stragglers cooperatively.
#
# Phase 3 — graceful shutdown: SIGINT drains and the daemon exits 0.
set -eu

STSERVED=${STSERVED:-./bin/stserved}
ADDR=${SERVE_ADDR:-127.0.0.1:8399}
BASE="http://$ADDR"
TMP=$(mktemp -d)
go build -o "$STSERVED" ./cmd/stserved

"$STSERVED" -addr "$ADDR" -workers 1 -queue 1 -cache 64 \
  -store-dir "$TMP/store" -drain 30s 2>"$TMP/served.log" &
PID=$!
cleanup() {
  kill "$PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# curl wrapper: http_code on stdout, body into $1.
req() {
  out=$1; shift
  curl -s -o "$out" -w '%{http_code}' "$@"
}

json_field() { # json_field FILE KEY -> first string value of KEY
  sed -n 's/.*"'"$2"'": "\([^"]*\)".*/\1/p' "$1" | head -1
}

echo "== waiting for $BASE =="
i=0
until [ "$(req /dev/null "$BASE/v1/healthz" || true)" = 200 ]; do
  i=$((i + 1))
  [ "$i" -le 50 ] || { echo "FAIL: stserved never came up" >&2; cat "$TMP/served.log" >&2; exit 1; }
  sleep 0.2
done

echo "== phase 1: submit twice, one simulation, byte-identical bytes =="
BODY='{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2}}'
code=$(req "$TMP/cold.post" -X POST -d "$BODY" "$BASE/v1/jobs")
[ "$code" = 202 ] || { echo "FAIL: cold submit returned $code" >&2; exit 1; }
ID=$(json_field "$TMP/cold.post" id)

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
req "$TMP/cold.json" "$BASE/v1/jobs/$ID/result" >/dev/null

code=$(req "$TMP/warm.post" -X POST -d "$BODY" "$BASE/v1/jobs")
[ "$code" = 200 ] || { echo "FAIL: warm submit returned $code, want 200 (cache hit)" >&2; exit 1; }
grep -q '"cached": true' "$TMP/warm.post" || { echo "FAIL: warm submit not served from cache" >&2; cat "$TMP/warm.post" >&2; exit 1; }
WID=$(json_field "$TMP/warm.post" id)
req "$TMP/warm.json" "$BASE/v1/jobs/$WID/result" >/dev/null
cmp -s "$TMP/cold.json" "$TMP/warm.json" || { echo "FAIL: cached result is not byte-identical" >&2; exit 1; }
req "$TMP/stats.json" "$BASE/v1/stats" >/dev/null
grep -q '"jobs_completed": 1' "$TMP/stats.json" || { echo "FAIL: expected exactly 1 completed simulation" >&2; cat "$TMP/stats.json" >&2; exit 1; }
echo "OK: 2 submissions, 1 simulation, identical bytes ($(wc -c <"$TMP/cold.json") bytes)"

echo "== phase 2: full queue answers 429 without blocking =="
SLOW='{"explore": {"config": {"structure": "list", "scheme": "stacktrack"}, "wall_ms": 20000}}'
code=$(req "$TMP/slow1.post" -X POST -d "$SLOW" "$BASE/v1/jobs")
[ "$code" = 202 ] || { echo "FAIL: slow job 1 returned $code" >&2; exit 1; }
S1=$(json_field "$TMP/slow1.post" id)
i=0
until req "$TMP/job.json" "$BASE/v1/jobs/$S1" >/dev/null && grep -q '"status": "running"' "$TMP/job.json"; do
  i=$((i + 1)); [ "$i" -le 50 ] || { echo "FAIL: slow job never started" >&2; exit 1; }
  sleep 0.2
done
code=$(req "$TMP/slow2.post" -X POST -d "$SLOW" "$BASE/v1/jobs")
[ "$code" = 202 ] || { echo "FAIL: slow job 2 returned $code" >&2; exit 1; }
S2=$(json_field "$TMP/slow2.post" id)
code=$(req "$TMP/full.post" -X POST -d "$SLOW" "$BASE/v1/jobs")
[ "$code" = 429 ] || { echo "FAIL: full queue returned $code, want 429" >&2; exit 1; }
echo "OK: queue full -> 429"
# Cancel the stragglers so shutdown has nothing slow to drain.
req /dev/null -X DELETE "$BASE/v1/jobs/$S1" >/dev/null
req /dev/null -X DELETE "$BASE/v1/jobs/$S2" >/dev/null

echo "== phase 3: SIGINT drains and exits clean =="
kill -INT "$PID"
rc=0
wait "$PID" || rc=$?
[ "$rc" = 0 ] || { echo "FAIL: stserved exited $rc" >&2; cat "$TMP/served.log" >&2; exit 1; }
grep -q "drained" "$TMP/served.log" || { echo "FAIL: no drain message in log" >&2; cat "$TMP/served.log" >&2; exit 1; }
echo "OK: clean shutdown"
