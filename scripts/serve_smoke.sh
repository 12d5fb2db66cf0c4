#!/usr/bin/env sh
# serve_smoke.sh — boot share-server, exercise the full service surface
# (register, quote, trade, metrics, the /v2 market lifecycle), then SIGTERM
# it to verify graceful shutdown; reboot it over a -snapshot-dir to verify
# persistence on graceful shutdown and WAL replay after kill -9. Run via
# `make serve-smoke`.
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
BIN="$WORK/share-server"
SNAPDIR="$WORK/markets"
LOG="$WORK/server.log"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building share-server"
go build -o "$BIN" ./cmd/share-server

"$BIN" -addr "$ADDR" -demo 4 >"$LOG" 2>&1 &
PID=$!

# Wait for the server to come up.
wait_healthy() {
    i=0
    until curl -fs "$BASE/v1/health" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-smoke: server never became healthy" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_healthy
echo "serve-smoke: server healthy"

fail() {
    echo "serve-smoke: $1" >&2
    cat "$LOG" >&2
    exit 1
}

# Quote, trade, read-backs.
curl -fs "$BASE/v1/quote" -d '{"n":120,"v":0.8}' | grep -q product_price \
    || fail "quote failed"
curl -fs "$BASE/v1/trades" -d '{"n":120,"v":0.8}' | grep -q '"round": *1' \
    || fail "trade failed"
curl -fs "$BASE/v1/weights" >/dev/null || fail "weights failed"
curl -fs "$BASE/v1/sellers" >/dev/null || fail "sellers failed"

# Error paths: invalid demand is a field-level 400 in the unified envelope,
# never a 5xx.
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/quote" -d '{"n":120,"v":0.8,"theta1":7}')
[ "$code" = "400" ] || fail "invalid theta1 returned $code, want 400"
curl -s "$BASE/v1/quote" -d '{"n":120,"v":0.8,"theta1":7}' | grep -q '"error"' \
    || fail "400 body missing the error envelope"

# v1 routes alias the default market on /v2.
curl -fs "$BASE/v2/markets/default" | grep -q '"trades": *1' \
    || fail "/v2 default-market alias missing the trade"

# /v2 market lifecycle: create → register → batch quote → trade → delete.
curl -fs "$BASE/v2/markets" -d '{"id":"smoke"}' | grep -q '"id": *"smoke"' \
    || fail "create market failed"
curl -fs "$BASE/v2/markets/smoke/sellers" -d '{"id":"s1","lambda":0.4,"synthetic_rows":80}' >/dev/null \
    || fail "v2 seller registration failed"
curl -fs "$BASE/v2/markets/smoke/sellers" -d '{"id":"s2","lambda":0.6,"synthetic_rows":80}' >/dev/null \
    || fail "v2 seller registration failed"
curl -fs "$BASE/v2/markets/smoke/quotes" -d '{"demands":[{"n":100,"v":0.8},{"n":200,"v":0.85}]}' \
    | grep -q '"quotes"' || fail "batch quote failed"
curl -fs "$BASE/v2/markets/smoke/trades" -d '{"n":90,"v":0.8}' | grep -q '"round": *1' \
    || fail "v2 trade failed"
curl -fs "$BASE/v2/markets/smoke/trades?limit=1" >/dev/null || fail "paginated ledger failed"
curl -fsX DELETE "$BASE/v2/markets/smoke" || fail "delete market failed"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v2/markets/smoke")
[ "$code" = "404" ] || fail "deleted market answered $code, want 404"
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "$BASE/v2/markets/default")
[ "$code" = "409" ] || fail "deleting the default market answered $code, want 409"

# Metrics report the traffic just generated, including per-market series.
curl -fs "$BASE/v1/metrics" | grep -q '"POST /v1/trades"' || fail "metrics missing trade endpoint"
curl -fs "$BASE/v1/metrics" | grep -q 'market/smoke/trade' || fail "metrics missing per-market series"

# Graceful shutdown on SIGTERM exits 0.
kill -TERM "$PID"
if ! wait "$PID"; then
    fail "server exited non-zero on SIGTERM"
fi
PID=""

# Per-market persistence: boot with -snapshot-dir, trade in a named market,
# SIGTERM, reboot from the directory — every market must come back.
"$BIN" -addr "$ADDR" -demo 3 -snapshot-dir "$SNAPDIR" >"$LOG" 2>&1 &
PID=$!
wait_healthy
curl -fs "$BASE/v2/markets" -d '{"id":"beta"}' >/dev/null || fail "dir-mode create failed"
curl -fs "$BASE/v2/markets/beta/sellers" -d '{"id":"b1","lambda":0.5,"synthetic_rows":80}' >/dev/null \
    || fail "dir-mode registration failed"
curl -fs "$BASE/v2/markets/beta/trades" -d '{"n":90,"v":0.8}' >/dev/null || fail "dir-mode trade failed"
curl -fs "$BASE/v1/trades" -d '{"n":120,"v":0.8}' >/dev/null || fail "dir-mode default trade failed"
kill -TERM "$PID"
wait "$PID" || fail "dir-mode server exited non-zero on SIGTERM"
PID=""
[ -s "$SNAPDIR/beta.json" ] || fail "no per-market snapshot for beta"
[ -s "$SNAPDIR/default.json" ] || fail "no per-market snapshot for default"
grep -q '"ledger"' "$SNAPDIR/default.json" || fail "default snapshot missing ledger"

"$BIN" -addr "$ADDR" -snapshot-dir "$SNAPDIR" >"$LOG" 2>&1 &
PID=$!
wait_healthy
curl -fs "$BASE/v2/markets/beta/trades" | grep -q '"round": *1' \
    || fail "beta ledger lost across dir-mode restart"
curl -fs "$BASE/v1/trades" | grep -q '"round": *1' \
    || fail "default ledger lost across dir-mode restart"

# Crash recovery: trade again so the newest round lives only in the
# write-ahead log (the snapshot on disk still ends at round 1), verify the
# WAL series are live in /v1/metrics, then kill -9 — no drain, no SaveAll —
# and reboot. Replay must reconstruct the post-snapshot round from the WAL.
curl -fs "$BASE/v2/markets/beta/trades" -d '{"n":110,"v":0.8}' | grep -q '"round": *2' \
    || fail "pre-crash beta trade failed"
curl -fs "$BASE/v1/metrics" | grep -q '"wal/fsyncs"' || fail "metrics missing wal/fsyncs counter"
[ -s "$SNAPDIR/beta.wal" ] || fail "no WAL segment for beta before crash"
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
PID=""

"$BIN" -addr "$ADDR" -snapshot-dir "$SNAPDIR" >"$LOG" 2>&1 &
PID=$!
wait_healthy
curl -fs "$BASE/v2/markets/beta/trades" | grep -q '"round": *2' \
    || fail "WAL replay lost the post-snapshot round after kill -9"
curl -fs "$BASE/v1/trades" | grep -q '"round": *1' \
    || fail "default ledger lost across crash reboot"
kill -TERM "$PID"
wait "$PID" || fail "crash-recovered server exited non-zero on SIGTERM"
PID=""

# Saturating traffic: a short share-loadgen run (self-hosted server, full
# HTTP stack) must finish with the quote SLO intact — the binary exits
# non-zero when loaded quote p99 exceeds 2x unloaded — and emit the
# machine-readable report.
echo "serve-smoke: running share-loadgen saturation phase"
go run ./cmd/share-loadgen -out "$WORK/bench" -markets 2 -sellers 3 -rows 300 \
    -product ols -trade-n 800 -trade-burst 1 -trade-pause 100ms -duration 1s \
    >"$LOG" 2>&1 || fail "share-loadgen run failed (SLO or transport)"
[ -s "$WORK/bench/loadgen.json" ] || fail "share-loadgen wrote no report"
grep -q '"within_2x": true' "$WORK/bench/loadgen.json" \
    || fail "share-loadgen report missing SLO verdict"
grep -q '"server_admission"' "$WORK/bench/loadgen.json" \
    || fail "share-loadgen report missing admission counters"

echo "serve-smoke: OK (quote, trade, metrics, v2 lifecycle, graceful shutdown, snapshot-dir restore, kill -9 WAL replay, loadgen saturation)"
