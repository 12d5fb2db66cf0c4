#!/bin/sh
# make cover: per-package statement coverage for the whole module, with hard
# floors on internal/solve — the solver-backend seam every consumer routes
# through — internal/pool — the multi-market engine behind the /v2 API —
# internal/wal — the write-ahead log every committed trade rides on —
# internal/numeric — the optimizer toolbox under every price search and
# best response of the general cascade — internal/market — the
# round-trip engine that owns roster churn and the weight trajectory —
# internal/budget — the ε-ledger every budgeted trade charges — and
# internal/valuation — the Shapley estimators behind every weight update.
set -eu

FLOOR=80.0

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

go test -cover ./... | tee "$out"

check_floor() {
    pkg="$1"
    pct=$(awk -v pkg="$pkg" '$0 ~ pkg { if (match($0, /coverage: [0-9.]+%/)) { s = substr($0, RSTART + 10, RLENGTH - 11); print s; exit } }' "$out")
    if [ -z "$pct" ]; then
        echo "cover: no coverage reported for $pkg" >&2
        exit 1
    fi
    if [ "$(awk -v p="$pct" -v f="$FLOOR" 'BEGIN { print (p + 0 >= f + 0) ? "ok" : "low" }')" != ok ]; then
        echo "cover: $pkg at ${pct}% is below the ${FLOOR}% floor" >&2
        exit 1
    fi
    echo "cover: $pkg at ${pct}% meets the ${FLOOR}% floor"
}

check_floor 'share/internal/solve'
check_floor 'share/internal/pool'
check_floor 'share/internal/wal'
check_floor 'share/internal/numeric'
check_floor 'share/internal/market'
check_floor 'share/internal/budget'
check_floor 'share/internal/valuation'
