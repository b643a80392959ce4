#!/usr/bin/env bash
# End-to-end smoke of `repro serve`: ephemeral port, tenant + rules,
# three row batches, a discovery job polled to success, then assert
# the violation counters and /metrics.
# CI runs this against the installed package; locally:
#     bash scripts/server_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

LOG=$(mktemp)
PYTHONPATH=src python -m repro.cli serve --port 0 2>"$LOG" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

PORT=""
for _ in $(seq 1 100); do
    PORT=$(grep -o 'serving on 127\.0\.0\.1:[0-9]*' "$LOG" \
        | head -1 | grep -o '[0-9]*$' || true)
    [ -n "$PORT" ] && break
    sleep 0.1
done
if [ -z "$PORT" ]; then
    echo "server did not start; log:" >&2
    cat "$LOG" >&2
    exit 1
fi
BASE="http://127.0.0.1:$PORT"
echo "server up on $BASE"

# Batch POSTs retry on 429/503 with exponential backoff + full jitter,
# honoring the server's Retry-After hint when it sheds load (overload
# protection returns 429 rather than queueing unboundedly; a polite
# client backs off instead of hammering).  Pattern documented in
# docs/server.md under "Backpressure and load shedding".
post_with_retry() {  # post_with_retry URL JSON_BODY
    local url=$1 data=$2 attempt status hdrs hint delay
    for attempt in 1 2 3 4 5 6; do
        hdrs=$(mktemp)
        status=$(curl -sS -o /dev/null -D "$hdrs" -w '%{http_code}' \
            -X POST "$url" -H 'Content-Type: application/json' \
            -d "$data" || echo 000)
        hint=$(awk 'tolower($1)=="retry-after:" {gsub("\r","",$2); print $2}' \
            "$hdrs")
        rm -f "$hdrs"
        case "$status" in
            2??) return 0 ;;
            429|503|000) ;;  # shed, unavailable, or connect failure
            *) echo "POST $url failed with HTTP $status" >&2; return 1 ;;
        esac
        # exponential base 0.2s * 2^(attempt-1), jittered to [50%,150%];
        # never undercut the server's own Retry-After.
        delay=$(awk -v a="$attempt" -v r="${hint:-0}" -v s="$RANDOM" \
            'BEGIN { d = 0.2 * 2^(a - 1) * (0.5 + s / 32767);
                     if (r + 0 > d) d = r; printf "%.2f", d }')
        echo "HTTP $status from $url; retry $attempt/6 in ${delay}s" >&2
        sleep "$delay"
    done
    echo "POST $url still shedding after 6 attempts" >&2
    return 1
}

curl -fsS "$BASE/healthz" >/dev/null

curl -fsS -X POST "$BASE/tenants" -H 'Content-Type: application/json' \
    -d '{"tenant":"smoke","schema":["city","zip",{"name":"price","type":"numerical"}]}' \
    >/dev/null

# A rule over an unknown attribute must be rejected with its DD code.
REJECT=$(curl -sS -o /dev/null -w '%{http_code}' -X PUT \
    "$BASE/tenants/smoke/rules" -H 'Content-Type: application/json' \
    -d '{"rules":[{"kind":"FD","lhs":["zip"],"rhs":["nope"]}]}')
[ "$REJECT" = "400" ] || { echo "expected 400, got $REJECT" >&2; exit 1; }
curl -sS -X PUT "$BASE/tenants/smoke/rules" \
    -H 'Content-Type: application/json' \
    -d '{"rules":[{"kind":"FD","lhs":["zip"],"rhs":["nope"]}]}' \
    | grep -q '"DD001"' || { echo "missing DD001 in lint body" >&2; exit 1; }

curl -fsS -X PUT "$BASE/tenants/smoke/rules" \
    -H 'Content-Type: application/json' \
    -d '{"rules":[{"kind":"FD","lhs":["zip"],"rhs":["city"]}]}' >/dev/null

# Three batches; the second introduces an FD violation on zip 10115.
post_with_retry "$BASE/tenants/smoke/batches" \
    '{"insert":[{"city":"Berlin","zip":"10115","price":9.5}]}'
post_with_retry "$BASE/tenants/smoke/batches" \
    '{"insert":[{"city":"Bonn","zip":"10115","price":4.0}]}'
post_with_retry "$BASE/tenants/smoke/batches" \
    '{"insert":[{"city":"Mainz","zip":"55116","price":7.25}]}'

curl -fsS "$BASE/tenants/smoke/violations" \
    | grep -q '"total_violations": 1' \
    || { echo "expected 1 cumulative violation" >&2; exit 1; }

# A discovery job over the tenant's rows: submit, poll until it
# leaves the queue, and require success with a non-empty rule list.
json_field() {  # json_field EXPR < JSON  (EXPR over the parsed body `d`)
    python -c "import json, sys; d = json.load(sys.stdin); print($1)"
}
JOB=$(curl -fsS -X POST "$BASE/tenants/smoke/jobs" \
    -H 'Content-Type: application/json' -d '{"type":"discovery"}' \
    | json_field 'd["job"]')
STATE=""
for _ in $(seq 1 200); do
    RECORD=$(curl -fsS "$BASE/jobs/$JOB")
    STATE=$(echo "$RECORD" | json_field 'd["state"]')
    [ "$STATE" = "queued" ] || [ "$STATE" = "running" ] || break
    sleep 0.1
done
[ "$STATE" = "succeeded" ] \
    || { echo "discovery job ended '$STATE': $RECORD" >&2; exit 1; }
RULES=$(echo "$RECORD" | json_field 'len(d["result"]["rules"])')
[ "$RULES" -gt 0 ] || { echo "discovery job found no rules" >&2; exit 1; }
echo "discovery job $JOB: $RULES rules"

METRICS=$(curl -fsS "$BASE/metrics")
for want in \
    'repro_batches_total{tenant="smoke"} 3' \
    'repro_rows_ingested_total{tenant="smoke"} 3' \
    'repro_violations_added_total{tenant="smoke"} 1' \
    'repro_violations{tenant="smoke"} 1' \
    'repro_requests_total{tenant="smoke",route="/tenants/{tenant}/batches",method="POST",status="200"} 3'
do
    echo "$METRICS" | grep -qF "$want" \
        || { echo "missing metric: $want" >&2; echo "$METRICS" >&2; exit 1; }
done

echo "server smoke OK"
