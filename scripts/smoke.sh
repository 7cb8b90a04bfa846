#!/usr/bin/env bash
# Smoke test: boot a real ctxmwd with an ops endpoint, scrape /metrics
# and /healthz over HTTP, fail on malformed Prometheus exposition output
# (validated by `smoke promcheck`), then run the clustering legs: a
# 2-shard router round-trip, a leader/follower kill-and-promote, a
# self-fenced stale leader shedding writes, and a failover-aware router
# re-pointing a replica set at its promoted member.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
log="$workdir/ctxmwd.log"
pids=()
cleanup() {
    [[ -n "${pid:-}" ]] && kill "$pid" 2>/dev/null || true
    for p in ${pids[@]+"${pids[@]}"}; do kill "$p" 2>/dev/null || true; done
    for p in ${tpids[@]+"${tpids[@]}"}; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true # let the daemons release the workdir before rm
    rm -rf "$workdir"
}
trap cleanup EXIT

# wait_line LOG SED_PATTERN: poll LOG until SED_PATTERN extracts a value
# (a serving address, usually) and echo it; fail after ~15s.
wait_line() {
    local log=$1 pat=$2 got="" i
    for i in $(seq 1 150); do
        got=$(sed -n "$pat" "$log" | head -1)
        [[ -n "$got" ]] && { echo "$got"; return 0; }
        sleep 0.1
    done
    echo "smoke: timed out waiting on $log for: $pat" >&2
    cat "$log" >&2
    return 1
}

# Build the daemon and the client-side helpers once; every leg below runs
# these two binaries.
go build -o "$workdir/ctxmwd" ./cmd/ctxmwd
go build -o "$workdir/smoke" ./scripts/smoke
# The first daemon runs with every admission gate on (queue cap, check
# watchdog, source breakers), so each stays on a path the smoke exercises.
"$workdir/ctxmwd" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -data-dir "$workdir/wal" -fsync always \
    -max-pending 64 -check-timeout 2s -breaker-trip 0.9 >"$log" 2>&1 &
pid=$!

maddr=""
for _ in $(seq 1 100); do
    maddr=$(sed -n 's/^ctxmwd: metrics on //p' "$log" | head -1)
    [[ -n "$maddr" ]] && break
    kill -0 "$pid" 2>/dev/null || { echo "smoke: ctxmwd died:"; cat "$log"; exit 1; }
    sleep 0.1
done
if [[ -z "$maddr" ]]; then
    echo "smoke: ctxmwd never logged its metrics address:"
    cat "$log"
    exit 1
fi
echo "smoke: ops endpoint on $maddr"

health=$(curl -fsS "http://$maddr/healthz")
if [[ "$health" != ok* ]]; then
    echo "smoke: /healthz said: $health"
    exit 1
fi

curl -fsS "http://$maddr/metrics" >"$workdir/metrics.txt"
"$workdir/smoke" promcheck <"$workdir/metrics.txt"
for metric in ctxres_submits_total ctxres_uptime_seconds ctxres_requests_total ctxres_breaker_open_sources; do
    if ! grep -q "^$metric " "$workdir/metrics.txt"; then
        echo "smoke: /metrics missing $metric"
        exit 1
    fi
done

curl -fsS "http://$maddr/statusz" | grep -q goVersion || {
    echo "smoke: /statusz missing build info"
    exit 1
}

# Subscriber leg: subscribe over the wire, submit a matching context, and
# require one pushed activation within 5s.
daddr=$(sed -n 's/^ctxmwd: serving .* on \([0-9.:]*\) .*/\1/p' "$log" | head -1)
if [[ -z "$daddr" ]]; then
    echo "smoke: ctxmwd never logged its serving address:"
    cat "$log"
    exit 1
fi
"$workdir/smoke" subsmoke "$daddr"

kill -TERM "$pid"
wait "$pid" || { echo "smoke: ctxmwd exited nonzero on SIGTERM:"; cat "$log"; exit 1; }
pid=""

serving_pat='s/^ctxmwd: serving .* on \([0-9.:]*\) .*/\1/p'

# Cluster leg 1: two shard daemons behind a -router gateway. Submit two
# sources through the router and read the subject back through it.
"$workdir/ctxmwd" -addr 127.0.0.1:0 >"$workdir/shard1.log" 2>&1 &
pids+=($!)
"$workdir/ctxmwd" -addr 127.0.0.1:0 >"$workdir/shard2.log" 2>&1 &
pids+=($!)
s1=$(wait_line "$workdir/shard1.log" "$serving_pat")
s2=$(wait_line "$workdir/shard2.log" "$serving_pat")
"$workdir/ctxmwd" -addr 127.0.0.1:0 -router -shards "$s1,$s2" >"$workdir/router.log" 2>&1 &
pids+=($!)
raddr=$(wait_line "$workdir/router.log" 's/^ctxmwd: routing .* on \([0-9.:]*\) .*/\1/p')
echo "smoke: router on $raddr (shards $s1 $s2)"
"$workdir/smoke" clustersmoke seed "$raddr"
"$workdir/smoke" clustersmoke verify "$raddr"

# Cluster leg 2: journaled leader, replicating follower with
# auto-promote. Seed the leader, wait until the follower's replication
# lag drains, kill the leader, and read back from the promoted follower
# through the client's fallback dialing (dead leader listed first).
"$workdir/ctxmwd" -addr 127.0.0.1:0 -data-dir "$workdir/leader-wal" -fsync always \
    >"$workdir/leader.log" 2>&1 &
lpid=$!
pids+=($lpid)
laddr=$(wait_line "$workdir/leader.log" "$serving_pat")
"$workdir/ctxmwd" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -follow "$laddr" -data-dir "$workdir/follower-wal" -promote-after 1s \
    >"$workdir/follower.log" 2>&1 &
pids+=($!)
wait_line "$workdir/follower.log" 's/^ctxmwd: following \([0-9.:]*\) .*/\1/p' >/dev/null
fops=$(wait_line "$workdir/follower.log" 's/^ctxmwd: metrics on //p')
"$workdir/smoke" clustersmoke seed "$laddr"
caught_up=""
for _ in $(seq 1 100); do
    status=$(curl -fsS "http://$fops/statusz" || true)
    if [[ "$status" == *'"lagRecords": 0'* && "$status" != *'"lastSeq": 0'* ]]; then
        caught_up=yes
        break
    fi
    sleep 0.1
done
[[ -n "$caught_up" ]] || { echo "smoke: follower never caught up"; cat "$workdir/follower.log"; exit 1; }
kill -TERM "$lpid"
wait "$lpid" || { echo "smoke: leader exited nonzero on SIGTERM:"; cat "$workdir/leader.log"; exit 1; }
promoted_pat='s/^ctxmwd: promoted to leader at epoch [0-9]*, serving .* on \([0-9.:]*\)$/\1/p'
faddr=$(wait_line "$workdir/follower.log" "$promoted_pat")
echo "smoke: follower promoted on $faddr"
"$workdir/smoke" clustersmoke verify "$laddr" "$faddr"

# Fencing leg: resurrect the killed leader from its own WAL with a short
# -lease-ttl and no followers. Nothing acks, so one TTL after boot the
# lease lapses and the daemon must shed writes with the typed
# stale-leader code while still answering reads.
"$workdir/ctxmwd" -addr 127.0.0.1:0 -data-dir "$workdir/leader-wal" \
    -lease-ttl 300ms >"$workdir/oldleader.log" 2>&1 &
pids+=($!)
oaddr=$(wait_line "$workdir/oldleader.log" "$serving_pat")
sleep 0.5 # burn the one-TTL boot grace
"$workdir/smoke" clustersmoke fenced "$oaddr"
echo "smoke: resurrected leader on $oaddr self-fenced"

# Cluster leg 3: failover-aware routing. A replica-set shard
# ("primary|replica") behind the router, with the replica a real
# replicating follower whose serving port is reserved up front. Kill the
# primary: the follower auto-promotes, the router's probe loop re-points
# the shard at it, reads through the router succeed again, and the
# router's metrics show the failover.
fport=$("$workdir/smoke" freeport)
"$workdir/ctxmwd" -addr 127.0.0.1:0 -data-dir "$workdir/rleader-wal" \
    >"$workdir/rleader.log" 2>&1 &
rlpid=$!
pids+=($rlpid)
rladdr=$(wait_line "$workdir/rleader.log" "$serving_pat")
"$workdir/ctxmwd" -addr "$fport" -metrics-addr 127.0.0.1:0 \
    -follow "$rladdr" -data-dir "$workdir/rfollower-wal" -promote-after 1s \
    >"$workdir/rfollower.log" 2>&1 &
pids+=($!)
rfops=$(wait_line "$workdir/rfollower.log" 's/^ctxmwd: metrics on //p')
"$workdir/ctxmwd" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -router -shards "$rladdr|$fport" >"$workdir/frouter.log" 2>&1 &
pids+=($!)
fraddr=$(wait_line "$workdir/frouter.log" 's/^ctxmwd: routing .* on \([0-9.:]*\) .*/\1/p')
frops=$(wait_line "$workdir/frouter.log" 's/^ctxmwd: metrics on //p')
echo "smoke: failover router on $fraddr (replica set $rladdr|$fport)"
"$workdir/smoke" clustersmoke seed "$fraddr"
caught_up=""
for _ in $(seq 1 100); do
    status=$(curl -fsS "http://$rfops/statusz" || true)
    if [[ "$status" == *'"lagRecords": 0'* && "$status" != *'"lastSeq": 0'* ]]; then
        caught_up=yes
        break
    fi
    sleep 0.1
done
[[ -n "$caught_up" ]] || { echo "smoke: replica never caught up"; cat "$workdir/rfollower.log"; exit 1; }
kill -TERM "$rlpid"
wait "$rlpid" || { echo "smoke: primary exited nonzero on SIGTERM:"; cat "$workdir/rleader.log"; exit 1; }
wait_line "$workdir/rfollower.log" "$promoted_pat" >/dev/null
routed=""
for _ in $(seq 1 100); do
    if "$workdir/smoke" clustersmoke verify "$fraddr" >/dev/null 2>&1; then
        routed=yes
        break
    fi
    sleep 0.1
done
[[ -n "$routed" ]] || {
    echo "smoke: router never re-pointed the replica set at the promoted member"
    cat "$workdir/frouter.log"
    exit 1
}
"$workdir/smoke" clustersmoke verify "$fraddr"
# The verify above can succeed through the shard client's own dial
# fallback before the probe loop's first counted re-point, so poll the
# failover counter rather than reading it once.
failovers=""
for _ in $(seq 1 150); do
    curl -fsS "http://$frops/metrics" >"$workdir/router-metrics.txt" || true
    failovers=$(sed -n 's/^ctxres_router_failovers_total //p' "$workdir/router-metrics.txt")
    [[ -n "$failovers" && "$failovers" != 0 ]] && break
    failovers=""
    sleep 0.1
done
if [[ -z "$failovers" ]]; then
    echo "smoke: ctxres_router_failovers_total never incremented"
    cat "$workdir/router-metrics.txt"
    exit 1
fi
echo "smoke: router failed over ($failovers recorded)"
# The router is served by the same connection loop as a daemon, so the
# scrape just polled must be a valid exposition carrying the loop's
# transport and per-op request instruments.
"$workdir/smoke" promcheck <"$workdir/router-metrics.txt"
for metric in ctxres_requests_total 'ctxres_request_seconds_count{op="use-latest"}'; do
    if ! grep -qF "$metric " "$workdir/router-metrics.txt"; then
        echo "smoke: router /metrics missing $metric"
        cat "$workdir/router-metrics.txt"
        exit 1
    fi
done

# Tracing leg: a traced conflicting submission through a mirroring router
# backed by a journaled shard with a replicating follower must come back
# out of ctxspan as one tree spanning all four processes — gateway fan-out,
# shard pipeline with its resolution, and the replication hop.
"$workdir/ctxmwd" -addr 127.0.0.1:0 -data-dir "$workdir/tshard1-wal" \
    -span-log "$workdir/shard1.spans" >"$workdir/tshard1.log" 2>&1 &
tpids=($!)
"$workdir/ctxmwd" -addr 127.0.0.1:0 -span-log "$workdir/shard2.spans" \
    >"$workdir/tshard2.log" 2>&1 &
tpids+=($!)
ts1=$(wait_line "$workdir/tshard1.log" "$serving_pat")
ts2=$(wait_line "$workdir/tshard2.log" "$serving_pat")
"$workdir/ctxmwd" -addr 127.0.0.1:0 -router -shards "$ts1,$ts2" \
    -span-log "$workdir/router.spans" -trace-sample 1.0 >"$workdir/trouter.log" 2>&1 &
tpids+=($!)
traddr=$(wait_line "$workdir/trouter.log" 's/^ctxmwd: routing .* on \([0-9.:]*\) .*/\1/p')
"$workdir/ctxmwd" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -follow "$ts1" -data-dir "$workdir/tfollower-wal" \
    -span-log "$workdir/follower.spans" >"$workdir/tfollower.log" 2>&1 &
tpids+=($!)
tfops=$(wait_line "$workdir/tfollower.log" 's/^ctxmwd: metrics on //p')
echo "smoke: traced router on $traddr (shards $ts1 $ts2)"

tid=$("$workdir/smoke" tracesmoke "$traddr" "$ts1" "$ts2")
echo "smoke: traced submission $tid"

caught_up=""
for _ in $(seq 1 100); do
    status=$(curl -fsS "http://$tfops/statusz" || true)
    if [[ "$status" == *'"lagRecords": 0'* && "$status" != *'"lastSeq": 0'* ]]; then
        caught_up=yes
        break
    fi
    sleep 0.1
done
[[ -n "$caught_up" ]] || { echo "smoke: traced follower never caught up"; cat "$workdir/tfollower.log"; exit 1; }

# Span logs flush on graceful shutdown; stop the whole topology before
# reading them.
for p in "${tpids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
for p in "${tpids[@]}"; do wait "$p" || true; done

go run ./cmd/ctxspan -trace "$tid" \
    "$workdir/router.spans" "$workdir/shard1.spans" "$workdir/shard2.spans" \
    "$workdir/follower.spans" >"$workdir/trace.txt"
for op in route_submit shard_submit mirror_submit submit repl_ship repl_apply; do
    grep -q "$op" "$workdir/trace.txt" || {
        echo "smoke: trace tree missing $op:"
        cat "$workdir/trace.txt"
        exit 1
    }
done
grep -q "resolved cf-" "$workdir/trace.txt" || {
    echo "smoke: trace tree missing the resolution provenance line:"
    cat "$workdir/trace.txt"
    exit 1
}
echo "smoke: trace tree spans router, shards, and follower"

echo "smoke: ok"
