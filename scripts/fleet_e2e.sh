#!/usr/bin/env bash
# Fleet end-to-end: boot 3 shards + a router on loopback and drive the whole
# sharded-serving story from outside the process boundary —
#
#   1. routed answers are byte-identical to every direct shard answer (and to
#      the checked-in golden),
#   2. killing a shard mid-`loadgen -router` run costs ZERO failed reads at
#      rf=2 (failover must hide the loss),
#   3. a shard's unknown-dataset 404 carries the ring owner's address,
#   4. an empty 4th shard bootstraps purely by snapshot streaming (adopt),
#      then serves the same bytes,
#   5. POST /admin/ring rebalances onto the new shard set and routed reads
#      keep answering the golden bytes,
#   6. `currents append` lands through the router and reports the new epoch,
#   7. chaos drills: a second mini-fleet runs behind `currents chaos`
#      fault-injection proxies, and a resilience-tuned router must hide a
#      slow (+500 ms) shard, a blackholed shard (zero failed reads, bounded
#      p99, breaker observed open, append fan-out failure repaired back to
#      lag 0 by the primary's delta — no adoption — with byte-identical
#      answers), and a flapping shard,
#   8. replicas apply the primary's epoch delta: on a persisting rf=2 pair,
#      routed source-major, object-major and new-source appends land on the
#      replica as deltas (currents_dataset_delta_appends_total), its segment
#      files are cmp-identical to the primary's, and after a restart — which
#      replays the segments by solving — it answers byte-identically.
#
#   scripts/fleet_e2e.sh [port-base]
#
# Shards listen on port-base+1..+4 (default 19001..19004), the router on
# port-base+80 (default 19080). The chaos fleet uses port-base+31..33
# (upstream shards), +41..43 (chaos proxies — these go on the ring),
# +51..53 (chaos admin), and +81 (the chaos router). The delta pair uses
# port-base+61..62 and its router port-base+82.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-19000}"
P1=$((BASE + 1)); P2=$((BASE + 2)); P3=$((BASE + 3)); P4=$((BASE + 4))
PR=$((BASE + 80))
S1="127.0.0.1:$P1"; S2="127.0.0.1:$P2"; S3="127.0.0.1:$P3"; S4="127.0.0.1:$P4"
ROUTER="http://127.0.0.1:$PR"

BIN="${CURRENTS_BIN:-/tmp/currents-fleet}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/fleet-e2e.XXXXXX")"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/currents

mkdir -p "$WORK"/s1 "$WORK"/s2 "$WORK"/s3 "$WORK"/s4
"$BIN" snapshot -o "$WORK"/s1/ci.snap internal/server/testdata/ci_claims.csv
cp "$WORK"/s1/ci.snap "$WORK"/s2/ci.snap
cp "$WORK"/s1/ci.snap "$WORK"/s3/ci.snap

# Every shard knows the ring, so a mis-aimed request 404s with the owner's
# address; -adopt-dir load lets the rebalancer stream worlds onto it.
RING="$S1,$S2,$S3"
start_shard() { # port dir self extra...
  local port="$1" dir="$2" self="$3"; shift 3
  "$BIN" server -addr "127.0.0.1:$port" -load "$dir" -adopt-dir load \
    -ring "$RING" -self "$self" "$@" 2>>"$WORK/shard-$port.log" &
  PIDS+=("$!")
}
start_shard "$P1" "$WORK/s1" "$S1"; SHARD1_PID="${PIDS[-1]}"
start_shard "$P2" "$WORK/s2" "$S2"; SHARD2_PID="${PIDS[-1]}"
start_shard "$P3" "$WORK/s3" "$S3"; SHARD3_PID="${PIDS[-1]}"

wait_ready() { # url
  for _ in $(seq 1 75); do
    curl -fs "$1" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "fleet_e2e: $1 never became ready" >&2
  return 1
}
wait_ready "http://$S1/readyz"
wait_ready "http://$S2/readyz"
wait_ready "http://$S3/readyz"

"$BIN" router -addr "127.0.0.1:$PR" -shards "$RING" -rf 2 2>>"$WORK/router.log" &
PIDS+=("$!")
wait_ready "$ROUTER/healthz"

REQ=internal/server/testdata/ci_answer_request.json
GOLDEN=internal/server/testdata/ci_answer_golden.json

# --- 1. Golden byte-diff: routed vs every direct shard vs the checked-in file.
curl -fs -X POST --data-binary @"$REQ" "$ROUTER/v1/ci/answer" > "$WORK/routed.json"
diff "$GOLDEN" "$WORK/routed.json"
for s in "$S1" "$S2" "$S3"; do
  curl -fs -X POST --data-binary @"$REQ" "http://$s/v1/ci/answer" > "$WORK/direct.json"
  diff "$WORK/routed.json" "$WORK/direct.json"
done
echo "fleet_e2e: routed answers byte-identical to direct (3 shards) and golden"

# --- 2. Kill a shard mid-run: rf=2 failover must hide it (zero failed reads).
"$BIN" loadgen -addr "$ROUTER" -dataset ci -router \
  -query "Dong,affiliation;Carey,affiliation" -concurrency 4 -duration 6s \
  > "$WORK/loadgen.txt" 2>&1 &
LOADGEN_PID="$!"
sleep 2
kill -9 "$SHARD3_PID"
echo "fleet_e2e: killed shard $S3 mid-run"
wait "$LOADGEN_PID"   # loadgen -router exits nonzero on any failed read
grep 'router mode PASS: zero failed reads' "$WORK/loadgen.txt"
cat "$WORK/loadgen.txt"

# --- 3. Unknown-dataset 404 carries the ring owner's address.
curl -s "http://$S1/v1/nosuchworld/accuracy" > "$WORK/404.json" || true
grep -q 'owned by' "$WORK/404.json"
grep -q '"owner"' "$WORK/404.json"
echo "fleet_e2e: non-owner 404 carries the owner hint"

# --- 4. Replica bootstrap purely by snapshot streaming: an empty shard
#        adopts the world from a peer and serves identical bytes.
start_shard "$P4" "$WORK/s4" "$S4" -allow-empty
wait_ready "http://$S4/readyz"
ADOPT="$(curl -fs -X POST "http://$S4/v1/ci/adopt?from=http://$S1/v1/ci/snapshot")"
echo "$ADOPT" | grep -q '"status":"adopted"'
curl -fs -X POST --data-binary @"$REQ" "http://$S4/v1/ci/answer" > "$WORK/adopted.json"
diff "$GOLDEN" "$WORK/adopted.json"
echo "fleet_e2e: empty shard bootstrapped by snapshot streaming, answers match golden"

# --- 5. Rebalance onto the surviving shard set and keep serving golden bytes.
curl -fs -X POST -d "{\"shards\":[\"$S1\",\"$S2\",\"$S4\"]}" "$ROUTER/admin/ring" > "$WORK/ring.json"
grep -q '"shards"' "$WORK/ring.json"
curl -fs -X POST --data-binary @"$REQ" "$ROUTER/v1/ci/answer" > "$WORK/rebalanced.json"
diff "$GOLDEN" "$WORK/rebalanced.json"
curl -fs "$ROUTER/metrics" | grep '^currents_router_ring_changes_total 1$'
echo "fleet_e2e: rebalanced ring still serves golden bytes through the router"

# --- 6. Append lands through the router and reports the new epoch.
"$BIN" append -addr "$ROUTER" -dataset ci internal/server/testdata/ci_claims.csv \
  2> "$WORK/append.txt"
grep -q 'epoch 1' "$WORK/append.txt"
curl -fs -X POST --data-binary @"$REQ" "$ROUTER/v1/ci/answer" >/dev/null
echo "fleet_e2e: append through the router advanced the dataset to epoch 1"

# --- 7. Chaos drills: a fresh mini-fleet behind fault-injection proxies.
#
# The proxy addresses (not the shards') go on the ring, so every routed hop
# crosses a proxy whose faults flip at runtime via its admin port. Dataset
# names are chosen from the precomputed placement so D1's PRIMARY and D2's
# REPLICA both sit behind the same proxy — the one we fault.
U1=$((BASE + 31)); U2=$((BASE + 32)); U3=$((BASE + 33))
CP1=$((BASE + 41)); CP2=$((BASE + 42)); CP3=$((BASE + 43))
CA1=$((BASE + 51))
PR2=$((BASE + 81))
PA="127.0.0.1:$CP1"
CRING="127.0.0.1:$CP1,127.0.0.1:$CP2,127.0.0.1:$CP3"
ROUTER2="http://127.0.0.1:$PR2"

# shellcheck disable=SC2046
"$BIN" ring -shards "$CRING" -rf 2 $(for i in $(seq -w 0 63); do printf 'c%s ' "$i"; done) \
  > "$WORK/placements.txt"
D1="$(awk -v p="$PA" '$2 == p { print $1; exit }' "$WORK/placements.txt")"
D2="$(awk -v p="$PA" '$3 == p { print $1; exit }' "$WORK/placements.txt")"
D2PRIMARY="$(awk -v d="$D2" '$1 == d { print $2; exit }' "$WORK/placements.txt")"
[ -n "$D1" ] && [ -n "$D2" ] && [ -n "$D2PRIMARY" ]
echo "fleet_e2e: chaos datasets $D1 (primary behind $PA), $D2 (replica behind $PA, primary $D2PRIMARY)"

mkdir -p "$WORK"/c1 "$WORK"/c2 "$WORK"/c3
"$BIN" snapshot -o "$WORK/c1/$D1.snap" internal/server/testdata/ci_claims.csv
"$BIN" snapshot -o "$WORK/c1/$D2.snap" internal/server/testdata/ci_claims.csv
cp "$WORK/c1/$D1.snap" "$WORK/c2/"; cp "$WORK/c1/$D2.snap" "$WORK/c2/"
cp "$WORK/c1/$D1.snap" "$WORK/c3/"; cp "$WORK/c1/$D2.snap" "$WORK/c3/"

for i in 1 2 3; do
  uport_var="U$i"; cport_var="CP$i"
  uport="${!uport_var}"; cport="${!cport_var}"
  "$BIN" server -addr "127.0.0.1:$uport" -load "$WORK/c$i" -adopt-dir load \
    -ring "$CRING" -self "127.0.0.1:$cport" 2>>"$WORK/chaos-shard-$i.log" &
  PIDS+=("$!")
  "$BIN" chaos -listen "127.0.0.1:$cport" -upstream "127.0.0.1:$uport" \
    -admin "127.0.0.1:$((BASE + 50 + i))" 2>>"$WORK/chaos-proxy-$i.log" &
  PIDS+=("$!")
done
wait_ready "http://127.0.0.1:$CP1/readyz"
wait_ready "http://127.0.0.1:$CP2/readyz"
wait_ready "http://127.0.0.1:$CP3/readyz"

"$BIN" router -addr "127.0.0.1:$PR2" -shards "$CRING" -rf 2 \
  -try-timeout 1s -probe-timeout 1s -breaker-threshold 3 -breaker-cooldown 2s \
  -hedge-delay 100ms -retry-budget 0.5 -repair-interval 1s -repair-timeout 5s \
  -seed 1 2>>"$WORK/router2.log" &
PIDS+=("$!")
wait_ready "$ROUTER2/healthz"

set_fault() { # admin-port faults-json ('{}' lifts everything)
  curl -fs -X POST -d "$2" "http://127.0.0.1:$1/faults" >/dev/null
}
p99_ms() { # loadgen-output-file -> client-side p99 as integer milliseconds
  awk '/^latency:/ { for (i = 1; i < NF; i++) if ($i == "p99") v = $(i + 1) }
       END {
         if (v ~ /µs$/)            { sub(/µs$/, "", v); printf "%d", v / 1000 }
         else if (v ~ /ms$/)       { sub(/ms$/, "", v); printf "%d", v }
         else if (v ~ /^[0-9.]+s$/) { sub(/s$/, "", v);  printf "%d", v * 1000 }
         else printf "999999"
       }' "$1"
}

# Fault-free warmup: routed chaos-fleet answers still match the golden.
curl -fs -X POST --data-binary @"$REQ" "$ROUTER2/v1/$D1/answer" > "$WORK/chaos-warm.json"
diff "$GOLDEN" "$WORK/chaos-warm.json"
curl -fs -X POST --data-binary @"$REQ" "$ROUTER2/v1/$D2/answer" > "$WORK/chaos-warm2.json"
diff "$GOLDEN" "$WORK/chaos-warm2.json"

# --- 7a. Slow shard: +500ms on D1's primary. Hedged reads must hide the
#         delay — zero failed reads and p99 bounded by 2x the try timeout.
set_fault "$CA1" '{"latency_ms":500}'
"$BIN" loadgen -addr "$ROUTER2" -dataset "$D1" -router \
  -query "Dong,affiliation;Carey,affiliation" -concurrency 4 -duration 4s \
  > "$WORK/chaos-slow.txt" 2>&1
grep 'router mode PASS: zero failed reads' "$WORK/chaos-slow.txt"
grep 'router resilience:' "$WORK/chaos-slow.txt"
if grep 'router resilience:' "$WORK/chaos-slow.txt" | grep -q ' 0 hedged '; then
  echo "fleet_e2e: slow-shard run fired no hedges" >&2; exit 1
fi
P99="$(p99_ms "$WORK/chaos-slow.txt")"
if [ "$P99" -gt 2000 ]; then
  echo "fleet_e2e: slow-shard p99 ${P99}ms exceeds 2000ms (2x try-timeout)" >&2; exit 1
fi
set_fault "$CA1" '{}'
echo "fleet_e2e: slow shard hidden by hedged reads (p99 ${P99}ms)"

# --- 7b. Blackholed shard: accepts connections, never answers — the gray
#         failure. Reads must stay clean and bounded, the breaker must trip
#         open, and an append whose replica fan-out dies behind the fault
#         must heal via the repair loop once the fault lifts.
set_fault "$CA1" '{"blackhole":true}'
"$BIN" loadgen -addr "$ROUTER2" -dataset "$D1" -router \
  -query "Dong,affiliation;Carey,affiliation" -concurrency 4 -duration 5s \
  > "$WORK/chaos-hole.txt" 2>&1
grep 'router mode PASS: zero failed reads' "$WORK/chaos-hole.txt"
P99="$(p99_ms "$WORK/chaos-hole.txt")"
if [ "$P99" -gt 2000 ]; then
  echo "fleet_e2e: blackhole p99 ${P99}ms exceeds 2000ms (2x try-timeout)" >&2; exit 1
fi
for _ in $(seq 1 40); do
  curl -fs "$ROUTER2/metrics" > "$WORK/chaos-metrics.txt"
  grep -q "currents_router_breaker_state{shard=\"$PA\"} 2" "$WORK/chaos-metrics.txt" && break
  sleep 0.25
done
grep "currents_router_breaker_state{shard=\"$PA\"} 2" "$WORK/chaos-metrics.txt"
grep -q '^currents_router_breaker_trips_total [1-9]' "$WORK/chaos-metrics.txt"
echo "fleet_e2e: blackholed shard tripped its breaker (p99 ${P99}ms, zero failed reads)"

# Append to D2: the primary (healthy proxy) accepts, the replica behind the
# blackhole misses the epoch — the failure must be counted, reported, and
# visible as replica lag once the prober refreshes the primary's epoch.
"$BIN" append -addr "$ROUTER2" -dataset "$D2" internal/server/testdata/ci_claims.csv \
  2> "$WORK/chaos-append.txt"
grep -q 'epoch 1' "$WORK/chaos-append.txt"
curl -fs "$ROUTER2/metrics" > "$WORK/chaos-metrics.txt"
grep -q '^currents_replica_append_failures_total [1-9]' "$WORK/chaos-metrics.txt"
for _ in $(seq 1 40); do
  curl -fs "$ROUTER2/metrics" > "$WORK/chaos-metrics.txt"
  grep -q "currents_replica_lag{dataset=\"$D2\",shard=\"$PA\"} 1" "$WORK/chaos-metrics.txt" && break
  sleep 0.25
done
grep "currents_replica_lag{dataset=\"$D2\",shard=\"$PA\"} 1" "$WORK/chaos-metrics.txt"

# Lift the fault: the repair loop must append the primary's delta since the
# lagging replica's epoch — the fan-out's mechanism, not a snapshot adoption —
# and drive the lag gauge back to 0. The shard's own counters are read past
# the blackholed proxy, from its upstream.
delta_bytes() { curl -fs "$ROUTER2/metrics" | awk '/^currents_router_replica_delta_bytes_total /{ print $2 }'; }
adopts() { curl -fs "http://127.0.0.1:$U1/metrics" | grep '^currents_requests_total{op="adopt"}'; }
DBYTES_BEFORE="$(delta_bytes)"; ADOPTS_BEFORE="$(adopts)"
set_fault "$CA1" '{}'
for _ in $(seq 1 60); do
  curl -fs "$ROUTER2/metrics" > "$WORK/chaos-metrics.txt"
  grep -q "currents_replica_lag{dataset=\"$D2\",shard=\"$PA\"} 0" "$WORK/chaos-metrics.txt" && break
  sleep 0.5
done
grep "currents_replica_lag{dataset=\"$D2\",shard=\"$PA\"} 0" "$WORK/chaos-metrics.txt"
grep -q '^currents_router_repairs_total [1-9]' "$WORK/chaos-metrics.txt"
DBYTES_AFTER="$(delta_bytes)"; ADOPTS_AFTER="$(adopts)"
if [ "$DBYTES_AFTER" -le "$DBYTES_BEFORE" ]; then
  echo "fleet_e2e: the heal streamed no delta ($DBYTES_BEFORE -> $DBYTES_AFTER bytes)" >&2; exit 1
fi
if [ "$ADOPTS_AFTER" != "$ADOPTS_BEFORE" ]; then
  echo "fleet_e2e: the heal adopted a snapshot ($ADOPTS_BEFORE -> $ADOPTS_AFTER)" >&2; exit 1
fi
# The healed replica serves the repaired epoch byte-identically to the
# primary — through both proxies, pinned with ?as_of.
curl -fs -X POST --data-binary @"$REQ" "http://$D2PRIMARY/v1/$D2/answer?as_of=1" > "$WORK/chaos-primary.json"
curl -fs -X POST --data-binary @"$REQ" "http://$PA/v1/$D2/answer?as_of=1" > "$WORK/chaos-healed.json"
diff "$WORK/chaos-primary.json" "$WORK/chaos-healed.json"
echo "fleet_e2e: blackholed replica repaired by delta to lag 0, no adoption, answers byte-identical to primary"

# --- 7c. Flapping shard: the fault toggles every ~700ms for the whole run.
#         Breaker plus retries must still deliver zero failed reads.
(
  for _ in $(seq 1 5); do
    set_fault "$CA1" '{"error_prob":1}'; sleep 0.7
    set_fault "$CA1" '{}'; sleep 0.7
  done
) &
FLAP_PID="$!"
"$BIN" loadgen -addr "$ROUTER2" -dataset "$D1" -router \
  -query "Dong,affiliation;Carey,affiliation" -concurrency 4 -duration 6s \
  > "$WORK/chaos-flap.txt" 2>&1
wait "$FLAP_PID" || true
set_fault "$CA1" '{}'
grep 'router mode PASS: zero failed reads' "$WORK/chaos-flap.txt"
grep 'router resilience:' "$WORK/chaos-flap.txt"
echo "fleet_e2e: flapping shard hidden (zero failed reads across 10 fault flips)"

# --- 8. Replicas apply the primary's delta instead of solving. A fresh rf=2
#        pair persists appends as segments into its load directories, so a
#        restarted replica rebuilds its world by solving every segment — the
#        end-to-end check that delta application equals the solve.
D1P=$((BASE + 61)); D2P=$((BASE + 62)); DRPORT=$((BASE + 82))
DRING="127.0.0.1:$D1P,127.0.0.1:$D2P"
ROUTER3="http://127.0.0.1:$DRPORT"
read -r _ DPRIMARY DREPLICA < <("$BIN" ring -shards "$DRING" -rf 2 ci)
mkdir -p "$WORK/d/$DPRIMARY" "$WORK/d/$DREPLICA"
"$BIN" snapshot -o "$WORK/d/$DPRIMARY/ci.snap" internal/server/testdata/ci_claims.csv
cp "$WORK/d/$DPRIMARY/ci.snap" "$WORK/d/$DREPLICA/ci.snap"
start_delta_shard() { # addr
  "$BIN" server -addr "$1" -load "$WORK/d/$1" -persist-appends load \
    2>>"$WORK/delta-shard-${1##*:}.log" &
  PIDS+=("$!")
}
start_delta_shard "$DPRIMARY"
start_delta_shard "$DREPLICA"; DREPLICA_PID="${PIDS[-1]}"
wait_ready "http://$DPRIMARY/readyz"
wait_ready "http://$DREPLICA/readyz"
"$BIN" router -addr "127.0.0.1:$DRPORT" -shards "$DRING" -rf 2 2>>"$WORK/router3.log" &
PIDS+=("$!")
wait_ready "$ROUTER3/healthz"

printf 'S3,Dong,affiliation,MSR\nS3,Carey,affiliation,BEA\n' > "$WORK/delta-src.csv"
printf 'S1,Halevy,affiliation,UW\nS2,Halevy,affiliation,UW\nS3,Halevy,affiliation,Google\nS4,Halevy,affiliation,Google\nS5,Halevy,affiliation,UW\n' \
  > "$WORK/delta-obj.csv"
printf 'A0,Dong,affiliation,UW\nA0,Widom,affiliation,Stanford\n' > "$WORK/delta-new.csv"
N=0
for f in delta-src delta-obj delta-new; do
  N=$((N + 1))
  "$BIN" append -addr "$ROUTER3" -dataset ci "$WORK/$f.csv" 2> "$WORK/$f.txt"
  grep -q "epoch $N" "$WORK/$f.txt"
done
curl -fs "http://$DREPLICA/metrics" | grep "^currents_dataset_delta_appends_total{dataset=\"ci\"} $N\$"
curl -fs "http://$DPRIMARY/metrics" > "$WORK/delta-primary-metrics.txt"
grep -q '^currents_dataset_delta_appends_total{dataset="ci"} 0$' "$WORK/delta-primary-metrics.txt"
curl -fs "$ROUTER3/metrics" > "$WORK/delta-router-metrics.txt"
grep -q '^currents_router_replica_delta_bytes_total [1-9]' "$WORK/delta-router-metrics.txt"
grep -q '^currents_replica_append_failures_total 0$' "$WORK/delta-router-metrics.txt"
for e in $(seq 1 "$N"); do
  seg="$(printf 'ci.%06d.seg' "$e")"
  cmp "$WORK/d/$DPRIMARY/$seg" "$WORK/d/$DREPLICA/$seg"
done
curl -fs -X POST --data-binary @"$REQ" "http://$DPRIMARY/v1/ci/answer" > "$WORK/delta-primary.json"
curl -fs -X POST --data-binary @"$REQ" "http://$DREPLICA/v1/ci/answer" > "$WORK/delta-replica.json"
diff "$WORK/delta-primary.json" "$WORK/delta-replica.json"
kill "$DREPLICA_PID"; wait "$DREPLICA_PID" 2>/dev/null || true
start_delta_shard "$DREPLICA"
wait_ready "http://$DREPLICA/readyz"
curl -fs -X POST --data-binary @"$REQ" "http://$DREPLICA/v1/ci/answer" > "$WORK/delta-restarted.json"
diff "$WORK/delta-primary.json" "$WORK/delta-restarted.json"
echo "fleet_e2e: $N routed appends applied on the replica as deltas; segments cmp-identical; restarted replica answers byte-identically"

echo "fleet_e2e: PASS"
