#!/usr/bin/env bash
# Tier-1 verification: hermetic (offline) build + full test suite.
#
# The workspace has zero external dependencies by design — everything
# builds from the in-tree `nf-support` substrate — so `--offline` must
# always succeed. Treat any attempt to reach a registry as a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for the smokes' generated programs, traces and reports.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> nfbench: build the benchmark and run its tests"
# nfbench is a workspace of its own (outside the one above). Building
# and testing it here means a change to an API it calls fails verify,
# not the benchmark run.
cargo test -q --release --offline --manifest-path nfbench/Cargo.toml

echo "==> nfactor lint over the corpus"
# The lint exits non-zero iff an error-severity (NFL006/NFL008)
# diagnostic fires; the corpus must stay clean of those.
for nf in fig1-lb balance snort nat firewall ratelimiter portknock router; do
    ./target/release/nfactor lint --corpus "$nf" > /dev/null
    echo "    lint $nf: ok"
done

echo "==> placement smoke: one plan per NF, whatever the backend"
# Every backend places state by the verdict the pipeline takes on its
# one analysis, so the plan `nfactor run` prints (the lines between
# the header and the first blank line) must not depend on the backend.
# The compiled backend must also print the model's run: once the header
# (it names the backend) and the wall-clock `makespan` and `throughput`
# lines are dropped, the packet counts and the merged state must be
# identical. The interpreter is left out of that check: the model
# prunes log-only counters, so its merged state differs by design.
# Every run's makespan must be positive: busy time is read once per
# run of steps, and a run that stepped packets took time.
for nf in fig1-lb balance snort nat firewall ratelimiter portknock router; do
    ref=""
    for backend in interp model compiled; do
        out=$(./target/release/nfactor run --corpus "$nf" --backend "$backend")
        plan=$(printf '%s\n' "$out" | awk 'NR > 1 && /^$/ {exit} NR > 1 {print}')
        if [ -z "$plan" ]; then
            echo "    $nf on $backend printed no plan"; exit 1
        fi
        if [ -n "$ref" ] && [ "$plan" != "$ref" ]; then
            echo "    $nf: the $backend plan differs from interp's:"
            printf '%s\n---\n%s\n' "$ref" "$plan"; exit 1
        fi
        ref=$plan
        makespan=$(printf '%s\n' "$out" | awk '/^makespan/ {print $3}')
        if ! awk -v m="$makespan" 'BEGIN {exit !(m > 0)}'; then
            echo "    $nf on $backend printed a zero makespan: '$makespan'"; exit 1
        fi
        run=$(printf '%s\n' "$out" | awk 'NR > 1 && !/^(makespan|throughput) /')
        if [ "$backend" = model ]; then
            model_run=$run
        elif [ "$backend" = compiled ] && [ "$run" != "$model_run" ]; then
            echo "    $nf: the compiled run differs from the model's:"
            printf '%s\n---\n%s\n' "$model_run" "$run"; exit 1
        fi
    done
    echo "    plan $nf: identical on interp, model, compiled; compiled run == model run: ok"
done

echo "==> fuzz smoke: 500 seeded cases, crash + differential oracles"
# Deterministic (caps-only budgets): same seed, same verdicts. Exits
# non-zero on any pipeline panic, interpreter/model mismatch, or
# compiled/model mismatch.
./target/release/nfactor fuzz --seed 0 --cases 500

echo "==> shard smoke: fig1-lb across 4 shards, merged log aggregation"
# fig1-lb shares b2f_nat across flows, so the runtime must fall back to
# the global lock — and the per-shard pass/drop log counters must still
# delta-merge to exactly the packet count.
out=$(./target/release/nfactor run --corpus fig1-lb --shards 4)
case "$out" in
    *"global-lock"*) echo "    shared-state fallback engaged: ok" ;;
    *) echo "    expected the global-lock fallback for fig1-lb, got:"; echo "$out"; exit 1 ;;
esac
pkts=$(printf '%s\n' "$out" | awk '/^packets/ {print $3}')
passed=$(printf '%s\n' "$out" | awk '/^pass_stat/ {print $3}')
dropped=$(printf '%s\n' "$out" | awk '/^drop_stat/ {print $3}')
if [ -z "$pkts" ] || [ "$((passed + dropped))" -ne "$pkts" ]; then
    echo "    pass_stat ($passed) + drop_stat ($dropped) != packets ($pkts)"; exit 1
fi
echo "    pass_stat ($passed) + drop_stat ($dropped) == $pkts packets: ok"

echo "==> compiled-backend smoke: fig1-lb lowered to the decision-tree engine"
# The model compiles to the nf-compile dispatch tree and runs sharded;
# the merged counters must still account for every packet.
out=$(./target/release/nfactor run --corpus fig1-lb --backend compiled --shards 4)
pkts=$(printf '%s\n' "$out" | awk '/^packets/ {print $3}')
if [ -z "$pkts" ] || [ "$pkts" -eq 0 ]; then
    echo "    compiled backend processed no packets:"; echo "$out"; exit 1
fi
echo "    compiled backend processed $pkts packets across 4 shards: ok"

echo "==> shard differential: every corpus NF, 4 shards vs single-threaded"
# The sweeps also run as part of the workspace suite above; the explicit
# invocations keep the oracles from silently falling out of the suite.
cargo test -q --offline --test differential sharded:: > /dev/null
echo "    threaded == sequential == single for all corpus NFs: ok"

echo "==> three-way differential: interp == model == compiled"
# Every corpus NF, shard counts {1,4}, threaded and sequential modes,
# compared on per-packet outputs and the model's state variables.
cargo test -q --offline --test differential three_way:: > /dev/null
echo "    interp == model == compiled for all corpus NFs: ok"

echo "==> chaos smoke: injected panic is quarantined, not fatal"
# One deterministic panic on shard 1's 4th packet: the run must exit 0
# with exactly one quarantined packet and every packet accounted for.
out=$(./target/release/nfactor run --corpus fig1-lb --shards 4 --fault-plan 'panic@1:3')
quarantined=$(printf '%s\n' "$out" | awk '/^quarantined/ {print $3}')
offered=$(printf '%s\n' "$out" | awk '/^offered/ {print $3}')
pkts=$(printf '%s\n' "$out" | awk '/^packets/ {print $3}')
if [ "$quarantined" != "1" ]; then
    echo "    expected exactly 1 quarantined packet, got '$quarantined':"; echo "$out"; exit 1
fi
if [ -z "$pkts" ] || [ "$((pkts + quarantined))" -ne "$offered" ]; then
    echo "    packets ($pkts) + quarantined ($quarantined) != offered ($offered)"; exit 1
fi
echo "    1 packet quarantined, $pkts of $offered processed: ok"

echo "==> runaway-loop smoke: a packet-sized loop bound is quarantined, not fatal"
# The range bound is the packet's source address, so no static check can
# reject it. The interpreter must stop each packet at its step limit and
# quarantine it. Building the range in memory first would abort the
# whole process on the allocation; the address-space cap makes sure.
cat > "$tracedir/runaway.nfl" <<'EOF'
state n = 0;
fn cb(pkt: packet) {
    for i in 0..pkt.ip.src {
        n = n + 1;
    }
    send(pkt);
}
fn main() { sniff(cb); }
EOF
./target/release/nfactor workload --seed 1 --packets 30 "$tracedir/runaway.nfw" > /dev/null
if ! out=$(ulimit -v 1000000; timeout 60 ./target/release/nfactor run "$tracedir/runaway.nfl" \
    --backend interp --workload "$tracedir/runaway.nfw"); then
    echo "    the runaway loop aborted the run or ran past 60 s:"; echo "$out"; exit 1
fi
quarantined=$(printf '%s\n' "$out" | awk '/^quarantined/ {print $3}')
offered=$(printf '%s\n' "$out" | awk '/^offered/ {print $3}')
if [ "$offered" != "30" ] || [ "$quarantined" != "30" ]; then
    echo "    expected all 30 offered packets quarantined, got '$quarantined' of '$offered':"
    echo "$out"; exit 1
fi
echo "    $quarantined of $offered runaway packets quarantined, exit 0: ok"

echo "==> chaos differential: faulted runs match fault-free references"
# Every corpus NF x backend x shards {1,4} x fixed fault plans: the
# surviving packets and merged state must be byte-identical to a
# fault-free run over the surviving input.
cargo test -q --offline --test differential chaos:: > /dev/null
echo "    survivors unaffected by contained faults for all corpus NFs: ok"

echo "==> graceful degradation: snort under a 10 ms deadline"
# Must return a *partial* model (exit 0) with the truncation visible,
# not hang, panic, or error out.
out=$(./target/release/nfactor synthesize --corpus snort --timeout-ms 10)
case "$out" in
    *"PARTIAL MODEL"*) echo "    truncated model rendered: ok" ;;
    *) echo "    expected a PARTIAL MODEL banner, got:"; echo "$out"; exit 1 ;;
esac
./target/release/nfactor synthesize --corpus snort --timeout-ms 10 --json \
    | grep -q '"state": "truncated"'
echo "    truncation visible in JSON: ok"

echo "==> trace smoke: Chrome trace + metrics JSON from a snort run"
# The observability flags must produce valid, non-empty JSON even when
# the run degrades under a deadline (that is exactly when the numbers
# matter). `json-check` uses the in-tree parser, so this also guards
# the emitter/parser pair against drift.
./target/release/nfactor synthesize --corpus snort \
    --trace-json "$tracedir/trace.json" \
    --metrics-json "$tracedir/metrics.json" > /dev/null
./target/release/nfactor json-check "$tracedir/trace.json" > /dev/null
./target/release/nfactor json-check "$tracedir/metrics.json" > /dev/null
grep -q 'pipeline.stage.symex' "$tracedir/trace.json"
echo "    trace JSON valid with stage spans: ok"
grep -q '"symex.paths.explored"' "$tracedir/metrics.json"
grep -q '"pipeline.stage.slice.ns"' "$tracedir/metrics.json"
echo "    metrics JSON carries the stable names: ok"

echo "==> telemetry smoke: per-shard stats JSON, flight dump, top --once"
# The shard telemetry plane must report per-shard latency percentiles
# and the dispatcher's hot-key profile, and the flight recorder's dump
# must carry a replayable `trace` key — all as valid JSON.
./target/release/nfactor run --corpus firewall --shards 4 \
    --stats-json "$tracedir/stats.json" --flight-out "$tracedir/flight.json" > /dev/null
./target/release/nfactor json-check "$tracedir/stats.json" > /dev/null
grep -q '"p99"' "$tracedir/stats.json"
grep -q '"hotkeys"' "$tracedir/stats.json"
grep -q '"ring_occupancy"' "$tracedir/stats.json"
echo "    stats JSON carries percentiles, occupancy, hot keys: ok"
# Per shard: busy time (read once per run of steps) must be positive,
# and the eval-latency histogram must hold one sample per packet.
if ! awk '
    /"shard":/ { gsub(/[^0-9]/, "", $2); shard = $2 }
    /"pkts":/ { gsub(/[^0-9]/, "", $2); pkts = $2 }
    /"busy_ns":/ { gsub(/[^0-9]/, "", $2); busy = $2 }
    /"eval_ns":/ { in_eval = 1; next }
    in_eval && /"count":/ {
        gsub(/[^0-9]/, "", $2); in_eval = 0; seen++
        if (busy + 0 == 0) { print "    shard " shard ": busy_ns is 0"; bad = 1 }
        if ($2 != pkts) { print "    shard " shard ": eval_ns count " $2 " != pkts " pkts; bad = 1 }
    }
    END { if (seen == 0) { print "    no per-shard stats"; bad = 1 } exit bad }
' "$tracedir/stats.json"; then
    exit 1
fi
echo "    every shard busy, one eval latency per packet: ok"
./target/release/nfactor json-check "$tracedir/flight.json" > /dev/null
grep -q '"trace"' "$tracedir/flight.json"
echo "    flight dump valid with a replayable trace: ok"
out=$(./target/release/nfactor top --corpus firewall --shards 4 --once)
case "$out" in
    *"p99"*"hot["*) echo "    top --once rendered the per-shard snapshot: ok" ;;
    *) echo "    top --once missing percentile columns or hot-key rows:"; echo "$out"; exit 1 ;;
esac

echo "==> streaming smoke: 1M-packet .nfw trace through the batched path"
# The binary trace streams through the engine in 32-packet dispatch
# bins at constant memory; every packet must be accounted for.
./target/release/nfactor workload --seed 7 --packets 1000000 "$tracedir/big.nfw" > /dev/null
out=$(./target/release/nfactor run --corpus ratelimiter --workload "$tracedir/big.nfw" \
    --shards 4 --batch 32)
pkts=$(printf '%s\n' "$out" | awk '/^packets/ {print $3}')
if [ "$pkts" != "1000000" ]; then
    echo "    expected 1000000 packets through the .nfw stream, got '$pkts':"
    echo "$out"; exit 1
fi
echo "    1000000 .nfw packets streamed across 4 shards at batch 32: ok"

echo "==> streaming smoke: 100k fresh-flow firewall packets on every backend"
# Default traffic opens a new pinhole for most packets, so live state
# grows with the stream. Per-packet rollback journaling is O(entries
# touched) on every backend, so this finishes in seconds; a whole-state
# journal made it quadratic (minutes). The merged `pinholes` map must
# hold the same number of entries on every backend at 4 shards and on
# one shard. The log-only counters are not compared: the model prunes
# them, so they legitimately differ by backend.
./target/release/nfactor workload --seed 7 --packets 100000 "$tracedir/fresh.nfw" > /dev/null
pinholes_ref=""
for run in interp:4 model:4 compiled:4 compiled:1; do
    backend=${run%:*}
    shards=${run#*:}
    out=$(./target/release/nfactor run --corpus firewall --workload "$tracedir/fresh.nfw" \
        --shards "$shards" --batch 32 --backend "$backend")
    pkts=$(printf '%s\n' "$out" | awk '/^packets/ {print $3}')
    if [ "$pkts" != "100000" ]; then
        echo "    expected 100000 packets on $backend x$shards, got '$pkts':"; echo "$out"; exit 1
    fi
    pinholes=$(printf '%s\n' "$out" | awk '/^pinholes = map\(/ {gsub(/[^0-9]/, "", $3); print $3}')
    if [ -z "$pinholes" ]; then
        echo "    no merged pinholes map on $backend x$shards:"; echo "$out"; exit 1
    fi
    if [ -n "$pinholes_ref" ] && [ "$pinholes" != "$pinholes_ref" ]; then
        echo "    $backend x$shards: $pinholes merged pinholes != $pinholes_ref on interp x4"
        exit 1
    fi
    pinholes_ref=$pinholes
    echo "    100000 fresh-flow packets on $backend x$shards, $pinholes merged pinholes: ok"
done

echo "==> NAT port-exhaustion smoke: 86k packets on model and compiled"
# Past ~80k seed-1 packets the NAT runs out of ports: new flows fail
# and are quarantined, and every third failure in a row restarts the
# evaluator. The compiled backend retries each failure on the model,
# in place on its arenas, and restarts in place too, so both backends
# finish in about a second; copying all live state per fallback or
# restart would take minutes, which the timeout catches. Both must
# quarantine and restart alike.
./target/release/nfactor workload --seed 1 --packets 86000 "$tracedir/nat.nfw" > /dev/null
nat_ref=""
for backend in model compiled; do
    if ! out=$(timeout 60 ./target/release/nfactor run --corpus nat \
        --workload "$tracedir/nat.nfw" --backend "$backend"); then
        echo "    nat on $backend failed or ran past 60 s"; exit 1
    fi
    pkts=$(printf '%s\n' "$out" | awk '/^packets/ {print $3}')
    quarantined=$(printf '%s\n' "$out" | awk '/^quarantined/ {print $3}')
    restarts=$(printf '%s\n' "$out" | awk '/^restarts/ {print $3}')
    offered=$(printf '%s\n' "$out" | awk '/^offered/ {print $3}')
    if [ -z "$pkts" ] || [ "$((pkts + quarantined))" -ne "$offered" ]; then
        echo "    $backend: packets ($pkts) + quarantined ($quarantined) != offered ($offered)"
        echo "$out"; exit 1
    fi
    if [ -n "$nat_ref" ] && [ "$quarantined $restarts" != "$nat_ref" ]; then
        echo "    $backend: quarantined/restarts '$quarantined $restarts' != model's '$nat_ref'"
        exit 1
    fi
    nat_ref="$quarantined $restarts"
    echo "    $backend: $pkts + $quarantined quarantined == $offered offered, $restarts restarts: ok"
done

echo "==> shard bench gate: 4 shards reach >= 2x one shard on simulated makespan"
# The firewall runs sequentially at 1/2/4/8 shards; each run's makespan
# is its slowest shard's busy time as the inline executor measured it.
# The bench aborts if 4 shards fall short of 2x the one-shard throughput.
NF_BENCH_DIR="$tracedir" cargo bench -q --offline -p bench --bench shard

echo "==> incremental lint smoke: --watch re-lints the edit, metrics show cache hits"
# First poll lints cold; the appended trailing comment re-parses but
# early-cuts, so the diagnostic set must not change (no +/- lines), and
# the query metrics must record parse cache activity.
cat > "$tracedir/watch.nfl" <<'EOF'
state m = map();
fn cb(pkt: packet) {
    let src = pkt.ip.src;
    let unused = 7;
    if src not in m { m[src] = 0; }
    m[src] = m[src] + 1;
    send(pkt);
}
fn main() { sniff(cb); }
EOF
( sleep 0.3; echo "// trailing comment" >> "$tracedir/watch.nfl" ) &
out=$(./target/release/nfactor lint "$tracedir/watch.nfl" --watch \
    --poll-ms 100 --watch-max-polls 8 --metrics-json "$tracedir/watch-metrics.json")
wait
case "$out" in
    *"+ warning[NFL001]"*) echo "    watch printed the initial finding: ok" ;;
    *) echo "    watch did not print the NFL001 finding:"; echo "$out"; exit 1 ;;
esac
if [ "$(printf '%s\n' "$out" | grep -c 'NFL001')" -ne 1 ]; then
    echo "    trivia edit re-printed unchanged diagnostics:"; echo "$out"; exit 1
fi
echo "    trivia edit printed no diagnostic churn: ok"
./target/release/nfactor json-check "$tracedir/watch-metrics.json" > /dev/null
grep -q '"query.parse.recompute"' "$tracedir/watch-metrics.json"
grep -q '"query.report.hit"' "$tracedir/watch-metrics.json"
echo "    query.* metrics recorded: ok"

echo "==> lsp smoke: initialize handshake over stdio"
body1='{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}'
body2='{"jsonrpc":"2.0","method":"exit"}'
out=$({ printf 'Content-Length: %d\r\n\r\n%s' "${#body1}" "$body1"; \
        printf 'Content-Length: %d\r\n\r\n%s' "${#body2}" "$body2"; } \
      | ./target/release/nfactor lsp)
case "$out" in
    *'"textDocumentSync":1'*'"nfactor-lsp"'*) echo "    capabilities + serverInfo: ok" ;;
    *) echo "    unexpected initialize response:"; echo "$out"; exit 1 ;;
esac

echo "==> panic gate"
./scripts/panic_gate.sh

echo "==> docs: every intra-doc link resolves"
# A deleted or renamed item must not leave a dangling doc link.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace --offline

echo "==> metrics gate: README observability table vs code"
./scripts/metrics_gate.sh

echo "==> verify OK"
