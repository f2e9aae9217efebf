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
# Sharded must equal single end to end: the `== merged state ==`
# section of a 4-shard run must equal the 1-shard run's, on every
# backend (every run joins its evaluators' state by position: a
# partitioned run's shards, or a global-lock run's one evaluator).
merged_state() { awk '/^== merged state ==$/ {on = 1} on'; }
for nf in fig1-lb balance snort nat firewall ratelimiter portknock router; do
    ref=""
    for backend in interp model compiled; do
        out=$(./target/release/nfactor run --corpus "$nf" --backend "$backend")
        single=$(printf '%s\n' "$out" | merged_state)
        sharded=$(./target/release/nfactor run --corpus "$nf" --backend "$backend" --shards 4 \
            | merged_state)
        if [ -z "$single" ] || [ "$sharded" != "$single" ]; then
            echo "    $nf on $backend: the merged state at 4 shards differs from 1 shard's:"
            printf '%s\n---\n%s\n' "$single" "$sharded"; exit 1
        fi
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
    echo "    plan $nf: identical on interp, model, compiled; compiled run == model run;"
    echo "    merged state at 4 shards == at 1 shard on every backend: ok"
done

echo "==> fuzz smoke: 500 seeded cases, crash + differential oracles"
# Deterministic (caps-only budgets): same seed, same verdicts. Exits
# non-zero on any pipeline panic, interpreter/model mismatch, or
# compiled/model mismatch. The oracle skips a case whose interpreter
# errs as incomparable, so an interpreter that started failing on
# generated NFs would still exit zero: require 0 skipped cases and at
# least 125 compared ones in the summary line.
fuzz=$(./target/release/nfactor fuzz --seed 0 --cases 500)
printf '%s\n' "$fuzz"
summary='.*(\([0-9]*\) compared, \([0-9]*\) skipped)$'
compared=$(printf '%s\n' "$fuzz" | sed -n "s/$summary/\\1/p")
skipped=$(printf '%s\n' "$fuzz" | sed -n "s/$summary/\\2/p")
if [ -z "$compared" ] || [ "$skipped" != 0 ] || [ "$compared" -lt 125 ]; then
    echo "    expected 0 skipped and >= 125 compared cases, got compared=${compared:-?} skipped=${skipped:-?}"
    exit 1
fi
echo "    $compared compared, 0 skipped: ok"

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

echo "==> shard differential: every corpus NF and gen_program seeds 1-300, 4 shards vs single-threaded"
# The sweeps also run as part of the workspace suite above; the explicit
# invocations keep the oracles from silently falling out of the suite.
# The generated sweep runs every NF whose plan partitions over a stream
# biased toward the values the grammar rewrites fields to, so a key read
# after a rewrite collides with an arriving packet's field.
cargo test -q --offline --test differential sharded:: > /dev/null
echo "    threaded == sequential == single for all corpus NFs and every partitioned generated NF: ok"

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

echo "==> graceful degradation: snort under a 1 ms deadline"
# Must return a *partial* model (exit 0) with the truncation visible,
# not hang, panic, or error out. The deadline is 1 ms so that a fast
# host still truncates: a release build can finish snort inside 10 ms.
out=$(./target/release/nfactor synthesize --corpus snort --timeout-ms 1)
case "$out" in
    *"PARTIAL MODEL"*) echo "    truncated model rendered: ok" ;;
    *) echo "    expected a PARTIAL MODEL banner, got:"; echo "$out"; exit 1 ;;
esac
./target/release/nfactor synthesize --corpus snort --timeout-ms 1 --json \
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
# Per shard: busy time must be positive, the eval-latency histogram
# must hold one sample per packet, and the samples must sum to the busy
# time exactly: the worker reads the clock once per packet and chains
# the reads, so a run's busy time is its last stamp minus its first.
if ! awk '
    /"shard":/ { gsub(/[^0-9]/, "", $2); shard = $2 }
    /"pkts":/ { gsub(/[^0-9]/, "", $2); pkts = $2 }
    /"busy_ns":/ { gsub(/[^0-9]/, "", $2); busy = $2 }
    /"eval_ns":/ { in_eval = 1; next }
    in_eval && /"count":/ {
        gsub(/[^0-9]/, "", $2); seen++
        if (busy + 0 == 0) { print "    shard " shard ": busy_ns is 0"; bad = 1 }
        if ($2 != pkts) { print "    shard " shard ": eval_ns count " $2 " != pkts " pkts; bad = 1 }
        next
    }
    in_eval && /"sum":/ {
        gsub(/[^0-9]/, "", $2); in_eval = 0
        if ($2 != busy) { print "    shard " shard ": eval_ns sum " $2 " != busy_ns " busy; bad = 1 }
    }
    END { if (seen == 0) { print "    no per-shard stats"; bad = 1 } exit bad }
' "$tracedir/stats.json"; then
    exit 1
fi
echo "    every shard busy, one eval latency per packet, latencies sum to busy time: ok"
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

echo "==> .nfw decode smoke: a 100k-packet trace equals its generated stream"
# A .nfw record decodes out of the reader's buffer at fixed offsets, or,
# when it straddles the buffer's end, through the framed record reader.
# Snort's per-rule, TTL, fragment and payload-byte counters read most of
# what a record carries, so its merged state over the decoded trace must
# equal its merged state over the same stream generated in memory.
./target/release/nfactor workload --seed 7 --packets 100000 "$tracedir/snort.nfw" > /dev/null
printf '{"seed": 7, "packets": 100000}\n' > "$tracedir/snort-gen.json"
decoded=$(./target/release/nfactor run --corpus snort --backend interp \
    --workload "$tracedir/snort.nfw" | merged_state)
generated=$(./target/release/nfactor run --corpus snort --backend interp \
    --workload "$tracedir/snort-gen.json" | merged_state)
if [ -z "$decoded" ] || [ "$decoded" != "$generated" ]; then
    echo "    snort's merged state over the .nfw trace differs from the generated stream's:"
    diff <(printf '%s\n' "$decoded") <(printf '%s\n' "$generated") | head -20
    exit 1
fi
echo "    snort merged state over 100000 decoded packets == generated stream: ok"
# Snort is partitioned, so `nfactor run` steps it on worker threads,
# which take packets out of each batch. fig1-lb shares state, so its
# run steps inline: each packet is routed and stepped in the slot the
# reader decoded it into, and the next batch's records are decoded
# over those packets. A garbage fault scrambles a packet in its slot;
# the next refill must overwrite every field of it, so the run over the
# trace must print what the run over the generated stream prints (whose
# batches are fresh packets), faults included. Each garbage point
# scrambles one packet on every shard, 32 in all, so a field the next
# refill leaves stale reaches packets that fig1-lb's counters see.
plan="garbage@*:5,garbage@*:40,garbage@*:99,garbage@*:250,garbage@*:1000,garbage@*:4000"
plan="$plan,garbage@*:10000,garbage@*:20000,panic@0:77,err@1:300,err@2:301"
for backend in interp model compiled; do
    decoded=$(./target/release/nfactor run --corpus fig1-lb --backend "$backend" --shards 4 \
        --fault-plan "$plan" --workload "$tracedir/snort.nfw" | grep -vE '^(makespan|throughput)')
    generated=$(./target/release/nfactor run --corpus fig1-lb --backend "$backend" --shards 4 \
        --fault-plan "$plan" --workload "$tracedir/snort-gen.json" | grep -vE '^(makespan|throughput)')
    if ! printf '%s\n' "$decoded" | grep -q '^quarantined    : [1-9]' \
        || ! printf '%s\n' "$decoded" | grep -q '^== merged state ==$' \
        || [ "$decoded" != "$generated" ]; then
        echo "    fig1-lb ($backend) over the .nfw trace differs from the generated stream, or quarantined nothing:"
        diff <(printf '%s\n' "$decoded") <(printf '%s\n' "$generated") | head -20
        exit 1
    fi
done
echo "    fig1-lb (global lock, stepped in place) under garbage faults over 100000 decoded packets == generated stream on every backend: ok"

echo "==> NAT port-exhaustion smoke: 86k packets on model and compiled"
# Past ~80k seed-1 packets the NAT runs out of ports: new flows fail
# and are quarantined, and every third failure in a row restarts the
# evaluator. Each failure rolls back and restarts in place on the
# arenas (the compiled step's failure is the reference step's own, so
# it is not retried), and both backends finish in about a second;
# copying all live state per failure or restart would take minutes,
# which the timeout catches. Both must quarantine and restart alike.
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

echo "==> incr bench gates: a trivia edit re-parses once; warm re-lint >= 5x cold"
# A long-lived nf-query engine re-lints the 8-NF corpus after a
# trailing-comment edit. The bench aborts unless that edit re-runs
# exactly one parse and no normalize, ctx or report query, and unless
# the warm re-lint is at least 5x faster than a cold one.
NF_BENCH_DIR="$tracedir" cargo bench -q --offline -p bench --bench incr

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

echo "==> variable-prefix gate: only sym.rs parses or rewrites pkt./cfg:/st: names"
# Term variables are typed (`SymVal::Pkt`, `Cfg`, `St`); their rendered
# prefixes are written by `Display` (or left out by the Figure 6 style,
# `SymVal::short`) and read back by `SymVal::var`, all in
# crates/nfl-symex/src/sym.rs. Any other module must match on the
# variants, and a printer must take the prefix text from `SymVal`
# rather than rewrite rendered text.
if grep -rEn '(strip_prefix|starts_with|replace)\("(pkt\.|cfg:|st:)"|mentions_prefix|SymVal::Var\(format!\(' \
    crates src tests | grep -v '^crates/nfl-symex/src/sym.rs:'; then
    echo "    variable-prefix parsing or rewriting outside crates/nfl-symex/src/sym.rs (above)"; exit 1
fi
echo "    no prefix parsing or rewriting outside sym.rs: ok"

echo "==> one-evaluator gate: only nf-model writes evaluation errors"
# The model evaluator (`ModelState::eval`) is the one definition of
# term semantics. The compiled step takes its fast path or runs the
# reference step, so every error it returns is the reference's; a
# compiled-side copy of the evaluator would construct its own.
if grep -rn 'EvalError::' crates/nf-compile; then
    echo "    nf-compile constructs an evaluation error (above)"; exit 1
fi
echo "    no EvalError constructed in nf-compile: ok"

echo "==> shared-nothing gate: nf-shard workers share only their rings"
# A partitioned threaded run gives every worker its own evaluator, and a
# global-lock run steps its one evaluator on the calling thread in every
# mode, so the workers share nothing but their SPSC rings, which live in
# nf-support. A lock or an atomic in nf-shard would be a second channel.
# The pattern matches the types and the module path, so a grouped import
# (`use std::sync::{Arc, atomic::AtomicU64}`) is caught; comment lines
# are not code and are skipped.
if grep -rnE 'Mutex|RwLock|Condvar|Barrier|Atomic[A-Z]|atomic::' crates/nf-shard/src \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "    nf-shard uses a lock or an atomic (above)"; exit 1
fi
echo "    no Mutex, RwLock, Condvar, Barrier or atomic in nf-shard: ok"

echo "==> panic gate"
./scripts/panic_gate.sh

echo "==> docs: rustdoc builds without a warning"
# A deleted or renamed item must not leave a dangling doc link, and a
# public doc must not link to a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> rustfmt: the workspace is formatted"
# nfbench is a workspace of its own and is not checked here.
cargo fmt --all --check

echo "==> clippy: no lint warning in any workspace target"
# Libraries, binaries, tests, benches and examples of the workspace.
# nfbench is a workspace of its own and is not linted here.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> metrics gate: README observability table vs code"
./scripts/metrics_gate.sh

echo "==> verify OK"
