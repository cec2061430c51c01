#!/usr/bin/env bash
# Integration check for the federated fleet: boot three plserved daemons
# on random ports, run the -quick Figure 7 sweep through all of them via
# plbench's comma-separated -server list, SIGKILL one daemon once it has
# demonstrably executed part of the sweep, and assert the sweep still
# completes with CSV output byte-identical to an in-process (no-server)
# run — at-least-once dispatch, exactly-once results. The daemons share a
# checkpoint directory, so a killed backend's in-flight job resumes from
# its last checkpoint when resubmitted to a survivor; a dedicated phase
# asserts that via /metrics (resumed_jobs >= 1, 0 < resumed_cycles <
# total) and that plctl wait surfaces a lost job with exit code 3. A
# final phase boots a second fleet with cache peering (-peers) enabled
# and asserts fleet-wide exactly-once execution: a cold sweep executes
# each SpecKey exactly once summed across all backends, a warm re-run
# through one backend alone executes nothing (the keys it does not hold
# serve over the peer tier, exactly one peer hit each), both CSVs
# byte-match the in-process reference, and plctl cache probe reports
# hit/miss with the documented exit codes. Run from the repository
# root; CI runs it after the unit tiers.
set -euo pipefail

workdir=$(mktemp -d)
pids=()
cleanup() {
    rm -rf "$workdir"
    for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "--- building plserved, plbench and plctl"
go build -o "$workdir/plserved" ./cmd/plserved
go build -o "$workdir/plbench" ./cmd/plbench
go build -o "$workdir/plctl" ./cmd/plctl

echo "--- starting three plserved daemons (shared checkpoint dir)"
mkdir -p "$workdir/ckpt"
servers=()
for i in 0 1 2; do
    "$workdir/plserved" \
        -addr 127.0.0.1:0 \
        -addr-file "$workdir/addr$i" \
        -workers 2 \
        -cache-dir "$workdir/cache$i" \
        -checkpoint-dir "$workdir/ckpt" \
        -checkpoint-every 50000 \
        2>"$workdir/plserved$i.log" &
    pids+=($!)
    disown $! # keep the later SIGKILL out of the shell's job reports
done
for i in 0 1 2; do
    for _ in $(seq 1 100); do
        [ -s "$workdir/addr$i" ] && break
        kill -0 "${pids[$i]}" || { cat "$workdir/plserved$i.log"; echo "plserved $i died"; exit 1; }
        sleep 0.1
    done
    [ -s "$workdir/addr$i" ] || { echo "plserved $i never wrote its address"; exit 1; }
    servers+=("http://$(cat "$workdir/addr$i")")
    echo "    ${servers[$i]}"
done
fleet_list="${servers[0]},${servers[1]},${servers[2]}"
victim=2

echo "--- running the federated -quick Figure 7 sweep"
"$workdir/plbench" -quick -fig 7 \
    -server "$fleet_list" \
    -workers 8 \
    -csv "$workdir/fleet" \
    >"$workdir/fleet.out" 2>"$workdir/fleet.err" &
bench_pid=$!

echo "--- waiting for the victim backend to execute part of the sweep"
killed=""
for _ in $(seq 1 300); do
    if ! kill -0 "$bench_pid" 2>/dev/null; then
        break
    fi
    executed=$("$workdir/plctl" -server "${servers[$victim]}" metrics 2>/dev/null \
        | awk -F= '$1 == "svc.executed" { print $2 }') || executed=0
    if [ "${executed:-0}" -ge 3 ]; then
        echo "--- SIGKILL backend $victim (executed $executed jobs so far)"
        kill -9 "${pids[$victim]}"
        killed=yes
        break
    fi
    sleep 0.1
done
[ -n "$killed" ] || { echo "sweep finished before the victim did any work; kill never fired"; exit 1; }

if ! wait "$bench_pid"; then
    echo "federated sweep failed after the kill"
    tail -40 "$workdir/fleet.err"
    exit 1
fi
grep -q . "$workdir/fleet/figure7.csv" || { echo "fleet run produced no CSV"; exit 1; }

echo "--- running the in-process reference sweep"
"$workdir/plbench" -quick -fig 7 -csv "$workdir/local" >/dev/null 2>&1 \
    || { echo "in-process reference run failed"; exit 1; }

echo "--- comparing CSVs"
cmp "$workdir/fleet/figure7.csv" "$workdir/local/figure7.csv" \
    || { echo "federated CSV differs from the in-process run"; exit 1; }

echo "--- surviving backends report fleet traffic"
for i in 0 1; do
    sub=$("$workdir/plctl" -server "${servers[$i]}" metrics \
        | awk -F= '$1 == "svc.submitted" { print $2 }')
    [ "${sub:-0}" -ge 1 ] || { echo "backend $i saw no submissions"; exit 1; }
done

echo "--- deterministic resume: long job, SIGKILL mid-run, resume on a survivor"
json_field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",]*\)\"\{0,1\}.*/\1/p" | head -1; }
submit_flags=(-bench mcf_r -scheme dom -variant lp -warmup 1 -measure 500000)
id=$("$workdir/plctl" -server "${servers[0]}" submit "${submit_flags[@]}" \
    | json_field id)
[ -n "$id" ] || { echo "long-job submit returned no job ID"; exit 1; }
echo "    job $id running on backend 0"

for _ in $(seq 1 300); do
    [ -s "$workdir/ckpt/$id.ckpt" ] && break
    kill -0 "${pids[0]}" || { echo "backend 0 died before checkpointing"; exit 1; }
    sleep 0.1
done
[ -s "$workdir/ckpt/$id.ckpt" ] || { echo "job never persisted a checkpoint"; exit 1; }

echo "--- SIGKILL backend 0 with the job mid-run"
kill -9 "${pids[0]}"

echo "--- plctl wait against a survivor that lost the job must exit 3"
set +e
"$workdir/plctl" -server "${servers[1]}" wait "$id" >/dev/null 2>"$workdir/wait.err"
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "plctl wait exited $rc, want 3 (job lost)"; cat "$workdir/wait.err"; exit 1; }
grep -q "resubmit" "$workdir/wait.err" || { echo "lost-job message does not suggest resubmitting"; exit 1; }

echo "--- resubmitting to the survivor: must resume from the checkpoint"
"$workdir/plctl" -server "${servers[1]}" submit "${submit_flags[@]}" -wait \
    >"$workdir/resumed.json"
total=$(json_field cycles <"$workdir/resumed.json")
[ "${total:-0}" -gt 0 ] || { echo "resumed job reported no cycles"; exit 1; }

resumed_jobs=$("$workdir/plctl" -server "${servers[1]}" metrics \
    | awk -F= '$1 == "svc.resumed_jobs" { print $2 }')
resumed_cycles=$("$workdir/plctl" -server "${servers[1]}" metrics \
    | awk -F= '$1 == "svc.resumed_cycles" { print $2 }')
[ "${resumed_jobs:-0}" -ge 1 ] || { echo "survivor resumed no jobs (svc.resumed_jobs=$resumed_jobs)"; exit 1; }
# The resume point must be a real mid-run cycle: after the start, before
# the end (total + slack for the 1-instruction warmup prefix).
if [ "${resumed_cycles:-0}" -le 0 ] || [ "$resumed_cycles" -ge $((total + 10000)) ]; then
    echo "svc.resumed_cycles=$resumed_cycles not in (0, $total): job did not resume mid-run"
    exit 1
fi
echo "    resumed from cycle $resumed_cycles of $total"
[ ! -e "$workdir/ckpt/$id.ckpt" ] || { echo "checkpoint not cleaned up after success"; exit 1; }

echo "--- cache peering: fleet-wide exactly-once"
# Peers must be named at daemon start, so this fleet needs fixed ports:
# pick a random base, start the trio on base..base+2 with the full list
# in -peers (each daemon filters itself out), and retry the whole trio
# on a bind collision.
peer_pids=()
peer_cleanup() {
    for p in "${peer_pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    peer_pids=()
}
started=""
for attempt in 1 2 3 4 5; do
    base=$((20000 + RANDOM % 20000))
    purls=()
    for i in 0 1 2; do purls+=("http://127.0.0.1:$((base + i))"); done
    plist="${purls[0]},${purls[1]},${purls[2]}"
    rm -rf "$workdir/peer" && mkdir -p "$workdir/peer"
    for i in 0 1 2; do
        "$workdir/plserved" \
            -addr "127.0.0.1:$((base + i))" \
            -addr-file "$workdir/peer/addr$i" \
            -workers 2 \
            -cache-dir "$workdir/peer/cache$i" \
            -peers "$plist" \
            2>"$workdir/peer/plserved$i.log" &
        peer_pids+=($!)
        disown $!
    done
    ok=yes
    for i in 0 1 2; do
        for _ in $(seq 1 100); do
            [ -s "$workdir/peer/addr$i" ] && break
            kill -0 "${peer_pids[$i]}" 2>/dev/null || break
            sleep 0.1
        done
        [ -s "$workdir/peer/addr$i" ] || ok=""
    done
    if [ -n "$ok" ]; then
        started=yes
        break
    fi
    echo "    bind failed near port $base (attempt $attempt), retrying"
    peer_cleanup
done
[ -n "$started" ] || { echo "could not start the peered fleet on free ports"; exit 1; }
pids+=("${peer_pids[@]}") # covered by the exit trap
echo "    peered fleet on $plist"

metric_sum() { # metric_sum <counter-name>: summed across the peered fleet
    local sum=0 v u
    for u in "${purls[@]}"; do
        v=$("$workdir/plctl" -server "$u" metrics \
            | awk -F= -v n="$1" '$1 == n { print $2 }')
        sum=$((sum + ${v:-0}))
    done
    echo "$sum"
}

echo "--- cold peered sweep: each SpecKey executes exactly once fleet-wide"
"$workdir/plbench" -quick -fig 7 -server "$plist" -workers 8 \
    -csv "$workdir/peercold" >/dev/null 2>"$workdir/peercold.err" \
    || { echo "cold peered sweep failed"; tail -20 "$workdir/peercold.err"; exit 1; }
# The -quick Figure 7 sweep submits 273 distinct SpecKeys (the count
# EXPERIMENTS.md documents); any other fleet-wide execution total means
# a duplicate (or lost) execution.
cold=$(metric_sum svc.executed)
[ "$cold" -eq 273 ] || { echo "cold sweep executed $cold jobs fleet-wide, want exactly 273"; exit 1; }
cmp "$workdir/peercold/figure7.csv" "$workdir/local/figure7.csv" \
    || { echo "cold peered CSV differs from the in-process run"; exit 1; }

echo "--- warm re-run through one backend: zero executions, the rest served by peers"
# Placement is a pure function of the key, so a warm re-run through the
# same list would be all local hits. Through backend 0 alone, every key
# it did not execute cold must cross the peer tier exactly once.
own=$("$workdir/plctl" -server "${purls[0]}" metrics \
    | awk -F= '$1 == "svc.executed" { print $2 }')
"$workdir/plbench" -quick -fig 7 -server "${purls[0]}" -workers 8 \
    -csv "$workdir/peerwarm" >/dev/null 2>"$workdir/peerwarm.err" \
    || { echo "warm peered sweep failed"; tail -20 "$workdir/peerwarm.err"; exit 1; }
warm=$(metric_sum svc.executed)
[ "$warm" -eq "$cold" ] || { echo "warm re-run executed $((warm - cold)) jobs; peering should serve them all"; exit 1; }
hits=$(metric_sum svc.peer_hits)
[ "$hits" -eq $((cold - ${own:-0})) ] \
    || { echo "warm re-run produced $hits peer hits, want $((cold - ${own:-0})) (= $cold - the $own backend 0 executed)"; exit 1; }
echo "    0 executions, $hits peer hits (= $cold - $own)"
cmp "$workdir/peerwarm/figure7.csv" "$workdir/local/figure7.csv" \
    || { echo "warm peered CSV differs from the in-process run"; exit 1; }

echo "--- mixed TSO/RC sweep: consistency is part of the job identity"
# The same (bench, scheme, variant) under TSO and RC are distinct
# SpecKeys; an explicit -consistency tso is the canonical default and
# must dedupe against it. 4 schemes x 2 models = 8 distinct jobs, of
# which the 4 explicit-tso resubmits below add nothing.
mixed_before=$(metric_sum svc.executed)
for sch in unsafe fence dom rcp; do
    for con in "" rc; do
        "$workdir/plctl" -server "${purls[$((RANDOM % 3))]}" submit \
            -bench gcc_r -scheme "$sch" -consistency "$con" \
            -warmup 200 -measure 1500 -wait >/dev/null \
            || { echo "mixed sweep submit ($sch/${con:-tso}) failed"; exit 1; }
    done
done
for sch in unsafe fence dom rcp; do
    "$workdir/plctl" -server "${purls[$((RANDOM % 3))]}" submit \
        -bench gcc_r -scheme "$sch" -consistency tso \
        -warmup 200 -measure 1500 -wait >/dev/null \
        || { echo "explicit-tso resubmit ($sch) failed"; exit 1; }
done
mixed_after=$(metric_sum svc.executed)
mixed_exec=$((mixed_after - mixed_before))
[ "$mixed_exec" -eq 8 ] || { echo "mixed TSO/RC sweep executed $mixed_exec jobs fleet-wide, want exactly 8"; exit 1; }
echo "    8 distinct jobs executed once each; explicit-tso deduped"

echo "--- plctl cache probe: hit exits 0, miss exits 2"
probe_id=$("$workdir/plctl" -server "${purls[0]}" submit \
    -bench gcc_r -scheme fence -variant ep -warmup 200 -measure 1000 -wait \
    | json_field id)
[ -n "$probe_id" ] || { echo "probe-job submit returned no job ID"; exit 1; }
"$workdir/plctl" -server "${purls[0]}" cache probe "$probe_id" >"$workdir/probe.out" \
    || { echo "cache probe of a cached key failed"; cat "$workdir/probe.out"; exit 1; }
grep -q "^hit $probe_id bytes=" "$workdir/probe.out" \
    || { echo "unexpected probe output:"; cat "$workdir/probe.out"; exit 1; }
set +e
"$workdir/plctl" -server "${purls[0]}" cache probe nosuchkey >"$workdir/probe_miss.out"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "cache probe of an unknown key exited $rc, want 2"; exit 1; }
grep -q "^miss nosuchkey" "$workdir/probe_miss.out" \
    || { echo "unexpected miss output:"; cat "$workdir/probe_miss.out"; exit 1; }

echo "fleet integration: OK"
