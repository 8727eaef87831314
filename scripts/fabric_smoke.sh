#!/usr/bin/env bash
# fabric_smoke.sh — distributed-sweep fabric smoke test.
#
# Runs one adaptive matrix three ways through the real CLIs:
#
#   1. single machine:        sweep -checkpoint ... (the reference)
#   2. coordinator + workers: sweepd + two `sweep -worker` processes,
#      one of which is SIGKILLed mid-run (its leases must be reissued)
#
# and asserts that the fabric run's report JSON is byte-identical to
# the single-machine reference, and that the two manifests agree on
# every deterministic field (spec echo, adaptive parameters, committed
# trial counts, stop reasons, convergence traces — everything except
# the tool name and the timing/scheduling provenance).
#
# The coordinator runs fully instrumented (-status, -events): mid-run
# the smoke scrapes /metrics for fleet gauges, and post-run it checks
# the event log for the fabric lifecycle kinds (worker-join/leave,
# lease-grant) and the manifest's fleet table for worker identities.
#
# Usage: scripts/fabric_smoke.sh [workdir]   (requires curl and jq)
set -euo pipefail

dir="${1:-$(mktemp -d)}"
mkdir -p "$dir"
go build -o "$dir/sweep" ./cmd/sweep
go build -o "$dir/sweepd" ./cmd/sweepd

# The resume-smoke matrix: a CI target tight enough that the run lasts
# a few seconds — long enough to kill a worker while it holds leases.
args=(-topo clique:8,12 -topo path:16,24 -algos baseline-decay
      -ci 0.0015 -ci-measure maxEnergy -min-trials 40 -max-trials 30000
      -batch 20 -seed 9)

echo "fabric_smoke: single-machine reference run"
"$dir/sweep" "${args[@]}" -checkpoint "$dir/ref.ckpt" \
  -json "$dir/ref.json" -manifest "$dir/ref.manifest.json" \
  -events "$dir/ref.events.jsonl" >/dev/null

# The journaled reference run must log its checkpoint fsyncs.
if ! jq -es '[.[] | select(.event == "checkpoint-fsync")] | length > 0' \
    "$dir/ref.events.jsonl" >/dev/null; then
  echo "fabric_smoke: FAIL: journaled run logged no checkpoint-fsync events" >&2
  exit 1
fi

echo "fabric_smoke: coordinator + two workers (one SIGKILLed mid-run)"
"$dir/sweepd" "${args[@]}" -listen 127.0.0.1:0 -lease-timeout 5s \
  -json "$dir/fab.json" -manifest "$dir/fab.manifest.json" \
  -status 127.0.0.1:0 -events "$dir/fab.events.jsonl" \
  >/dev/null 2>"$dir/sweepd.stderr" &
dpid=$!

# The resolved ephemeral address is announced on stderr as
# "sweepd: coordinating on ADDR — ...".
addr=""
for _ in $(seq 1 50); do
  addr=$(sed -n 's/^sweepd: coordinating on \([^ ]*\) .*/\1/p' "$dir/sweepd.stderr" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "fabric_smoke: FAIL: coordinator never announced its address" >&2
  cat "$dir/sweepd.stderr" >&2
  kill "$dpid" 2>/dev/null || true
  exit 1
fi

# The status endpoint is announced separately as
# "sweepd: status endpoint on http://ADDR/status (workers on /fabric)".
saddr=""
for _ in $(seq 1 50); do
  saddr=$(sed -n 's|^sweepd: status endpoint on http://\([^/]*\)/status.*|\1|p' "$dir/sweepd.stderr" | head -1)
  [ -n "$saddr" ] && break
  sleep 0.1
done
if [ -z "$saddr" ]; then
  echo "fabric_smoke: FAIL: status endpoint never announced" >&2
  cat "$dir/sweepd.stderr" >&2
  kill "$dpid" 2>/dev/null || true
  exit 1
fi

"$dir/sweep" -worker "$addr" -workers 2 2>"$dir/victim.stderr" &
victim=$!
"$dir/sweep" -worker "$addr" -workers 2 2>"$dir/survivor.stderr" &
survivor=$!

# Mid-run /metrics scrape: poll until the fleet is working — committed
# trials moving and per-worker gauges exported.
live=""
for _ in $(seq 1 100); do
  if ! kill -0 "$dpid" 2>/dev/null; then break; fi
  if curl -sf --max-time 5 "http://$saddr/metrics" -o "$dir/fab.metrics.txt" 2>/dev/null &&
     committed=$(awk '$1 == "sweep_trials_committed_total" { print $2 }' "$dir/fab.metrics.txt") &&
     awk -v c="${committed:-0}" 'BEGIN { exit !(c > 0) }' &&
     fleet=$(awk '$1 == "sweep_fabric_workers" { print $2 }' "$dir/fab.metrics.txt") &&
     awk -v f="${fleet:-0}" 'BEGIN { exit !(f > 0) }'; then
    live=yes
    break
  fi
  sleep 0.1
done
if [ -z "$live" ]; then
  echo "fabric_smoke: FAIL: no live /metrics scrape with fleet gauges captured mid-run" >&2
  kill "$dpid" 2>/dev/null || true
  exit 1
fi
for want in \
  '^# TYPE sweep_fabric_workers gauge$' \
  '^# TYPE sweep_fabric_worker_leases gauge$' \
  '^# TYPE sweep_lease_round_trip_seconds histogram$' \
  '^sweep_fabric_worker_leases{worker="' ; do
  if ! grep -q "$want" "$dir/fab.metrics.txt"; then
    echo "fabric_smoke: FAIL: /metrics lacks $want" >&2
    head -60 "$dir/fab.metrics.txt" >&2
    kill "$dpid" 2>/dev/null || true
    exit 1
  fi
done
echo "fabric_smoke: /metrics OK — $committed trials committed mid-run, fleet gauges live"

# SIGKILL the victim as soon as /metrics shows it holding a lease — no
# cleanup, its socket just dies. The coordinator must reissue its
# in-flight batches. The kill waits for the victim's lease gauge (its
# worker name is host:pid), not for a fixed delay, so it lands mid-run
# however fast the trials are.
held=""
for _ in $(seq 1 500); do
  if ! kill -0 "$dpid" 2>/dev/null; then break; fi
  if curl -sf --max-time 5 "http://$saddr/metrics" -o "$dir/kill.metrics.txt" 2>/dev/null &&
     grep -q "^sweep_fabric_worker_leases{worker=\"[^\"]*:$victim\"} [1-9]" "$dir/kill.metrics.txt"; then
    held=yes
    break
  fi
  sleep 0.01
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
if [ -z "$held" ]; then
  echo "fabric_smoke: FAIL: the victim never held a lease while the run was live" >&2
  kill "$dpid" 2>/dev/null || true
  exit 1
fi

if ! wait "$survivor"; then
  echo "fabric_smoke: FAIL: surviving worker exited non-zero" >&2
  cat "$dir/survivor.stderr" >&2
  exit 1
fi
if ! wait "$dpid"; then
  echo "fabric_smoke: FAIL: coordinator exited non-zero" >&2
  cat "$dir/sweepd.stderr" >&2
  exit 1
fi

echo "fabric_smoke: comparing report bytes"
if ! cmp "$dir/ref.json" "$dir/fab.json"; then
  echo "fabric_smoke: FAIL: fabric report differs from single-machine reference" >&2
  exit 1
fi

echo "fabric_smoke: comparing manifest deterministic sections"
# Everything deterministic must agree; only the tool name and the
# timing/scheduling fields (snapshot rates, wall-clocks, phases,
# statusAddr) may differ between sweep and sweepd.
det='{version, spec, adaptive,
      trialsCommitted: .snapshot.trialsCommitted,
      faultCrashes: (.snapshot.faultCrashes // 0),
      faultSleeps: (.snapshot.faultSleeps // 0),
      faultErasures: (.snapshot.faultErasures // 0),
      traceMeasures,
      cells: [.cells[] | {cell: .cell, label: .label, trials: .trials,
                          stop: .stop, trace: .trace}]}'
jq -S "$det" "$dir/ref.manifest.json" > "$dir/ref.det.json"
jq -S "$det" "$dir/fab.manifest.json" > "$dir/fab.det.json"
if ! diff -u "$dir/ref.det.json" "$dir/fab.det.json"; then
  echo "fabric_smoke: FAIL: manifest deterministic sections differ" >&2
  exit 1
fi

# The victim must have been noticed: the coordinator logs the lost
# connection and the returned leases.
if ! grep -q "worker .* left" "$dir/sweepd.stderr"; then
  echo "fabric_smoke: FAIL: coordinator never logged the killed worker" >&2
  cat "$dir/sweepd.stderr" >&2
  exit 1
fi

# The coordinator's event log must carry the fabric lifecycle: both
# workers joining, leases granted, and the victim's departure.
if ! jq -es 'all(.[]; (.event | type == "string") and (.t | type == "string"))' \
    "$dir/fab.events.jsonl" >/dev/null; then
  echo "fabric_smoke: FAIL: coordinator event log has malformed lines" >&2
  head -5 "$dir/fab.events.jsonl" >&2
  exit 1
fi
for check in \
  '[.[] | select(.event == "worker-join")] | length >= 2' \
  '[.[] | select(.event == "lease-grant")] | length >= 2' \
  '[.[] | select(.event == "worker-leave")] | length >= 1' \
  '[.[] | select(.event == "cell-stop")] | length == 4' \
  '[.[] | select(.event == "worker-join")] | all(.worker != "" and .addr != "" and .version != "")'; do
  if ! jq -es "$check" "$dir/fab.events.jsonl" >/dev/null; then
    echo "fabric_smoke: FAIL: event log check failed: $check" >&2
    jq -s 'group_by(.event) | map({(.[0].event): length}) | add' "$dir/fab.events.jsonl" >&2
    exit 1
  fi
done
echo "fabric_smoke: event log OK — $(wc -l < "$dir/fab.events.jsonl") events with fabric lifecycle kinds"

# The manifest's fleet table lists every worker with its code version
# and resolved remote address; the victim is flagged stale.
if ! jq -e '
  (.fleet | length) >= 2 and
  (.fleet | all(.name != "" and .addr != "" and .version != "")) and
  ([.fleet[] | select(.stale)] | length) >= 1 and
  ([.fleet[].snapshot.trialsRun] | add) >= .snapshot.trialsCommitted
' "$dir/fab.manifest.json" >/dev/null; then
  echo "fabric_smoke: FAIL: manifest fleet table malformed" >&2
  jq '.fleet' "$dir/fab.manifest.json" >&2
  exit 1
fi
echo "fabric_smoke: manifest fleet OK — $(jq '.fleet | length' "$dir/fab.manifest.json") workers, victim flagged stale"

echo "fabric_smoke: OK (report byte-identical, manifests agree, killed worker reissued)"
