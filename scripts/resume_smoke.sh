#!/usr/bin/env bash
# resume_smoke.sh — checkpoint/resume round-trip smoke test.
#
# Runs the same adaptive sweep twice: once uninterrupted, once
# SIGKILLed mid-run and resumed from its journal. The two aggregate
# JSON exports must be byte-identical — the experiment controller's
# determinism contract, exercised end to end through the real CLI and a
# real kill -9 (torn trailing journal records included).
#
# Then a longer spec is stopped gracefully: a journaled `sweep`, and
# `sweepd -checkpoint` with one worker, each get a SIGTERM mid-run and
# must exit 130 with their resume hint; the sweep's -events log must
# parse line by line, and each resumed run must export the clean run's
# JSON byte for byte.
#
# Usage: scripts/resume_smoke.sh [workdir]   (requires jq)
set -euo pipefail

dir="${1:-$(mktemp -d)}"
mkdir -p "$dir"
bin="$dir/sweep"
go build -o "$bin" ./cmd/sweep

# A mixed easy/hard matrix under the cheap decay comparator: enough
# work that the kill lands mid-run, little enough that the smoke stays
# fast. The spec must be identical in both runs.
args=(-topo clique:8,12 -topo path:16,24 -algos baseline-decay
      -ci 0.0015 -ci-measure maxEnergy -min-trials 40 -max-trials 30000
      -batch 20 -seed 9)

echo "resume_smoke: clean run"
"$bin" "${args[@]}" -json "$dir/clean.json" >/dev/null

echo "resume_smoke: killed run"
rm -f "$dir/run.ckpt" # -checkpoint refuses to overwrite an existing journal
"$bin" "${args[@]}" -checkpoint "$dir/run.ckpt" -json "$dir/unused.json" >/dev/null 2>&1 &
pid=$!
# Give the run time to journal a few batches, then kill it dead.
sleep 1
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if [ ! -s "$dir/run.ckpt" ]; then
  echo "resume_smoke: FAIL — no journal written before the kill" >&2
  exit 1
fi
echo "resume_smoke: journal has $(stat -c %s "$dir/run.ckpt" 2>/dev/null || stat -f %z "$dir/run.ckpt") bytes after SIGKILL"

echo "resume_smoke: resuming"
"$bin" -resume "$dir/run.ckpt" -json "$dir/resumed.json" >/dev/null

if cmp -s "$dir/clean.json" "$dir/resumed.json"; then
  echo "resume_smoke: OK — resumed aggregate JSON is byte-identical to the uninterrupted run"
else
  echo "resume_smoke: FAIL — resumed aggregate JSON diverges from the uninterrupted run" >&2
  diff "$dir/clean.json" "$dir/resumed.json" | head -40 >&2 || true
  exit 1
fi

# The graceful-stop legs. A first SIGINT/SIGTERM must drain, journal
# and exit 130 with a resume hint, and the resumed run must again match
# an uninterrupted one. This spec runs several seconds (~6 s on a
# 2-vCPU host), so the signal lands mid-run.
long=(-topo clique:8,12 -topo path:16,24 -algos baseline-decay
      -ci 0.0005 -ci-measure maxEnergy -min-trials 40 -max-trials 60000
      -batch 20 -seed 9)

# fsize FILE — the file's size in bytes (0 when absent).
fsize() { if [ -f "$1" ]; then wc -c <"$1" | tr -d ' '; else echo 0; fi; }

# wait_grown FILE SIZE PID — wait (up to ~20 s) until FILE is larger
# than SIZE bytes while PID is alive; fails otherwise.
wait_grown() {
  local f="$1" size="$2" pid="$3"
  for _ in $(seq 1 400); do
    if [ "$(fsize "$f")" -gt "$size" ]; then return 0; fi
    if ! kill -0 "$pid" 2>/dev/null; then return 1; fi
    sleep 0.05
  done
  return 1
}

echo "resume_smoke: clean run of the long spec"
"$bin" "${long[@]}" -json "$dir/long.json" >/dev/null

echo "resume_smoke: SIGTERMed sweep"
rm -f "$dir/term.ckpt"
"$bin" "${long[@]}" -checkpoint "$dir/term.ckpt" -json "$dir/unused.json" \
  -events "$dir/term.events.jsonl" >/dev/null 2>"$dir/term.stderr" &
pid=$!
# sweep installs its signal handler before it creates the journal, so
# a non-empty journal means the SIGTERM takes the graceful path.
if ! wait_grown "$dir/term.ckpt" 0 "$pid"; then
  echo "resume_smoke: FAIL — sweep wrote no journal before exiting" >&2
  exit 1
fi
kill -TERM "$pid"
code=0
wait "$pid" || code=$?
if [ "$code" -ne 130 ]; then
  echo "resume_smoke: FAIL — SIGTERMed sweep exited $code, want 130" >&2
  cat "$dir/term.stderr" >&2
  exit 1
fi
if ! grep -qF "continue with: sweep -resume $dir/term.ckpt" "$dir/term.stderr"; then
  echo "resume_smoke: FAIL — SIGTERMed sweep printed no resume hint" >&2
  cat "$dir/term.stderr" >&2
  exit 1
fi
if ! jq -R 'fromjson' "$dir/term.events.jsonl" >/dev/null; then
  echo "resume_smoke: FAIL — the interrupted run's event log has a malformed line" >&2
  exit 1
fi
"$bin" -resume "$dir/term.ckpt" -json "$dir/term.json" >/dev/null
if ! cmp -s "$dir/long.json" "$dir/term.json"; then
  echo "resume_smoke: FAIL — JSON resumed after SIGTERM diverges from the uninterrupted run" >&2
  diff "$dir/long.json" "$dir/term.json" | head -40 >&2 || true
  exit 1
fi
echo "resume_smoke: OK — SIGTERM exits 130 with a resume hint, and the resumed JSON is byte-identical"

echo "resume_smoke: SIGTERMed sweepd with one worker"
go build -o "$dir/sweepd" ./cmd/sweepd
rm -f "$dir/termd.ckpt"
"$dir/sweepd" "${long[@]}" -checkpoint "$dir/termd.ckpt" -listen 127.0.0.1:0 \
  -json "$dir/unused.json" >/dev/null 2>"$dir/termd.stderr" &
dpid=$!
# The coordinator announces its address after its signal handler is in
# place: "sweepd: coordinating on ADDR — ...".
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^sweepd: coordinating on \([^ ]*\) .*/\1/p' "$dir/termd.stderr" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "resume_smoke: FAIL — sweepd never announced its address" >&2
  cat "$dir/termd.stderr" >&2
  kill "$dpid" 2>/dev/null || true
  exit 1
fi
header=$(fsize "$dir/termd.ckpt")
"$bin" -worker "$addr" 2>"$dir/termd.worker.stderr" &
wpid=$!
# Signal once a batch past the journal header is admitted.
if ! wait_grown "$dir/termd.ckpt" "$header" "$dpid"; then
  echo "resume_smoke: FAIL — sweepd journaled no batch before exiting" >&2
  cat "$dir/termd.stderr" >&2
  exit 1
fi
kill -TERM "$dpid"
code=0
wait "$dpid" || code=$?
wait "$wpid" 2>/dev/null || true
if [ "$code" -ne 130 ]; then
  echo "resume_smoke: FAIL — SIGTERMed sweepd exited $code, want 130" >&2
  cat "$dir/termd.stderr" >&2
  exit 1
fi
if ! grep -qF "continue with: sweepd -resume $dir/termd.ckpt -listen 127.0.0.1:0" "$dir/termd.stderr"; then
  echo "resume_smoke: FAIL — SIGTERMed sweepd printed no resume hint" >&2
  cat "$dir/termd.stderr" >&2
  exit 1
fi
"$dir/sweepd" -resume "$dir/termd.ckpt" -listen 127.0.0.1:0 \
  -json "$dir/termd.json" >/dev/null 2>"$dir/resumed.stderr" &
dpid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^sweepd: coordinating on \([^ ]*\) .*/\1/p' "$dir/resumed.stderr" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "resume_smoke: FAIL — resumed sweepd never announced its address" >&2
  cat "$dir/resumed.stderr" >&2
  kill "$dpid" 2>/dev/null || true
  exit 1
fi
"$bin" -worker "$addr" 2>/dev/null &
wpid=$!
if ! wait "$dpid"; then
  echo "resume_smoke: FAIL — resumed sweepd exited non-zero" >&2
  cat "$dir/resumed.stderr" >&2
  exit 1
fi
wait "$wpid" 2>/dev/null || true
if ! cmp -s "$dir/long.json" "$dir/termd.json"; then
  echo "resume_smoke: FAIL — sweepd JSON resumed after SIGTERM diverges from the uninterrupted run" >&2
  diff "$dir/long.json" "$dir/termd.json" | head -40 >&2 || true
  exit 1
fi
echo "resume_smoke: OK — sweepd SIGTERM exits 130 with a resume hint, and the resumed JSON is byte-identical"
