#!/usr/bin/env bash
# Heap-chaos smoke: seeded memory corruption and hard-limit backpressure
# against the real CLI binary (DESIGN.md §18). Requires:
#
#   1. detection: a profiling run with corruption planted at rate 1.0 on
#      the real backend exits 7, names the violated invariant on stderr,
#      and writes no profile;
#   2. backpressure: a run whose workload blows a 2 MiB hard limit exits 8
#      after one emergency full collection, leaving a committed fsck-clean
#      journal and a partial profile sealed with the `# polm2-oom` footer
#      and the OOM abort in its fault ledger;
#   3. identity: enabling `--verify-heap gc` changes no payload byte of an
#      uncorrupted run (comment lines — the fault ledger's verify-pass
#      count — legitimately differ; nothing else may);
#   4. fleet isolation: a fleet whose every tenant is corrupted exits 6
#      with each tenant quarantined as `heap-corrupt`;
#   5. backend identity at full size: a lucene profile on the real backend
#      is byte-identical to the same run on the sim backend. The run uses
#      the 256 MiB evaluation heap, so both real allocators grow chunks on
#      demand (the core suites compare backends only on a 4 MiB heap).
#
# Usage: scripts/heap_chaos_smoke.sh
# Env:   POLM2 (binary, default target/release/polm2)
set -euo pipefail
cd "$(dirname "$0")/.."

POLM2=${POLM2:-target/release/polm2}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== 1. seeded corruption is detected (exit 7, invariant named)"
code=0
"$POLM2" profile cassandra-wi --minutes 1 --chaos-heap 1.0 --chaos-seed 9 \
  --heap-backend real --out "$work/chaos.profile" 2>"$work/chaos.err" || code=$?
if [[ "$code" -ne 7 ]]; then
  echo "FAIL: corruption run exited $code, want 7"; cat "$work/chaos.err"; exit 1
fi
grep -q "integrity violation" "$work/chaos.err" || {
  echo "FAIL: stderr does not name the violation"; cat "$work/chaos.err"; exit 1; }
[[ ! -f "$work/chaos.profile" ]] || { echo "FAIL: corrupt run wrote a profile"; exit 1; }

echo "== 2. hard heap limit unwinds cleanly (exit 8, committed journal)"
code=0
"$POLM2" profile graphchi-cc --minutes 1 --heap-mb 2 \
  --journal "$work/oom-journal" --out "$work/oom.profile" 2>"$work/oom.err" || code=$?
if [[ "$code" -ne 8 ]]; then
  echo "FAIL: OOM run exited $code, want 8"; cat "$work/oom.err"; exit 1
fi
grep -q "# polm2-oom" "$work/oom.profile" || { echo "FAIL: no OOM footer"; exit 1; }
grep -q "# polm2-faults heap-oom-aborts 1" "$work/oom.profile" || {
  echo "FAIL: OOM abort missing from the fault ledger"; exit 1; }
"$POLM2" fsck "$work/oom-journal"

echo "== 3. verification changes no payload byte"
"$POLM2" profile cassandra-wi --minutes 1 --heap-backend real \
  --out "$work/plain.profile"
"$POLM2" profile cassandra-wi --minutes 1 --heap-backend real \
  --verify-heap gc --out "$work/verified.profile"
grep -q "# polm2-faults heap-verify-passes" "$work/verified.profile" || {
  echo "FAIL: verified run ledgered no verify passes"; exit 1; }
diff <(grep -v '^#' "$work/plain.profile") <(grep -v '^#' "$work/verified.profile") || {
  echo "FAIL: --verify-heap gc changed the profile payload"; exit 1; }

echo "== 4. fleet quarantines every corrupted tenant (exit 6)"
code=0
"$POLM2" fleet --tenants 2 --minutes 1 --chaos-heap 1.0 --chaos-seed 9 \
  --heap-backend real --journal-root "$work/fleet-journals" \
  --out "$work/fleet.profile" >"$work/fleet.out" 2>&1 || code=$?
if [[ "$code" -ne 6 ]]; then
  echo "FAIL: all-corrupt fleet exited $code, want 6"; cat "$work/fleet.out"; exit 1
fi
grep -q "heap-corrupt" "$work/fleet.out" || {
  echo "FAIL: quarantine ledger does not say heap-corrupt"; cat "$work/fleet.out"; exit 1; }

echo "== 5. real and sim backends write the same profile"
"$POLM2" profile lucene --minutes 1 --heap-backend real --out "$work/real.profile"
"$POLM2" profile lucene --minutes 1 --heap-backend sim --out "$work/sim.profile"
cmp "$work/real.profile" "$work/sim.profile" || {
  echo "FAIL: the real backend changed the lucene profile"; exit 1; }

echo "heap-chaos smoke passed"
