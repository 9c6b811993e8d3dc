#!/bin/bash
# Regenerates every table and figure of the paper at full scale, runs
# the adversity scenario pack (full tier) with invariant verdicts, and
# finishes with the five-system baseline shoot-out (full ladder).
#
# Resumable: each step that completes drops a stamp in
# results/.checkpoints/, and a rerun skips stamped steps, so a failed or
# interrupted sweep picks up from the last completed step instead of
# redoing hours of work. A failed step's partial output is archived to
# results/archive/ (timestamped) rather than silently clobbered on the
# next attempt. Use --fresh to clear the stamps and rerun everything.
#
# Exits nonzero (with a FAILED summary block) if any step fails.
set -u
cd "$(dirname "$0")"
BIN=target/release
STAMPS=results/.checkpoints
ARCHIVE=results/archive
mkdir -p results "$STAMPS"

if [ "${1:-}" = "--fresh" ]; then
  echo "fresh run requested: clearing $STAMPS"
  rm -f "$STAMPS"/*.done "$STAMPS"/soak/*.bin
fi

FAILED=()
SKIPPED=0
STEPS=0

# step NAME CMD...: unless NAME is stamped done, runs CMD with stdout to
# results/NAME.txt and its timing (and stderr) to results/NAME.time,
# then stamps it — or archives the partial output and records the failure.
step() {
  local b=$1
  shift
  STEPS=$((STEPS + 1))
  if [ -f "$STAMPS/$b.done" ]; then
    echo "=== $b already done ($(cat "$STAMPS/$b.done")), skipping ==="
    SKIPPED=$((SKIPPED + 1))
    return
  fi
  echo "=== $b start $(date +%T) ==="
  if { time "$@" > results/$b.txt ; } 2> results/$b.time ; then
    date -u +%Y-%m-%dT%H:%M:%SZ > "$STAMPS/$b.done"
  else
    echo "$b FAILED (see results/$b.txt, results/$b.time)"
    mkdir -p "$ARCHIVE"
    ts=$(date -u +%Y%m%dT%H%M%SZ)
    for f in results/$b.txt results/$b.time; do
      [ -s "$f" ] && cp "$f" "$ARCHIVE/$(basename "$f").$ts"
    done
    FAILED+=("$b")
  fi
  echo "=== $b done $(date +%T) ==="
}

for b in table1 table2 fig2to4 ablation_subscheme ablation_rotation ablation_base fig5; do
  step $b $BIN/$b
done

# Adversity scenario pack (full tier, fixed seed 7). Each scenario's
# verdict JSON lands in results/SCENARIO_<name>.json; a failed invariant
# exits nonzero and fails the sweep like any other binary.
for s in flash_crowd diurnal_waves asymmetric_partition slow_link; do
  step "scenario_$s" $BIN/scenario run --scenario "$s" --seed 7
done

# churn_soak advances one checkpointed segment per invocation through
# $STAMPS/soak, so an interrupted sweep resumes mid-soak instead of
# restarting the whole soak; the digest is identical either way.
churn_soak() {
  local out
  while true; do
    out=$($BIN/scenario run --scenario churn_soak --seed 7 --stamp-dir "$STAMPS/soak" 2>&1)
    local status=$?
    echo "$out"
    [ $status -eq 0 ] || return 1
    echo "$out" | tail -n 1 | grep -q 'checkpointed (resumable)' || return 0
  done
}
step scenario_churn_soak churn_soak

# Baseline shoot-out, full ladder (8k and 32k rungs, seed 7): five
# systems over one substrate, delivery-equivalence oracle enforced.
# Emits the table to results/shootout.txt and the unified document to
# results/SHOOTOUT.json; a failed oracle exits nonzero like any binary.
step shootout $BIN/shootout run --all --seed 7 --out results/SHOOTOUT.json

if [ ${#FAILED[@]} -gt 0 ]; then
  echo "=== FAILED ==="
  printf '%s\n' "${FAILED[@]}"
  echo "${#FAILED[@]} of $STEPS steps failed ($SKIPPED skipped as already done)"
  echo "rerun ./run_experiments.sh to resume from the last completed step"
  exit 1
fi
echo "ALL_DONE ($SKIPPED skipped as already done)"
