#!/bin/bash
# Regenerates every table and figure of the paper at full scale, runs
# the adversity scenario pack (full tier) with invariant verdicts, and
# finishes with the five-system baseline shoot-out (full ladder).
#
# Resumable: each binary that completes drops a stamp in
# results/.checkpoints/, and a rerun skips stamped steps, so a failed or
# interrupted sweep picks up from the last completed step instead of
# redoing hours of work. A failed step's partial output is archived to
# results/archive/ (timestamped) rather than silently clobbered on the
# next attempt. Use --fresh to clear the stamps and rerun everything.
#
# Exits nonzero (with a FAILED summary block) if any binary fails.
set -u
cd /root/repo
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
for b in table1 table2 fig2 fig4 fig3 ablation_subscheme ablation_rotation ablation_base fig5; do
  if [ -f "$STAMPS/$b.done" ]; then
    echo "=== $b already done ($(cat "$STAMPS/$b.done")), skipping ==="
    SKIPPED=$((SKIPPED + 1))
    continue
  fi
  echo "=== $b start $(date +%T) ==="
  if { time $BIN/$b > results/$b.txt ; } 2> results/$b.time ; then
    date -u +%Y-%m-%dT%H:%M:%SZ > "$STAMPS/$b.done"
  else
    echo "$b FAILED (see results/$b.time)"
    mkdir -p "$ARCHIVE"
    ts=$(date -u +%Y%m%dT%H%M%SZ)
    for f in results/$b.txt results/$b.time; do
      [ -s "$f" ] && cp "$f" "$ARCHIVE/$(basename "$f").$ts"
    done
    FAILED+=("$b")
  fi
  echo "=== $b done $(date +%T) ==="
done
# Adversity scenario pack (full tier, fixed seed 7). Each scenario's
# verdict JSON lands in results/SCENARIO_<name>.json; a failed invariant
# exits nonzero and fails the sweep like any other binary.
for s in flash_crowd diurnal_waves asymmetric_partition slow_link; do
  b="scenario_$s"
  if [ -f "$STAMPS/$b.done" ]; then
    echo "=== $b already done ($(cat "$STAMPS/$b.done")), skipping ==="
    SKIPPED=$((SKIPPED + 1))
    continue
  fi
  echo "=== $b start $(date +%T) ==="
  if { time $BIN/scenario run --scenario "$s" --seed 7 > results/$b.txt ; } 2> results/$b.time ; then
    date -u +%Y-%m-%dT%H:%M:%SZ > "$STAMPS/$b.done"
  else
    echo "$b FAILED (see results/$b.txt)"
    mkdir -p "$ARCHIVE"
    ts=$(date -u +%Y%m%dT%H%M%SZ)
    for f in results/$b.txt results/$b.time; do
      [ -s "$f" ] && cp "$f" "$ARCHIVE/$(basename "$f").$ts"
    done
    FAILED+=("$b")
  fi
  echo "=== $b done $(date +%T) ==="
done

# churn_soak advances one checkpointed segment per invocation through
# $STAMPS/soak, so an interrupted sweep resumes mid-soak instead of
# restarting the whole soak; the digest is identical either way.
b=scenario_churn_soak
if [ -f "$STAMPS/$b.done" ]; then
  echo "=== $b already done ($(cat "$STAMPS/$b.done")), skipping ==="
  SKIPPED=$((SKIPPED + 1))
else
  echo "=== $b start $(date +%T) ==="
  : > results/$b.txt
  SOAK_OK=1
  while true; do
    if ! $BIN/scenario run --scenario churn_soak --seed 7 --stamp-dir "$STAMPS/soak" >> results/$b.txt 2>&1; then
      SOAK_OK=0
      break
    fi
    tail -n 1 results/$b.txt | grep -q 'checkpointed (resumable)' || break
  done
  if [ $SOAK_OK -eq 1 ]; then
    date -u +%Y-%m-%dT%H:%M:%SZ > "$STAMPS/$b.done"
  else
    echo "$b FAILED (see results/$b.txt)"
    mkdir -p "$ARCHIVE"
    ts=$(date -u +%Y%m%dT%H%M%SZ)
    [ -s results/$b.txt ] && cp results/$b.txt "$ARCHIVE/$b.txt.$ts"
    FAILED+=("$b")
  fi
  echo "=== $b done $(date +%T) ==="
fi

# Baseline shoot-out, full ladder (8k and 32k rungs, seed 7): five
# systems over one substrate, delivery-equivalence oracle enforced.
# Emits the table to results/shootout.txt and the unified document to
# results/SHOOTOUT.json; a failed oracle exits nonzero like any binary.
b=shootout
if [ -f "$STAMPS/$b.done" ]; then
  echo "=== $b already done ($(cat "$STAMPS/$b.done")), skipping ==="
  SKIPPED=$((SKIPPED + 1))
else
  echo "=== $b start $(date +%T) ==="
  if { time $BIN/shootout run --all --seed 7 --out results/SHOOTOUT.json > results/$b.txt ; } 2> results/$b.time ; then
    date -u +%Y-%m-%dT%H:%M:%SZ > "$STAMPS/$b.done"
  else
    echo "$b FAILED (see results/$b.txt)"
    mkdir -p "$ARCHIVE"
    ts=$(date -u +%Y%m%dT%H%M%SZ)
    for f in results/$b.txt results/$b.time; do
      [ -s "$f" ] && cp "$f" "$ARCHIVE/$(basename "$f").$ts"
    done
    FAILED+=("$b")
  fi
  echo "=== $b done $(date +%T) ==="
fi

if [ ${#FAILED[@]} -gt 0 ]; then
  echo "=== FAILED ==="
  printf '%s\n' "${FAILED[@]}"
  echo "${#FAILED[@]} of 15 steps failed ($SKIPPED skipped as already done)"
  echo "rerun ./run_experiments.sh to resume from the last completed step"
  exit 1
fi
echo "ALL_DONE ($SKIPPED skipped as already done)"
