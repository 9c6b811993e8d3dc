#!/usr/bin/env bash
# A/A check: two sets of ten runs (seeds 1-10) per workload on one build.
# For every workload x end-to-end metric it prints both medians, both
# interquartile ranges (statistics.quantiles(n=4), as the driver takes
# them) as a share of the median, how much worse the second median is,
# and the bound from BENCHMARK.json. Run from anywhere:
#
#   perf/aa.sh | tee perf/baseline/aa.txt     # about 31 minutes
#   perf/aa.sh report                         # judge the last runs again
#
# It exits non-zero when a spread exceeds its bound (setup_s excepted, as
# in the driver) or the second median is worse than the first by more
# than the bound. Spreads above half their bound are marked and counted:
# on a quiet box there are none; see README.md for what this box does.
set -euo pipefail
cd "$(dirname "$0")/.."

# The runs' result lines stay here (ignored by git) for a closer look.
out=perf/out/aa

if [ "${1:-}" != report ]; then
  target="${CARGO_TARGET_DIR:-perf/target}"
  cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
  bin="$target/release/hypersub-perf"
  seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
  workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  rm -rf "$out"
  mkdir -p "$out"
  "$bin" selftest >"$out/selftest.txt"
  for w in $workloads; do
    for set in A B; do
      for seed in 1 2 3 4 5 6 7 8 9 10; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
          2>>"$out/stderr.log" | tail -n 1 >>"$out/$w.$set.jsonl"
      done
    done
  done
fi

cat "$out/selftest.txt"
python3 - "$out" <<'PY'
import json, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
ok, over_half = True, 0
print(f"A/A: two sets of ten runs (seeds 1-10), --seconds {bench['run_seconds']}, --trace 0")
for w in (x["name"] for x in bench["workloads"]):
    sets = []
    for s in "AB":
        rows = [json.loads(line) for line in open(f"{out}/{w}.{s}.jsonl")]
        assert len(rows) == 10 and all(r["correct"] and r["failed"] == 0 for r in rows), w
        sets.append(rows)
    print(f"\n{w}")
    print(f"  {'metric':22s} {'median A':>12s} {'median B':>12s} {'iqr A':>7s} {'iqr B':>7s} {'B worse':>8s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds, iqrs = [], []
        for rows in sets:
            v = [r["metrics"][name]["value"] for r in rows]
            q = statistics.quantiles(v, n=4)
            meds.append(statistics.median(v))
            iqrs.append((q[2] - q[0]) / meds[-1])
        worse = (meds[1] - meds[0]) / meds[0]
        if m["better"] == "higher":
            worse = -worse
        good = worse <= bound and (name == "setup_s" or max(iqrs) <= bound)
        half = max(iqrs) > bound / 2
        ok &= good
        over_half += half
        note = "" if good else "  <-- FAIL"
        note += "  (over half the bound)" if half and good else ""
        print(f"  {name:22s} {meds[0]:12.6g} {meds[1]:12.6g} {iqrs[0]:7.4f} {iqrs[1]:7.4f} {worse:+8.4f} {bound:6.2f}{note}")
pairs = len(bench["workloads"]) * len(bench["end_to_end"])
print(f"\n{'PASS' if ok else 'FAIL'}: {over_half} of {pairs} workload x metric pairs have a spread over half their bound")
sys.exit(0 if ok else 1)
PY
