#!/usr/bin/env bash
# Alternated parent/change runs of the repository benchmark: the protocol a
# performance claim in this repository is judged by, scripted so authors and
# CI run the same thing.
#
#   bash budgets/pairs.sh PARENT_REV WORKLOAD SEEDS
#   bash budgets/pairs.sh HEAD~1 paper_warm 1-10,11
#
# The parent revision is exported with `git archive` into a temporary
# directory (the repository's own .git is left alone); the change is the
# working tree as it is at the start — its tracked and its untracked,
# not ignored files — copied into another one, so edits made while the
# pairs run are not measured. Each side builds the benchmark from its own
# source into its own .bench_build/ (benchmark/run.sh). For every seed the script runs
#
#   bash benchmark/run.sh --workload WORKLOAD --seed N --seconds 12 --trace 0
#
# once per side, the parent first in odd-numbered pairs and the change first
# in even-numbered ones, and prints one line per run. It then prints, per
# end-to-end metric of BENCHMARK.json: the median and quartiles of each side,
# the change in the median, how many pairs the change won, its bound verdict
# (no worse / WORSE beyond the bound), and whether the claim rule holds — the
# change wins at least 9 of every 10 pairs and its median is better by more
# than the parent's interquartile range. Last, it says whether every run had
# 0 failed operations and every self-check ok, and whether both sides wrote
# the same artifact on every seed. Every run's full output stays in the log
# directory it names. Nothing under benchmark/ is changed.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: bash budgets/pairs.sh PARENT_REV WORKLOAD SEEDS   (SEEDS like 1-10,11)" >&2
	exit 2
fi
rev=$1 workload=$2
seeds=()
for part in ${3//,/ }; do
	if [[ $part == *-* ]]; then
		seeds+=($(seq "${part%-*}" "${part#*-}"))
	else
		seeds+=("$part")
	fi
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
logs="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
	tar --null -T - -c) | tar -x -C "$tmp/change"
declare -A dir=([parent]="$tmp/parent" [change]="$tmp/change")

echo "pairs: parent $(git -C "$root" rev-parse --short "$rev"), change = the working tree of $root, copied at start"
echo "pairs: $workload, seeds ${seeds[*]}; logs in $logs"
for side in parent change; do
	(cd "${dir[$side]}" && bash benchmark/run.sh --manifest > /dev/null) # build once, before any timing
done

# summarize prints one run's line (a log file) or, with --summary, the
# comparison of every run in the log directory.
summarize() {
	python3 - "$root/BENCHMARK.json" "$logs" "$@" <<'EOF'
import json, os, re, statistics, sys

manifest, logs, args = sys.argv[1], sys.argv[2], sys.argv[3:]

def parse(path):
    text = open(path).read()
    last = [l for l in text.splitlines() if l.startswith("{")]
    res = json.loads(last[-1]) if last else {"correct": False, "attempted": 0, "failed": -1, "metrics": {}}
    sha = re.search(r"^artifact sha256 (\w+)", text, re.M)
    checks = re.findall(r"^  (\S+)\s+(ok|FAIL\S*)", text, re.M)
    return {
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
        "failed": res["failed"], "attempted": res["attempted"], "correct": res["correct"],
        "checks_ok": bool(checks) and all(v == "ok" for _, v in checks),
        "sha": sha.group(1) if sha else "none",
    }

def line(path):
    seed, side = os.path.basename(path)[:-4].split("-")
    r = parse(path)
    ms = " ".join(f"{k}={v:.4g}" for k, v in sorted(r["metrics"].items()))
    print(f"  seed {seed:>4} {side:<6} {ms} failed={r['failed']}/{r['attempted']} "
          f"checks={'ok' if r['checks_ok'] else 'FAIL'} sha={r['sha'][:12]}", flush=True)

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]

def summary(seeds):
    runs = {(s, side): parse(os.path.join(logs, f"{s}-{side}.txt")) for s in seeds for side in ("parent", "change")}
    for m in json.load(open(manifest))["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        p = [runs[s, "parent"]["metrics"].get(name) for s in seeds]
        c = [runs[s, "change"]["metrics"].get(name) for s in seeds]
        if None in p or None in c:
            print(f"  {name:<12} missing from some runs")
            continue
        pq1, pm, pq3 = quartiles(p)
        cq1, cm, cq3 = quartiles(c)
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        wins = sum(better(cv, pv) for pv, cv in zip(p, c))
        gap, iqr = abs(cm - pm), pq3 - pq1
        worse = (cm - pm) / pm if lower else (pm - cm) / pm
        verdict = f"WORSE beyond the {bound:.0%} bound" if worse > bound else "no worse"
        claim = "holds" if better(cm, pm) and 10 * wins >= 9 * len(seeds) and gap > iqr else "does not hold"
        print(f"  {name:<12} parent med {pm:.4g} [q1 {pq1:.4g} q3 {pq3:.4g}]  change med {cm:.4g} [q1 {cq1:.4g} q3 {cq3:.4g}]  "
              f"{(cm - pm) / pm:+.1%}, change ahead {wins}/{len(seeds)}, |gap| {gap:.4g} vs parent IQR {iqr:.4g}: {verdict}; claim rule {claim}")
    clean = all(r["failed"] == 0 and r["correct"] and r["checks_ok"] for r in runs.values())
    same = all(runs[s, "parent"]["sha"] == runs[s, "change"]["sha"] != "none" for s in seeds)
    print(f"  0 failed operations and every self-check ok on every run: {clean}")
    print(f"  artifact sha256 equal on every seed: {same}")

if args[0] == "--summary":
    summary(args[1:])
else:
    line(args[0])
EOF
}

for i in "${!seeds[@]}"; do
	seed=${seeds[$i]}
	order=(parent change)
	if (( i % 2 == 1 )); then
		order=(change parent)
	fi
	for side in "${order[@]}"; do
		out="$logs/$seed-$side.txt"
		(cd "${dir[$side]}" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 12 --trace 0) > "$out" 2>&1 || true
		summarize "$out"
	done
done
echo "$workload: ${#seeds[@]} pairs (seeds ${seeds[*]})"
summarize --summary "${seeds[@]}"
