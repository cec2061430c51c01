#!/usr/bin/env bash
# A/A noise check of the benchmark against its own bounds: two sets of
# untraced runs of the current tree per workload, every run with another
# seed, as the driver does it. For every workload × end-to-end metric it
# prints the two medians, by how much the second is worse than the first,
# and each set's interquartile range as a share of its median, next to the
# metric's bound. It exits non-zero when a spread or a worsening exceeds the
# bound.
#
#   bash bench/noise.sh                 # 10 runs per set, all workloads
#   RUNS=5 bash bench/noise.sh core1_busy fig7_fleet3
#   bash bench/noise.sh > bench/NOISE.md   # the table is markdown
#
# Run it from the root of the repository; it takes about
# 2 × RUNS × 25 s per workload.
set -euo pipefail

runs=${RUNS:-10}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

out=.bench_build/noise
rm -rf "$out"
mkdir -p "$out"
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)
host="nproc=$(nproc) cpu=\"$cpu\" go=$(go env GOVERSION)"

for w in "${workloads[@]}"; do
	for set in 1 2; do
		for i in $(seq 1 "$runs"); do
			seed=$(((set - 1) * runs + i))
			echo "noise: $w set $set run $i/$runs (seed $seed)" >&2
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --json \
				>>"$out/$w.set$set.jsonl"
		done
	done
done

python3 - "$out" "$runs" "$host" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, runs, host, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
spec = json.load(open("BENCHMARK.json"))
miss = False

print("# A/A noise of the benchmark against its own bounds\n")
print(f"Host: {host}. Two sets of {runs} untraced runs per workload, a different seed for")
print(f"every run, `--seconds {spec['run_seconds']}`. `worse` is how much the second set's median is")
print("worse than the first's; `iqr` is a set's interquartile range over its median")
print("(`statistics.quantiles(values, n=4)`). Regenerate with `bash bench/noise.sh > bench/NOISE.md`.\n")
print("| workload | metric | unit | median 1 | median 2 | worse | iqr 1 | iqr 2 | bound | ok |")
print("|---|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    sets = []
    for s in (1, 2):
        rows = [json.loads(line) for line in open(f"{out}/{w}.set{s}.jsonl")]
        bad = [r for r in rows if not r["correct"] or r["failed"]]
        if bad:
            print(f"noise: {w} set {s}: {len(bad)} runs with failed operations", file=sys.stderr)
            miss = True
        sets.append(rows)
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, iqr = [], []
        for rows in sets:
            vals = [r["metrics"][name]["value"] for r in rows]
            q = statistics.quantiles(vals, n=4)
            med.append(statistics.median(vals))
            iqr.append((q[2] - q[0]) / med[-1])
        worse = (med[1] - med[0]) / med[0]
        if m["better"] == "higher":
            worse = -worse
        ok = worse <= bound and max(iqr) <= bound
        miss |= not ok
        print(f"| {w} | {name} | {m['unit']} | {med[0]:.6g} | {med[1]:.6g} | {worse:+.2%} "
              f"| {iqr[0]:.2%} | {iqr[1]:.2%} | {bound:.0%} | {'yes' if ok else 'NO'} |")
sys.exit(1 if miss else 0)
EOF
