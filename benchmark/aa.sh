#!/usr/bin/env bash
# A/A check: runs the benchmark as two interleaved sets of runs of the
# SAME code and compares the sets' medians, per workload and end-to-end
# metric, against the bounds in BENCHMARK.json. Two sets that disagree by
# more than a bound mean the benchmark cannot resolve a change of that
# size on this host. A run of set a and a run of set b of the same
# workload are adjacent in time, and which of them goes first alternates
# from round to round, so that neither set is systematically the one that
# runs on a colder or a busier host. Each difference is also held against
# the threshold the issue that specified this benchmark set for this very
# check (0.10, set-up 0.15, model I/Os 0.01). Writes the table to
# benchmark/AA.md (seed 1) or benchmark/AA.seed<N>.md and exits non-zero
# on any difference beyond its bound or its threshold.
#
# usage: benchmark/aa.sh [runs-per-set (default 5)] [seed (default 1)]
set -euo pipefail
runs=${1:-5}
seed=${2:-1}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build/aa"
rm -rf "$out"
mkdir -p "$out"
table=benchmark/AA.md
if [ "$seed" != 1 ]; then
	table="benchmark/AA.seed$seed.md"
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for i in $(seq 1 "$runs"); do
	order="a b"
	if [ $((i % 2)) -eq 0 ]; then
		order="b a"
	fi
	for w in $workloads; do
		for side in $order; do
			echo "round $i of $runs, set $side: $w" >&2
			# Different scratch directories per set, as two checkouts would have.
			bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				--dir "$out/scratch-$side" >"$out/$side.$w.$i.txt"
		done
	done
done

python3 - "$out" "$runs" "$seed" <<'EOF' | tee "$table"
import glob, json, os, platform, statistics, subprocess, sys
out, runs, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
goversion = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
print("# A/A: two interleaved sets of runs of the same code\n")
print("Written by `benchmark/aa.sh %d %s`: %d runs per set of %d s, seed %s. %d vCPUs, kernel %s, %s.\n"
      % (runs, seed, runs, bench["run_seconds"], seed, os.cpu_count(), platform.release(), goversion))
# ISSUE 12, acceptance criterion 3.
asked = {"setup_s": 0.15, "ops_per_s": 0.10, "req_p50_us": 0.10, "cpu_us_per_op": 0.10,
         "model_ios_per_op": 0.01, "peak_rss_mb": 0.10}
print("| workload | metric | median A | median B | rel. diff | bound | | ISSUE 12 asks | |")
print("|---|---|---|---|---|---|---|---|---|")
bad = missed = 0
host = []
for w in (x["name"] for x in bench["workloads"]):
    sets = {}
    for s in "ab":
        vals = {}
        for path in sorted(glob.glob("%s/%s.%s.*.txt" % (out, s, w))):
            lines = open(path).read().strip().split("\n")
            for k, v in json.loads(lines[-1])["metrics"].items():
                vals.setdefault(k, []).append(v["value"])
            diag = {l.split()[0].split("/")[1]: l.split()[1] for l in lines if l.startswith(w + "/host.")}
            host.append("| %s | %s | %s | %s | %s | %s | %s |" % (s, w, os.path.basename(path).split(".")[-2],
                        diag["host.handoff_us"], diag["host.steal_frac"], diag["host.quiet_segments"], diag["host.noisy"]))
        sets[s] = vals
    for m in bench["end_to_end"]:
        a, b = (statistics.median(sets[s][m["name"]]) for s in "ab")
        diff = abs(a - b) / min(a, b)
        ok, met = diff <= m["bound"], diff <= asked[m["name"]]
        bad, missed = bad + (not ok), missed + (not met)
        print("| %s | %s | %.6g | %.6g | %.4f | %.2f | %s | %.2f | %s |" % (w, m["name"], a, b, diff, m["bound"],
              "ok" if ok else "**beyond bound**", asked[m["name"]], "met" if met else "**not met**"))
print("\nThe host during each run (`host.handoff_us`: mean loopback round trip, the host-speed unit; `host.steal_frac`: median stolen share of a segment; quiet: segments with at most 2 % stolen; noisy: 1 when fewer than half were quiet or no set-up was):\n")
print("| set | workload | round | host.handoff_us | host.steal_frac | quiet segments | host.noisy |")
print("|---|---|---|---|---|---|---|")
for h in host:
    print(h)
print("\n%s" % ("All differences within their bounds." if not bad else "%d differences beyond their bounds." % bad))
print("%s" % ("All differences within what ISSUE 12 asks." if not missed else "%d differences beyond what ISSUE 12 asks." % missed))
sys.exit(1 if bad or missed else 0)
EOF
