#!/usr/bin/env bash
# bench.sh — the committed-results half of the end-to-end benchmark
# (ROADMAP item 1): run benchmark/run.sh per workload that BENCHMARK.json
# declares, keep the JSON each run prints as its last line, and write
# them as one file at the repository root — outside benchmark/, which no
# PR edits. A number in EXPERIMENTS.md counts when a committed
# BENCH_pr<N>.json records it and this command regenerates it.
#
# Usage: scripts/bench.sh <N> [seed] [--against <rev> [--pairs [<workload>=]<P>]...]
#                                    [--workload <name>]... [--out <file>]
#   N          the PR number: the output is BENCH_pr<N>.json
#   seed       the workload seed (default 1)
#   --against  also build <rev> (a commit of this repository, from a local
#              git clone under the ignored .bench_build/against/) and run
#              alternating parent/change pairs: pair i runs the parent
#              first when i is odd and the change first when i is even
#   --pairs    pairs per workload (default 5); <workload>=<P> sets one
#              workload's count, e.g. --pairs durable_write=10 for a claim
#   --workload run only the named workloads (repeatable; default: all)
#   --out      write this file instead of BENCH_pr<N>.json
# BENCH_TRACE=1 runs with the layer ledger on (benchmark/run.sh --trace 1).
#
# Without --against a workload's entry is its one run: a record of this
# host on this day, not a comparison. With --against it is the change's
# median run — every metric's "value" is the median of the change's runs,
# so `benchdiff -e2e` reads the file as before — plus, per metric, both
# sides' medians and quartiles, the pairs the change won (by the metric's
# "better" in BENCHMARK.json) and every pair's two values; "host_handoff_us"
# gives each side's range of the host's loopback round trip. The top-level
# "against" names the parent. A claimed gain is judged on these pairs (see
# the choosing-metrics guide and EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
	echo "usage: scripts/bench.sh <pr-number> [seed] [--against <rev> [--pairs [<workload>=]<n>]...] [--workload <name>]... [--out <file>]" >&2
	exit 2
}
[ "$#" -ge 1 ] || usage
pr=$1
shift
seed=1
if [ "$#" -gt 0 ] && [[ $1 != --* ]]; then
	seed=$1
	shift
fi
against="" pairs=5 out="BENCH_pr${pr}.json"
declare -A wpairs=()
only=()
while [ "$#" -gt 0 ]; do
	[ "$#" -ge 2 ] || usage
	case "$1" in
	--against) against=$2 ;;
	--pairs)
		case "$2" in
		*=*) wpairs[${2%%=*}]=${2#*=} ;;
		*) pairs=$2 ;;
		esac
		;;
	--workload) only+=("$2") ;;
	--out) out=$2 ;;
	*) usage ;;
	esac
	shift 2
done
trace=${BENCH_TRACE:-0}

# The run length and the workload names come from the benchmark's own
# declaration: a workload entry is a "name" followed by its "why".
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/[^0-9]/, "", $2); print $2 }' BENCHMARK.json)
mapfile -t workloads < <(awk -F'"' '/"name":/ { name = $4 } /"why":/ { print name }' BENCHMARK.json)
if [ -z "$seconds" ] || [ "${#workloads[@]}" -eq 0 ]; then
	echo "bench.sh: could not read run_seconds and workloads from BENCHMARK.json" >&2
	exit 1
fi
if [ "${#only[@]}" -gt 0 ]; then
	for w in "${only[@]}"; do
		printf '%s\n' "${workloads[@]}" | grep -qx "$w" || { echo "bench.sh: unknown workload $w" >&2; exit 2; }
	done
	workloads=("${only[@]}")
fi

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	commit="${commit}+dirty"
fi

# run <checkout> <workload> <result file>: one benchmark run of the
# checkout's own benchmark/run.sh, whose last line (the JSON result) and
# host lines are kept.
run() {
	local lines
	lines=$(bash "$1/benchmark/run.sh" --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$trace" --dir "$1/.bench_build/scratch")
	case "$(tail -n 1 <<<"$lines")" in
	"{"*"}") ;;
	*)
		echo "bench.sh: $2 in $1 printed no JSON result" >&2
		exit 1
		;;
	esac
	printf '%s\n' "$lines" >"$3"
}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

if [ -z "$against" ]; then
	{
		printf '{\n  "pr": %s,\n  "commit": "%s",\n  "seed": %s,\n  "seconds": %s,\n  "trace": %s,\n  "workloads": {\n' \
			"$pr" "$commit" "$seed" "$seconds" "$trace"
		sep=""
		for w in "${workloads[@]}"; do
			echo "bench.sh: $w (seed $seed, ${seconds}s)" >&2
			run . "$w" "$tmp.run"
			printf '%s    "%s": %s' "$sep" "$w" "$(tail -n 1 "$tmp.run")"
			sep=$',\n'
		done
		printf '\n  }\n}\n'
	} >"$tmp"
	rm -f "$tmp.run"
	mv "$tmp" "$out"
	trap - EXIT
	echo "bench.sh: wrote $out" >&2
	exit 0
fi

rev=$(git rev-parse --verify "$against^{commit}")
parent=".bench_build/against/$rev"
if [ ! -d "$parent" ]; then
	mkdir -p .bench_build/against
	git clone -q --no-checkout . "$parent"
	git -C "$parent" checkout -q "$rev"
fi
results=".bench_build/against/results.$$"
rm -rf "$results"
mkdir -p "$results"
for w in "${workloads[@]}"; do
	n=${wpairs[$w]:-$pairs}
	for i in $(seq 1 "$n"); do
		order="parent change"
		if [ $((i % 2)) -eq 0 ]; then
			order="change parent"
		fi
		for side in $order; do
			echo "bench.sh: $w pair $i of $n, $side (seed $seed, ${seconds}s)" >&2
			dir=.
			if [ "$side" = parent ]; then
				dir=$parent
			fi
			run "$dir" "$w" "$results/$side.$w.$i.txt"
		done
	done
done

python3 - "$results" "$out" "$pr" "$commit" "$seed" "$seconds" "$trace" "$rev" "${workloads[@]}" <<'EOF' >"$tmp"
import glob, json, re, statistics, sys
results, out, pr, commit, seed, seconds, trace, rev = sys.argv[1:9]
workloads = sys.argv[9:]
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def load(side, w):
    runs = []
    paths = glob.glob("%s/%s.%s.*.txt" % (results, side, w))
    for path in sorted(paths, key=lambda p: int(p.split(".")[-2])):
        lines = open(path).read().strip().split("\n")
        res = json.loads(lines[-1])
        res["handoff"] = [float(l.split()[1]) for l in lines if l.startswith(w + "/host.handoff_us ")]
        runs.append(res)
    return runs

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

record = {"pr": int(pr), "commit": commit, "seed": int(seed), "seconds": int(seconds), "trace": int(trace),
          "against": {"rev": rev[:7]}, "workloads": {}}
for w in workloads:
    par, chg = load("parent", w), load("change", w)
    entry = {"correct": all(r["correct"] for r in par + chg),
             "attempted": chg[0]["attempted"],
             "failed": max(r["failed"] for r in chg),
             "parent_failed": max(r["failed"] for r in par),
             "pairs": len(chg),
             "metrics": {}}
    for m, v in chg[0]["metrics"].items():
        p = [r["metrics"][m]["value"] for r in par]
        c = [r["metrics"][m]["value"] for r in chg]
        pq, cq = quartiles(p), quartiles(c)
        if better.get(m) == "higher":
            wins = sum(b > a for a, b in zip(p, c))
        else:
            wins = sum(b < a for a, b in zip(p, c))
        entry["metrics"][m] = {"value": statistics.median(c), "unit": v["unit"],
                               "q1": cq[0], "q3": cq[1],
                               "parent": {"median": statistics.median(p), "q1": pq[0], "q3": pq[1]},
                               "wins": wins,
                               "pairs": [[a, b] for a, b in zip(p, c)]}
    handoff = lambda runs: [min(x for r in runs for x in r["handoff"]), max(x for r in runs for x in r["handoff"])] \
        if any(r["handoff"] for r in runs) else None
    entry["host_handoff_us"] = {"parent": handoff(par), "change": handoff(chg)}
    record["workloads"][w] = entry
# One line per list of numbers: a pair, and a metric's list of pairs.
squash = lambda m: re.sub(r"\s+", "", m.group(0)).replace(",", ", ")
text = re.sub(r"\[[^\[\]{}]*\]", squash, json.dumps(record, indent=2))
text = re.sub(r"\[(\s*\[[^\[\]]*\],?)+\s*\]", squash, text)
print(text)
EOF
rm -rf "$results"
mv "$tmp" "$out"
trap - EXIT
echo "bench.sh: wrote $out" >&2
