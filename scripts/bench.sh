#!/usr/bin/env bash
# bench.sh — the committed-results half of the end-to-end benchmark
# (ROADMAP item 1): run benchmark/run.sh once per workload that
# BENCHMARK.json declares, keep the JSON each run prints as its last
# line, and write them as one file at the repository root — outside
# benchmark/, which no PR edits. A number in EXPERIMENTS.md counts when a
# committed BENCH_pr<N>.json records it and this command regenerates it.
#
# Usage: scripts/bench.sh <N> [seed]
#   N     the PR number: the output is BENCH_pr<N>.json
#   seed  the workload seed (default 1)
# BENCH_TRACE=1 runs with the layer ledger on (benchmark/run.sh --trace 1).
#
# One run per workload is a record of this host on this day, not a
# comparison: a claimed gain still needs alternating parent/change pairs
# (see the choosing-metrics guide and EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 1 ]; then
	echo "usage: scripts/bench.sh <pr-number> [seed]" >&2
	exit 2
fi
pr=$1
seed=${2:-1}
trace=${BENCH_TRACE:-0}
out="BENCH_pr${pr}.json"

# The run length and the workload names come from the benchmark's own
# declaration: a workload entry is a "name" followed by its "why".
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/[^0-9]/, "", $2); print $2 }' BENCHMARK.json)
mapfile -t workloads < <(awk -F'"' '/"name":/ { name = $4 } /"why":/ { print name }' BENCHMARK.json)
if [ -z "$seconds" ] || [ "${#workloads[@]}" -eq 0 ]; then
	echo "bench.sh: could not read run_seconds and workloads from BENCHMARK.json" >&2
	exit 1
fi

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	commit="${commit}+dirty"
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
{
	printf '{\n  "pr": %s,\n  "commit": "%s",\n  "seed": %s,\n  "seconds": %s,\n  "trace": %s,\n  "workloads": {\n' \
		"$pr" "$commit" "$seed" "$seconds" "$trace"
	sep=""
	for w in "${workloads[@]}"; do
		echo "bench.sh: $w (seed $seed, ${seconds}s)" >&2
		line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
		case "$line" in
		"{"*"}") ;;
		*)
			echo "bench.sh: $w printed no JSON result: $line" >&2
			exit 1
			;;
		esac
		printf '%s    "%s": %s' "$sep" "$w" "$line"
		sep=$',\n'
	done
	printf '\n  }\n}\n'
} >"$tmp"
mv "$tmp" "$out"
trap - EXIT
echo "bench.sh: wrote $out" >&2
