#!/usr/bin/env bash
# loc.sh — the tracked size of the code: non-test and test Go lines per
# package, plus totals. ROADMAP aim 2 makes the net line count a number
# that PRs report; this is the command behind it, printed by the CI
# test job. benchmark/ is a module of its own with its own acceptance
# rules and is left out; nothing else is.
#
# Given a revision, it also counts the tree at that revision the same way
# (extracted with git archive into a temporary directory) and adds a
# delta column for each count and a delta total: the change's line delta
# against, for example, the base of a pull request.
#
# Usage: scripts/loc.sh [rev]   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

# count FILE... prints the summed line count of its arguments (0 for none).
count() {
	if [ "$#" -eq 0 ]; then
		echo 0
	else
		cat "$@" | wc -l
	fi
}

# measure ROOT prints "package non-test test" for every package of the
# tree at ROOT, in package order.
measure() {
	local root=$1 dir f
	local -a srcs tsts
	while IFS= read -r dir; do
		srcs=()
		tsts=()
		for f in "$root/$dir"/*.go; do
			case "$f" in
			*_test.go) tsts+=("$f") ;;
			*) srcs+=("$f") ;;
			esac
		done
		printf '%s %d %d\n' "$dir" "$(count "${srcs[@]}")" "$(count "${tsts[@]}")"
	done < <(cd "$root" && find . -name '*.go' -not -path './benchmark/*' -not -path './.*' -printf '%h\n' | sort -u)
}

declare -A code tests base_code base_tests
while read -r dir c t; do
	code[$dir]=$c
	tests[$dir]=$t
done < <(measure .)
rev=${1:-}
if [ -n "$rev" ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	git archive "$rev" | tar -x -C "$tmp"
	while read -r dir c t; do
		base_code[$dir]=$c
		base_tests[$dir]=$t
	done < <(measure "$tmp")
fi

# row NAME NON-TEST TEST [ΔNON-TEST ΔTEST] prints one line of the table.
row() {
	if [ -n "$rev" ]; then
		printf '%-28s %9d %9d %+9d %+9d\n' "$@"
	else
		printf '%-28s %9d %9d\n' "$1" "$2" "$3"
	fi
}

total_code=0
total_test=0
delta_code=0
delta_test=0
if [ -n "$rev" ]; then
	printf '%-28s %9s %9s %9s %9s\n' package non-test test Δnon-test Δtest
else
	printf '%-28s %9s %9s\n' package non-test test
fi
while IFS= read -r dir; do
	c=${code[$dir]:-0}
	t=${tests[$dir]:-0}
	bc=${base_code[$dir]:-0}
	bt=${base_tests[$dir]:-0}
	dc=$((c - bc))
	dt=$((t - bt))
	total_code=$((total_code + c))
	total_test=$((total_test + t))
	delta_code=$((delta_code + dc))
	delta_test=$((delta_test + dt))
	row "$dir" "$c" "$t" "$dc" "$dt"
done < <(printf '%s\n' "${!code[@]}" "${!base_code[@]}" | sort -u)
row total "$total_code" "$total_test" "$delta_code" "$delta_test"
