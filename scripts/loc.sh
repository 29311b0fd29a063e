#!/usr/bin/env bash
# loc.sh — the tracked size of the code: non-test and test Go lines per
# package, plus totals. ROADMAP aim 2 makes the net line count a number
# that PRs report; this is the command behind it, printed by the CI
# test job. benchmark/ is a module of its own with its own acceptance
# rules and is left out; nothing else is.
#
# Usage: scripts/loc.sh   (from anywhere inside the repository)
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

total_code=0
total_test=0
printf '%-28s %9s %9s\n' package non-test test
while IFS= read -r dir; do
	code=()
	tests=()
	for f in "$dir"/*.go; do
		case "$f" in
		*_test.go) tests+=("$f") ;;
		*) code+=("$f") ;;
		esac
	done
	c=$(count "${code[@]}")
	t=$(count "${tests[@]}")
	total_code=$((total_code + c))
	total_test=$((total_test + t))
	printf '%-28s %9d %9d\n' "$dir" "$c" "$t"
done < <(find . -name '*.go' -not -path './benchmark/*' -not -path './.*' -printf '%h\n' | sort -u)
printf '%-28s %9d %9d\n' total "$total_code" "$total_test"
