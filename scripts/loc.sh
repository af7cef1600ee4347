#!/usr/bin/env bash
# loc.sh [--lock | --check]: non-test Go lines per package directory of the
# tree in the current directory, without the nested bench module and its
# build directory — the unit ROADMAP's line targets are stated in.
#
#   loc.sh          prints the count of every package and the total
#                   (`make loc`);
#   loc.sh --lock   writes the counts to loc.lock.json (`make loc-lock`);
#   loc.sh --check  fails, naming the package, its lock and the delta,
#                   when a package's count differs from loc.lock.json or
#                   a package is missing from it (`make loc-check`, which
#                   `make lint` runs).
set -euo pipefail
lock=loc.lock.json

count() {
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
		xargs -0 wc -l |
		awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1 } END { for (d in n) printf "%7d %s\n", n[d], d }' |
		sort -k2
}

case "${1:-}" in
"")
	count | awk '{ print; t += $1 } END { printf "%7d total\n", t }'
	;;
--lock)
	count | awk '{ row[NR] = sprintf("  \"%s\": %d", $2, $1) }
		END { print "{"; for (i = 1; i <= NR; i++) print row[i] (i < NR ? "," : ""); print "}" }' >"$lock"
	echo "loc: wrote $lock"
	;;
--check)
	[ -f "$lock" ] || { echo "loc-check: no $lock; run make loc-lock" >&2; exit 1; }
	count | awk -v lock="$lock" '
		FILENAME == lock {
			if (match($0, /"[^"]+": *[0-9]+/)) {
				split(substr($0, RSTART, RLENGTH), kv, /": */)
				want[substr(kv[1], 2)] = kv[2] + 0
			}
			next
		}
		{
			seen[$2] = 1
			if (!($2 in want)) {
				printf "loc-check: %s has %d lines and no entry in %s\n", $2, $1, lock
				bad = 1
			} else if ($1 != want[$2]) {
				printf "loc-check: %s has %d lines, its lock %d (%+d)\n", $2, $1, want[$2], $1 - want[$2]
				bad = 1
			}
		}
		END {
			for (p in want) if (!(p in seen)) {
				printf "loc-check: %s is locked at %d lines and has none\n", p, want[p]
				bad = 1
			}
			if (bad) {
				print "loc-check: run make loc-lock and state each delta in CHANGES.md"
				exit 1
			}
		}' "$lock" -
	;;
*)
	echo "usage: loc.sh [--lock | --check]" >&2
	exit 2
	;;
esac
