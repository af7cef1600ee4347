#!/usr/bin/env bash
# trajectory.sh [BENCH_PR<NN>.json ...]: the perf trajectory across the
# committed paired-run records (`make pair RECORD=FILE`). Prints one row
# per (workload, end-to-end metric) and one column per record, in PR
# order; each cell is that record's parent -> change medians, read from
# its summary rows ("-" where the record has no such row). With no
# arguments it reads every BENCH_PR*.json at the repository root.
# `make trajectory` runs it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -gt 0 ] || set -- "$root"/BENCH_PR*.json
for f in "$@"; do
	[ -f "$f" ] || { echo "trajectory: no record $f" >&2; exit 1; }
done

# PR order: by the number after BENCH_PR in each file name.
printf '%s\n' "$@" |
	awk '{ n = $0; sub(/^.*BENCH_PR/, "", n); sub(/[^0-9].*$/, "", n); print n "\t" $0 }' |
	sort -n -k1,1 | cut -f2- |
	while IFS= read -r f; do
		label="$(basename "$f" .json)"
		label="${label#BENCH_}"
		jq -r --arg rec "$label" '.rows[] | [$rec, .workload, .metric, .parent.median, .change.median] | @tsv' "$f"
	done |
	awk -F'\t' '
		# width: display width of s; the arrow is one column however many
		# bytes this awk counts it as.
		function width(s) { return length(s) - (index(s, "→") ? length("→") - 1 : 0) }
		function pad(s, w) { while (width(s) < w) s = s " "; return s }
		!($1 in col) { col[$1] = ++ncol; label[ncol] = $1 }
		!(($2 "/" $3) in row) { row[$2 "/" $3] = ++nrow; key[nrow] = $2 "/" $3 }
		{ cell[row[$2 "/" $3], col[$1]] = sprintf("%.3f → %.3f", $4, $5) }
		END {
			w[0] = width("workload/metric")
			for (r = 1; r <= nrow; r++) if (width(key[r]) > w[0]) w[0] = width(key[r])
			for (c = 1; c <= ncol; c++) {
				w[c] = width(label[c])
				for (r = 1; r <= nrow; r++) {
					if (!((r, c) in cell)) cell[r, c] = "-"
					if (width(cell[r, c]) > w[c]) w[c] = width(cell[r, c])
				}
			}
			line = pad("workload/metric", w[0])
			for (c = 1; c <= ncol; c++) line = line "  " pad(label[c], w[c])
			sub(/ +$/, "", line)
			print line
			for (r = 1; r <= nrow; r++) {
				line = pad(key[r], w[0])
				for (c = 1; c <= ncol; c++) line = line "  " pad(cell[r, c], w[c])
				sub(/ +$/, "", line)
				print line
			}
		}'
