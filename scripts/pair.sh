#!/usr/bin/env bash
# pair.sh <parent-ref> [--workload W]... [--pairs N] [--seed S] [--seconds T]:
# the paired-run evidence of a change that claims a gain or must not move
# a metric. Exports the parent commit into a temporary directory and, for
# each workload (default: all four of BENCHMARK.json), runs N pairs
# (default 10) of fresh `bench/run.sh --workload W --seed S --seconds T
# --trace 0` processes, one from the export and one from this working
# tree, the side that goes first alternating from pair to pair. Prints,
# per workload, CHANGES.md's table: one row per end-to-end metric,
#
#   | metric | parent median [q1, q3] | change median [q1, q3] | Δ of the
#   medians | pairs the change won (ties) | BENCHMARK.json bound | inside |
#
# (quartiles by linear interpolation; a win is a pair in which the change
# read strictly better; `inside` means the change's median is no worse
# than the parent's by more than the bound, `OUTSIDE` that it is), every
# run's reading under its row, and the `cpu` line of /proc/stat before
# and after the workload's runs with the share of jiffies stolen between
# them: time metrics of a stretch with more than ~4 % steal are the
# host's, not the change's (.claude/skills/verify/SKILL.md). A claim
# holds when the change wins at least nine pairs in ten and the medians
# are further apart than the parent's q3 - q1. About N x 1 minute per
# workload; `make pair PARENT=<ref> [WORKLOAD=W] [PAIRS=N]` runs it.
set -euo pipefail
usage="usage: pair.sh <parent-ref> [--workload W]... [--pairs N] [--seed S] [--seconds T]"
parent="${1:?$usage}"
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workloads=()
pairs=10
seed=1
seconds="$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' "$root/BENCHMARK.json")"
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workloads+=("${2:?$usage}") ;;
	--pairs) pairs="${2:?$usage}" ;;
	--seed) seed="${2:?$usage}" ;;
	--seconds) seconds="${2:?$usage}" ;;
	*) echo "$usage" >&2; exit 2 ;;
	esac
	shift 2
done
if [ ${#workloads[@]} -eq 0 ]; then
	# The names of the "workloads" array: the first "name" keys of the file.
	mapfile -t workloads < <(awk -F'"' '/"end_to_end"/ { exit } /"name"/ { print $4 }' "$root/BENCHMARK.json")
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
. "$root/scripts/parent.sh"
export_parent "$parent" "$tmp/parent"

# run <side> <workload> <pair>: one fresh process; its last line (the JSON
# summary) is the record.
run() {
	local dir="$root"
	[ "$1" = parent ] && dir="$tmp/parent"
	echo "== $2 pair $3/$pairs: $1" >&2
	bash "$dir/bench/run.sh" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 2>"$tmp/$1.err" | tail -n 1 >"$tmp/$2.$1.$3.json" ||
		{ tail -n 20 "$tmp/$1.err" >&2; echo "pair: the $1 side failed on $2" >&2; exit 1; }
}

for w in "${workloads[@]}"; do
	stat_before="$(head -n 1 /proc/stat 2>/dev/null || true)"
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run parent "$w" "$i"
			run change "$w" "$i"
		else
			run change "$w" "$i"
			run parent "$w" "$i"
		fi
	done
	stat_after="$(head -n 1 /proc/stat 2>/dev/null || true)"

	for side in parent change; do
		for ((i = 1; i <= pairs; i++)); do
			printf '%s %d ' "$side" "$i"
			cat "$tmp/$w.$side.$i.json"
		done
	done | awk -v workload="$w" -v seed="$seed" -v pairs="$pairs" -v bench="$root/BENCHMARK.json" '
	function quantile(a, n, q,    pos, lo) {
		pos = q * (n - 1); lo = int(pos)
		if (lo + 1 >= n) return a[n - 1]
		return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
	}
	# summary(side, metric): "median [q1, q3]" of the side, median in med[side].
	function summary(side, m, digits,    n, i, j, t, s) {
		n = 0
		for (i = 1; i <= pairs; i++) s[n++] = val[side, i, m]
		for (i = 1; i < n; i++) { t = s[i]; for (j = i - 1; j >= 0 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
		med[side] = quantile(s, n, 0.5)
		return sprintf("%." digits "g [%." digits "g, %." digits "g]", med[side], quantile(s, n, 0.25), quantile(s, n, 0.75))
	}
	function runs(side, m, digits,    i, out) {
		out = "   " side " runs:"
		for (i = 1; i <= pairs; i++) out = out sprintf(" %." digits "g", val[side, i, m])
		return out
	}
	function list(side, field,    i, out) {
		for (i = 1; i <= pairs; i++) out = out (i > 1 ? ", " : "") count[side, i, field]
		return "[" out "]"
	}
	BEGIN {
		# The end_to_end entries of BENCHMARK.json, in order: name, better, bound.
		while ((getline line < bench) > 0) {
			if (line ~ /"end_to_end"/) on = 1
			if (line ~ /"per_layer"/) on = 0
			if (!on) continue
			split(line, f, "\"")
			if (line ~ /"name"/) { metric[++metrics] = f[4] }
			if (line ~ /"better"/) higher[metric[metrics]] = (f[4] == "higher")
			if (line ~ /"bound"/) { sub(/.*: */, "", line); bound[metric[metrics]] = line + 0 }
		}
	}
	{
		side = $1; pair = $2; json = $0
		if (json !~ /"correct":true/) incorrect++
		if (match(json, /"attempted":[0-9]+/)) count[side, pair, "attempted"] = substr(json, RSTART + 12, RLENGTH - 12)
		if (match(json, /"failed":[0-9]+/)) { count[side, pair, "failed"] = substr(json, RSTART + 9, RLENGTH - 9); failed[side] += count[side, pair, "failed"] }
		while (match(json, /"[a-z0-9_]+":\{"value":[^,}]+/)) {
			entry = substr(json, RSTART + 1, RLENGTH - 1); json = substr(json, RSTART + RLENGTH)
			name = entry; sub(/".*/, "", name); sub(/.*"value":/, "", entry)
			val[side, pair, name] = entry + 0
		}
	}
	END {
		printf "workload %s seed %s: %d pairs; failed parent=%d change=%d; correct all=%s; attempted parent=%s change=%s\n",
			workload, seed, pairs, failed["parent"], failed["change"], incorrect ? "False" : "True", list("parent", "attempted"), list("change", "attempted")
		for (k = 1; k <= metrics; k++) {
			m = metric[k]
			digits = bound[m] <= 0.01 ? 6 : 4
			ps = summary("parent", m, digits); cs = summary("change", m, digits)
			wins = 0; ties = 0
			for (i = 1; i <= pairs; i++) {
				d = val["change", i, m] - val["parent", i, m]
				if (higher[m]) d = -d
				if (d < 0) wins++; else if (d == 0) ties++
			}
			delta = med["parent"] ? (med["change"] - med["parent"]) / med["parent"] : 0
			worse = higher[m] ? -delta : delta
			verdict = (worse > bound[m]) ? "OUTSIDE" : "inside"
			printf "| %s | %s | %s | %+.1f%% | %d/%d (ties %d) | bound %g%% | %s |\n",
				m, ps, cs, 100 * delta, wins, pairs, ties, 100 * bound[m], verdict
			print runs("parent", m, digits)
			print runs("change", m, digits)
		}
	}'
	printf '/proc/stat before: %s\n/proc/stat after:  %s\n' "$stat_before" "$stat_after"
	# Fields of the cpu line: user nice system idle iowait irq softirq steal.
	printf '%s\n%s\n' "$stat_before" "$stat_after" | awk '
		NF >= 9 { t = 0; for (i = 2; i <= 9; i++) t += $i; total[NR] = t; steal[NR] = $9 }
		END { if (total[2] > total[1]) printf "steal over these runs: %.1f%% of all jiffies\n", 100 * (steal[2] - steal[1]) / (total[2] - total[1]) }'
done
