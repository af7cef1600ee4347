#!/usr/bin/env bash
# identity.sh <parent-ref>: the acceptance evidence of a change that must
# move no count (a refactor, a deletion). Checks the parent commit out
# into a temporary directory, records the benchmark's --verify run —
# pivots, nodes, rounds, windows, replan outcomes and finish epochs of
# every class of every workload — from that checkout and from this
# working tree, and compares the two records byte for byte. When they
# differ, it prints one line per class that moved, naming the workload,
# the class and every field that moved, parent -> change (e.g.
# "cold_milp/milp-dgx2m2-allgather pivots 1205 -> 1097"). Then it prints
# both sha256 sums and `make loc` per package, before -> after. About 4
# minutes; `make identity PARENT=<ref>` runs it.
set -euo pipefail
parent="${1:?usage: identity.sh <parent-ref>}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

. "$root/scripts/parent.sh"
export_parent "$parent" "$tmp/parent"
for side in parent change; do
	dir="$root"
	[ "$side" = parent ] && dir="$tmp/parent"
	echo "== $side: bench/run.sh --verify --write-expected ($dir)" >&2
	bash "$dir/bench/run.sh" --verify --write-expected "$tmp/$side-expected.json" >"$tmp/$side.log" 2>&1 ||
		{ tail -n 20 "$tmp/$side.log" >&2; echo "identity: --verify failed on the $side side" >&2; exit 1; }
	# This tree's counting rule on both sides: the parent may predate `make loc`.
	make -s -C "$dir" -f "$root/Makefile" loc >"$tmp/$side.loc"
done

# flatten prints a --write-expected record (json.MarshalIndent output) one
# field a line: "<workload>/<class> <field> <value>", arrays as [a,b,...].
flatten() {
	awk '{
		sub(/^[ \t]+/, ""); sub(/,$/, "")
		if ($0 ~ /^"[^"]*": \{$/) { split($0, q, "\""); path[++depth] = q[2]; next }
		if ($0 == "}") { depth--; next }
		if ($0 ~ /^"[^"]*": \[$/) { split($0, q, "\""); field = q[2]; arr = ""; inarr = 1; next }
		if (inarr && $0 == "]") { inarr = 0; print path[1] "/" path[2], field, "[" arr "]"; next }
		if (inarr) { gsub(/"/, ""); arr = arr (arr == "" ? "" : ",") $0; next }
		if ($0 ~ /^"[^"]*": /) {
			split($0, q, "\""); v = $0; sub(/^"[^"]*": /, "", v); gsub(/"/, "", v)
			print path[1] "/" path[2], q[2], v
		}
	}' "$1"
}

status=0
if cmp "$tmp/parent-expected.json" "$tmp/change-expected.json"; then
	echo "identity: records are byte-identical"
else
	echo "identity: records DIFFER (cmp above); the classes that moved, parent -> change:"
	flatten "$tmp/parent-expected.json" >"$tmp/parent.flat"
	flatten "$tmp/change-expected.json" >"$tmp/change.flat"
	awk 'NR == FNR { before[$1 " " $2] = $3; parent[$1] = 1; next }
		!($1 in seen) { seen[$1] = 1; class[++n] = $1 }
		before[$1 " " $2] != $3 { moved[$1] = moved[$1] " " $2 " " before[$1 " " $2] " -> " $3 }
		END {
			for (i = 1; i <= n; i++) {
				c = class[i]
				if (!(c in parent)) print "  " c " (change only)"
				else if (c in moved) print "  " c moved[c]
			}
			for (c in parent) if (!(c in seen)) print "  " c " (parent only)"
		}' "$tmp/parent.flat" "$tmp/change.flat"
	status=1
fi
(cd "$tmp" && sha256sum parent-expected.json change-expected.json)

echo "non-test Go lines, $parent -> working tree (packages that moved, then the total):"
awk 'NR == FNR { before[$2] = $1; next }
	{ b = before[$2] + 0; delete before[$2] }
	b != $1 || $2 == "total" { printf "%7d -> %7d  %s\n", b, $1, $2 }
	END { for (d in before) printf "%7d -> %7d  %s\n", before[d], 0, d }' "$tmp/parent.loc" "$tmp/change.loc"
exit $status
