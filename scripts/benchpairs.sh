#!/usr/bin/env bash
# benchpairs.sh <old-ref> <workload> [pairs=10] [seed=1]
#
# The paired measurement a timing claim needs on a box that drifts 18-35 %
# within the hour (cmd/bench/README.md): <old-ref> against the working tree,
# one workload, <pairs> pairs of untraced runs, alternating which side runs
# first. Each side is run the way BENCHMARK.json runs it — its own
# cmd/bench/run.sh, from the root of its own tree, building its own binary
# under its own .bench_build/ — so the two sides share nothing but the box.
# Prints, per end-to-end metric, each side's median and quartiles over the
# runs, the ratio of the medians and the pairs the new side won (ties count
# for neither), then the digests each side printed. Exit 1 if any run was
# not `correct`.
#
# <old-ref> is exported with `git archive` into .bench_build/pairs/old-<sha>
# (git-ignored, reused by later invocations; nothing is registered in .git,
# so there is nothing to prune). Stopgap: this script goes away when
# `bench -alternate old new` lands in a `benchmark` PR (ROADMAP item 2).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <old-ref> <workload> [pairs=10] [seed=1]" >&2
	exit 2
fi
old_ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

new_tree=$(git rev-parse --show-toplevel)
sha=$(git -C "$new_tree" rev-parse --short "$old_ref^{commit}")
work=$new_tree/.bench_build/pairs
old_tree=$work/old-$sha
if [ ! -d "$old_tree" ]; then
	mkdir -p "$old_tree.tmp"
	git -C "$new_tree" archive "$sha" | tar -x -C "$old_tree.tmp"
	mv "$old_tree.tmp" "$old_tree"
fi
log=$work/$workload-seed$seed-$(date +%Y%m%dT%H%M%S).log
echo "benchpairs: $workload, seed $seed, $pairs pairs, old = $sha, new = working tree; raw output in ${log#"$new_tree"/}"

# run <side> <tree>: one untraced run; appends "<side> <metric> <value>"
# and "<side> digest <hex>" lines to $log.values.
run() {
	local side=$1 tree=$2 out
	out=$(cd "$tree" && bash cmd/bench/run.sh --workload "$workload" --seed "$seed" --trace 0 2>>"$log") || {
		echo "benchpairs: the $side run failed; see $log" >&2
		exit 1
	}
	printf '== %s\n%s\n' "$side" "$out" >>"$log"
	local json=${out##*$'\n'}
	case $json in *'"correct":true'*) ;; *)
		echo "benchpairs: $side run was not correct: $json" >&2
		exit 1
		;;
	esac
	grep -o '"[a-z_]*":{"value":[^,}]*' <<<"$json" |
		sed "s/^\"\([a-z_]*\)\":{\"value\":/$side \1 /" >>"$log.values"
	grep -o 'digest [0-9a-f]*' <<<"$out" | head -1 | sed "s/^/$side /" >>"$log.values"
}

: >"$log.values"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run old "$old_tree"
		run new "$new_tree"
	else
		run new "$new_tree"
		run old "$old_tree"
	fi
	awk -v i="$i" '$2 == "wall_s" { v[$1] = $3 } END { printf "  pair %d: wall_s old %.3f new %.3f\n", i, v["old"], v["new"] }' "$log.values"
done

# Runs come in pairs, so the k-th old value and the k-th new value of a
# metric belong to the same pair whichever side ran first.
awk '
function quantile(a, n, p,    h, lo) {
	h = (n - 1) * p; lo = int(h)
	return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
}
function summary(side, m,    n, i, j, t, a) {
	n = cnt[side, m]
	for (i = 1; i <= n; i++) a[i] = val[side, m, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	med[side] = quantile(a, n, 0.5)
	return sprintf("%10.4f (%.4f-%.4f)", med[side], quantile(a, n, 0.25), quantile(a, n, 0.75))
}
$2 == "digest" { digests[$1] = digests[$1] (seen[$1, $3]++ ? "" : " " $3); next }
{ val[$1, $2, ++cnt[$1, $2]] = $3; if (!($2 in metrics)) { metrics[$2]; order[++nm] = $2 } }
END {
	printf "%-13s %-32s %-32s %8s  %s\n", "metric", "old median (q1-q3)", "new median (q1-q3)", "new/old", "pairs won by new"
	for (k = 1; k <= nm; k++) {
		m = order[k]; won = 0; n = cnt["old", m]
		for (i = 1; i <= n; i++) won += (val["new", m, i] < val["old", m, i])
		o = summary("old", m); w = summary("new", m)
		printf "%-13s %-32s %-32s %8.3f  %d of %d\n", m, o, w, (med["old"] ? med["new"] / med["old"] : 0), won, n
	}
	printf "digests: old%s, new%s\n", digests["old"], digests["new"]
}' "$log.values" | tee -a "$log"
