#!/usr/bin/env bash
# tablesdiff.sh <base-ref>
#
# The byte-identity bar for a change that must not move any table:
# cmd/experiments built from <base-ref> and from the working tree, each
# run with `-run all -ablations` in quick and full mode at -p 1 and -p 2,
# every output compared byte for byte. Exit 1 on the first difference
# (printing the diff's head), 0 when all four pairs match.
#
# <base-ref> is exported with `git archive` into a temporary directory
# that is removed on exit; binaries and outputs live there too, so
# nothing is written inside the checkout.
set -euo pipefail

if [ $# -ne 1 ] || [ -z "$1" ]; then
	echo "usage: $0 <base-ref>   (make tables-diff BASE=<ref>)" >&2
	exit 2
fi
tree=$(git rev-parse --show-toplevel)
sha=$(git -C "$tree" rev-parse --short "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$tree" archive "$sha" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/experiments-base" ./cmd/experiments)
(cd "$tree" && go build -o "$tmp/experiments-new" ./cmd/experiments)

status=0
for mode in -quick ""; do
	for p in 1 2; do
		label="${mode:-full} -p $p"
		"$tmp/experiments-base" -run all -ablations $mode -p "$p" >"$tmp/base.txt"
		"$tmp/experiments-new" -run all -ablations $mode -p "$p" >"$tmp/new.txt"
		if cmp -s "$tmp/base.txt" "$tmp/new.txt"; then
			echo "tables-diff: $label: identical to $sha ($(wc -l <"$tmp/new.txt") lines)"
		else
			echo "tables-diff: $label: differs from $sha" >&2
			diff "$tmp/base.txt" "$tmp/new.txt" | head -40 >&2 || true
			status=1
		fi
	done
done
exit $status
