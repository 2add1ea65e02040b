#!/usr/bin/env bash
# Usage: scripts/layout.sh REF
#
# Compares where the benchmark binary's placement-sensitive code lands,
# built at REF and from the working tree: the three admm sweep kernels
# (UpdateXRange, UpdateZFusedRange, UpdateUNRange) and the residual
# check's pass (checkPass), every text symbol of repro/internal/linalg,
# the boundary exchange's Post and Combine, the shard loop
# (runShardIters), the proximal operators' Eval methods (every value
# receiver in repro/internal/prox, packing's CollisionOp and svm's
# MarginOp), and the calibration kernel main.calibrate, whose alignment
# scales every reported time. A change in a package linked ahead of them
# can move them by 32 bytes and move a benchmark cell with no change to
# the code that runs (ROADMAP, "Do not retry").
#
# Prints each symbol's address mod 64 on both sides and exits 1 if any
# differs or is present on one side only, 2 on a usage or build error.
# REF is checked out with git archive into a temporary directory, which
# is removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/layout.sh REF" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
ref=$1
if ! git rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
	echo "layout.sh: $ref is not a commit" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"

export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go build -C "$tmp/ref/benchmark" -o "$tmp/ref.bin" . || exit 2
go build -C benchmark -o "$tmp/work.bin" . || exit 2

# placement BIN prints "symbol address-mod-64" for each watched text
# symbol, sorted by name.
placement() {
	go tool nm "$1" | while read -r addr kind name; do
		case "$kind" in T | t) ;; *) continue ;; esac
		case "$name" in
		repro/internal/admm.UpdateXRange | repro/internal/admm.UpdateZFusedRange | \
			repro/internal/admm.UpdateUNRange | repro/internal/admm.checkPass | \
			repro/internal/linalg.* | 'repro/internal/exchange.(*Mailbox).Post' | \
			'repro/internal/exchange.(*Mailbox).Combine' | repro/internal/shard.runShardIters | \
			repro/internal/prox.[A-Z]*.Eval | repro/internal/packing.CollisionOp.Eval | \
			repro/internal/svm.MarginOp.Eval | main.calibrate)
			echo "$name $((16#$addr % 64))"
			;;
		esac
	done | sort
}
placement "$tmp/ref.bin" >"$tmp/ref.txt"
placement "$tmp/work.bin" >"$tmp/work.txt"

# join -a1 -a2 keeps symbols found on one side only; "-" marks the gap.
join -a1 -a2 -e - -o 0,1.2,2.2 "$tmp/ref.txt" "$tmp/work.txt" | awk -v ref="$ref" '
	BEGIN { printf "%-56s %6s %6s\n", "symbol (address mod 64)", "REF", "work"; bad = 0 }
	{
		mark = ($2 == $3) ? "" : "  moved"
		if (mark != "") bad++
		printf "%-56s %6s %6s%s\n", $1, $2, $3, mark
	}
	END {
		if (bad) { printf "%d of %d symbols moved against %s\n", bad, NR, ref; exit 1 }
		printf "all %d symbols in place against %s\n", NR, ref
	}'
