#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, passing every argument through:
#
#	bash perfbench/run.sh --workload halo-hyb --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, per-run result files and traces all live
# under .bench_build/ at the root of the checkout, so nothing is read from
# or written to the user's home directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no program sources next to $here (missing $root/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# The commit is stamped only when the checkout is itself a git work tree.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit+modified"
	fi
fi

go -C "$here" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" --commit "$commit" "$@"
