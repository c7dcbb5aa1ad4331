#!/usr/bin/env bash
# Builds the benchmark and the netemud daemon from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload serve-fresh --seed 1 --seconds 10 --trace 0
#
# --workload all runs every workload in turn with the other arguments
# and exits nonzero if any of them failed.
#
# Everything the build and the run write goes under .bench_build/ at the
# root of the checkout (Go build cache included). Compiling happens here,
# before the benchmark process starts, so it never counts as set-up time.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/perfbench"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/netemud" ]; then
	echo "perfbench: $root holds no netemud sources to build" >&2
	exit 2
fi

mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOTELEMETRY=off

(cd "$root" && go build -o "$out/bin/netemud" ./cmd/netemud) >&2
(cd "$here" && go build -o "$out/bin/perfbench" .) >&2

cd "$root"
bench=("$out/bin/perfbench" -netemud "$out/bin/netemud" -root "$root" -out "$out")

args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [ "${args[i]}" = "--workload" ] && [ "${args[i + 1]:-}" = "all" ]; then
		status=0
		for w in sim-heavy serve-fresh serve-repeat cluster-fresh; do
			args[i + 1]=$w
			"${bench[@]}" "${args[@]}" || status=1
		done
		exit $status
	fi
done
exec "${bench[@]}" "$@"
