#!/usr/bin/env bash
# Builds the benchmark and the pgd daemon from the surrounding checkout and
# runs one benchmark invocation with the given arguments, for example:
#
#   bash bench/run.sh --workload fault-matrix --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out runs.json        (every workload)
#   bash bench/run.sh compare base.json head.json
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (or $CARGO_TARGET_DIR when set): the Go build cache,
# the binaries, and the scratch directory for spilled visited-index runs.
# The build never touches the network: the benchmark needs nothing outside
# the checkout and the Go toolchain.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"

(cd "$root/bench" && go build -o "$out/bench" .)
(cd "$root" && go build -o "$out/pgd" ./cmd/pgd)

exec "$out/bench" -pgd "$out/pgd" -scratch "$out/tmp" "$@"
