#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and runs
# it with the given arguments. Everything the build and the run write
# stays under .bench_build (or $CARGO_TARGET_DIR) in the checkout.
#
# Usage, from the repository root:
#
#	bash perfbench/run.sh --workload broker --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

# Keep the toolchain's cache, temporary files, telemetry and module
# lookups inside the checkout and off the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
