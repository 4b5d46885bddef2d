#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository
# root:
#
#   bash perfbench/run.sh --workload pub-steady --seed 1 --seconds 30 --trace 0
#
# Every build output, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath" \
	XDG_CONFIG_HOME="${out}/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

# The benchmark module imports the repository through a relative
# replace directive, so this fails when only perfbench/ is present.
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
