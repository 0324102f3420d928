#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload scan-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind lives in .bench_build/
# at the checkout root (the Go build cache included), so the run reads
# and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp"
export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" -workdir "${out}" "$@"
