#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash e2ebench/run.sh --workload cold-verdict --seed 1 --seconds 40 --trace 0
#
# The build cache, temporary files and results stay under .bench_build/ in
# the current directory. Outside a checkout of the repository the build
# fails and the script exits nonzero without printing a result.
set -euo pipefail

build="$PWD/.bench_build/e2ebench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

# The commit is read here rather than stamped by go build, so that a checkout
# without git history, or inside another repository, still builds. git does
# not look above the current directory.
E2EBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)
export E2EBENCH_COMMIT
(cd e2ebench && go build -buildvcs=false -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
