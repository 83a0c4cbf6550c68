#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root, e.g.
#
#   bash perfbench/run.sh --workload paper-exact --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, temporary files and everything the runs
# leave behind stay inside the checkout (.bench_build and .bench_out).
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
# The module builds on its own: no workspace, user settings or flags from
# outside the checkout apply. A pure-Go build needs no C compiler, which
# would write its temporary files outside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0
unset GOOS GOARCH
# The go command keeps its own state (telemetry counters) under the user's
# config directory, so that directory is in the checkout too. Linking into a
# private file and renaming it into place means a build never writes over a
# binary another run is executing.
(cd perfbench && HOME="$build/home" XDG_CONFIG_HOME="$build/config" go build -o "$build/perfbench.$$" .) >&2
mv -f "$build/perfbench.$$" "$build/perfbench"
exec "$build/perfbench" "$@"
