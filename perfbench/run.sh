#!/usr/bin/env bash
# Builds perfbench and colorserved from this checkout and runs one
# benchmark run; every argument is passed on to perfbench:
#
#   bash perfbench/run.sh --workload sweep-c5 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and all scratch files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# With telemetry on (the default is "local"), the go command forks a
# detached telemetry process once a day per config directory, and that
# process outlives the run. Turn it off before the first go command.
mkdir -p "$build/config/go/telemetry"
printf 'off\n' >"$build/config/go/telemetry/mode"

go build -o "$build/bin/perfbench" ./perfbench
go build -o "$build/bin/colorserved" ./cmd/colorserved

if [ -d .git ]; then
	commit=$(git rev-parse HEAD)
else
	commit="src-sha256:$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

exec "$build/bin/perfbench" --colorserved "$build/bin/colorserved" \
	--scratch "$build/perfbench-scratch" --commit "$commit" "$@"
