#!/usr/bin/env bash
# Driver entry point: builds the benchmark from source with a build cache
# kept inside the checkout (bench/out/, ignored), then runs it from the
# checkout root so every file it writes lands under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/out/gocache" GOTOOLCHAIN=local
mkdir -p "$here/out"
(cd "$here" && go build -o out/zmsq-bench .)
# go build rewrites the binary every time, and the first build in a checkout
# leaves tens of MB of dirty pages besides; their write-back takes CPU from
# the guest for the next half minute (README, "What this box does"). Wait for
# it here, before anything is timed.
sync
cd "$here/.."
exec "$here/out/zmsq-bench" "$@"
