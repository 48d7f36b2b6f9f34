#!/usr/bin/env bash
# Local mirror of the CI pipeline (.github/workflows/ci.yml).
# All steps run offline: every dependency is vendored in shims/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo xtask lint"
# Build untimed, then hold the lint itself (which prints per-rule
# finding counts and its own wall time) to a 10-second budget.
cargo build --offline --quiet --package xtask
lint_out="$(cargo run --offline --quiet --package xtask -- lint --json target/lint-report.json)" || {
  echo "$lint_out"
  exit 1
}
echo "$lint_out"
lint_ms="$(echo "$lint_out" | sed -n 's/^lint wall time: \([0-9]*\) ms$/\1/p')"
if [ -z "$lint_ms" ] || [ "$lint_ms" -gt 10000 ]; then
  echo "ci.sh: lint wall-time budget exceeded (${lint_ms:-unreported} ms > 10000 ms)" >&2
  exit 1
fi

echo "==> prepare-tlc temporal property checker"
# One invocation with PREPARE_WORKERS unset replays the pinned suite at
# workers 1 and 4, checks cross-count trace invariance, and sweeps the
# exhaustive fault-interleaving explorer. The checker shares the lint's
# 10-second tooling budget: lint_ms + tlc_ms must stay under 10 000 ms.
cargo build --offline --quiet --release --package prepare-tlc
tlc_out="$(env -u PREPARE_WORKERS cargo run --offline --quiet --release --package prepare-tlc -- --report target/tlc-report.txt)" || {
  echo "$tlc_out"
  exit 1
}
echo "$tlc_out"
tlc_ms="$(echo "$tlc_out" | sed -n 's/^tlc wall time: \([0-9]*\) ms$/\1/p')"
if [ -z "$tlc_ms" ] || [ "$((lint_ms + tlc_ms))" -gt 10000 ]; then
  echo "ci.sh: tooling wall-time budget exceeded (lint ${lint_ms} ms + tlc ${tlc_ms:-unreported} ms > 10000 ms)" >&2
  exit 1
fi

echo "==> cargo test (PREPARE_WORKERS=1, sequential engine)"
PREPARE_WORKERS=1 cargo test --offline --quiet --workspace

echo "==> cargo test (PREPARE_WORKERS=4, sharded engine)"
PREPARE_WORKERS=4 cargo test --offline --quiet --workspace

# The two workspace runs above exercise the default engine: incremental
# online training (PREPARE_ONLINE unset = enabled). Re-run the
# end-to-end suites with the from-scratch referee pinned on — traces
# must be byte-identical either way, so a divergence names this step.
echo "==> end-to-end suites, online training disabled (PREPARE_ONLINE=0, PREPARE_WORKERS=1)"
PREPARE_ONLINE=0 PREPARE_WORKERS=1 cargo test --offline --quiet --package prepare-repro

echo "==> end-to-end suites, online training disabled (PREPARE_ONLINE=0, PREPARE_WORKERS=4)"
PREPARE_ONLINE=0 PREPARE_WORKERS=4 cargo test --offline --quiet --package prepare-repro

# The hostile-infrastructure suite replays two pinned chaos seeds
# (0xC0FFEE, 0xBADC0DE) plus randomized fault plans, and asserts the
# traces are byte-identical at every worker count. Run it explicitly at
# both engine settings so a determinism regression names this step.
echo "==> chaos robustness suite (PREPARE_WORKERS=1)"
PREPARE_WORKERS=1 cargo test --offline --quiet --test chaos

echo "==> chaos robustness suite (PREPARE_WORKERS=4)"
PREPARE_WORKERS=4 cargo test --offline --quiet --test chaos

# The fleet differential suite drives golden and chaotic 96-VM fleets
# through both tick paths (each test names the sparse path and the
# dense referee itself) and asserts the traces are byte-identical, at
# both worker counts, so a sparse-vs-dense divergence names the engine
# setting.
echo "==> fleet differential suite (PREPARE_WORKERS=1)"
PREPARE_WORKERS=1 cargo test --offline --quiet --test fleet_differential

echo "==> fleet differential suite (PREPARE_WORKERS=4)"
PREPARE_WORKERS=4 cargo test --offline --quiet --test fleet_differential

# The crash-point sweep proves recovery equivalence: a controller killed
# before any post-prefix round and rebuilt from its last checkpoint plus
# the write-ahead journal suffix must be byte-identical to the
# uninterrupted referee (events, model fingerprints, cluster state), at
# pinned worker counts {1,2,7} and under random multi-crash schedules.
echo "==> crash-point recovery sweep (PREPARE_WORKERS=1)"
PREPARE_WORKERS=1 cargo test --offline --quiet --test recovery

echo "==> crash-point recovery sweep (PREPARE_WORKERS=4)"
PREPARE_WORKERS=4 cargo test --offline --quiet --test recovery

echo "ci.sh: all checks passed"
