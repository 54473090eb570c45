#!/usr/bin/env bash
# Local CI, step-runner edition: .github/workflows/ci.yml dispatches the
# named steps below — this file is the single source of truth for what
# CI runs, so a green `./ci.sh` locally means a green pipeline.
# Everything is --offline per the hermetic-build policy (zero registry
# dependencies).
#
# Usage: ./ci.sh [step...]       (no arguments = every step, in order)
# Steps: build test crates fmt clippy doc sfcheck sarif fix strategy
#        artifacts perf
set -euo pipefail
cd "$(dirname "$0")"

# One EXIT trap over a cleanup registry, so a failing step (e.g. the
# --fix idempotency check) never leaves stale temp files behind.
CLEANUP_PATHS=()
cleanup() {
  local p
  for p in ${CLEANUP_PATHS[@]+"${CLEANUP_PATHS[@]}"}; do rm -rf "$p"; done
}
trap cleanup EXIT

step_build() {
  echo "==> tier-1: release build"
  cargo build --release --offline
}

step_test() {
  echo "==> tier-1: test suite"
  cargo test -q --offline
}

step_crates() {
  # The root manifest is both the workspace and the smartfeat-repro
  # package, so a bare `cargo test` runs only that package's tests. This
  # step runs every member crate's own suite (sfcheck's goldens, repo
  # gate and mutation tests; core's wall-mode tests; ...).
  echo "==> tier-1: member-crate test suites"
  cargo test -q --offline --workspace --exclude smartfeat-repro
}

step_fmt() {
  # perfbench/ is its own cargo workspace, so each step names it too.
  echo "==> lint: rustfmt"
  cargo fmt --check
  cargo fmt --check --manifest-path perfbench/Cargo.toml
}

step_clippy() {
  echo "==> lint: clippy (warnings are errors)"
  cargo clippy --workspace --all-targets --offline -- -D warnings
  cargo clippy --manifest-path perfbench/Cargo.toml --all-targets --offline -- -D warnings
}

step_doc() {
  echo "==> lint: rustdoc (warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

step_sfcheck() {
  echo "==> sfcheck: repo-invariant static analysis"
  cargo run -p sfcheck --offline
}

step_sarif() {
  echo "==> sfcheck: SARIF artifact"
  cargo run -q -p sfcheck --offline -- --sarif > sfcheck.sarif.json
  echo "    wrote sfcheck.sarif.json ($(wc -c < sfcheck.sarif.json) bytes)"
}

step_fix() {
  echo "==> sfcheck: --fix idempotency (double pass on a temp copy)"
  local tmp here copied first second
  tmp="$(mktemp -d)"
  CLEANUP_PATHS+=("$tmp")
  # Copy the whole tree (sans build products / VCS) so --fix never touches
  # the real checkout here; the copy must scan the same files and
  # manifests as the checkout, and the second pass must apply zero fixes.
  tar --exclude=target --exclude=.git -cf - . | tar -xf - -C "$tmp"
  here="$(cargo run -q -p sfcheck --offline -- --root . | tail -1)"
  copied="$(cargo run -q -p sfcheck --offline -- --root "$tmp" | tail -1)"
  echo "    checkout: $here"
  echo "    copy:     $copied"
  if [ "${here##*(}" != "${copied##*(}" ]; then
    echo "    ERROR: the temp copy does not scan the same files and manifests" >&2
    exit 1
  fi
  first="$(cargo run -q -p sfcheck --offline -- --fix --root "$tmp" | tail -1)"
  second="$(cargo run -q -p sfcheck --offline -- --fix --root "$tmp" | tail -1)"
  echo "    first:  $first"
  echo "    second: $second"
  case "$second" in
    *"applied 0 fix(es) in 0 file(s)"*) ;;
    *) echo "    ERROR: second --fix pass was not a no-op" >&2; exit 1 ;;
  esac
  if ! diff -rq --exclude=target --exclude=.git . "$tmp" > /dev/null; then
    echo "    ERROR: --fix modified a clean tree" >&2
    diff -rq --exclude=target --exclude=.git . "$tmp" >&2 || true
    exit 1
  fi
}

step_strategy() {
  echo "==> strategy + cascade determinism: differential oracles + 1/4/8 thread matrices"
  # strategy_oracle and cascade run their 1/4/8-thread matrices in
  # process, serially and concurrently; strategy_trace pins the blessed
  # per-strategy trace goldens and prop_search the search invariants
  # (width/population/turn/FM budget).
  cargo test -q --offline \
    --test strategy_oracle --test strategy_trace --test prop_search --test cascade
}

step_artifacts() {
  echo "==> observability artifacts: cascade CLI run (metrics + trace JSON)"
  mkdir -p ci-artifacts
  printf '%s\n' \
    'age,bmi,smoker,children,label' \
    '19,27.9,yes,0,1' '33,22.7,no,1,0' '28,33.0,no,3,0' '45,25.7,yes,2,1' \
    '52,30.9,no,0,1' '23,34.4,no,0,0' '56,39.8,no,0,1' '27,42.1,yes,1,1' \
    '19,24.6,no,1,0' '61,29.0,no,2,1' \
    > ci-artifacts/smoke.csv
  cargo run -q --offline -p smartfeat --bin smartfeat -- \
    --csv ci-artifacts/smoke.csv --target label --cascade \
    --metrics-out ci-artifacts/metrics.json \
    --trace-out ci-artifacts/trace.jsonl > /dev/null
  if ! grep -q '"routing"' ci-artifacts/metrics.json; then
    echo "    ERROR: cascade metrics lack per-family routing stats" >&2
    exit 1
  fi
  echo "    wrote ci-artifacts/metrics.json ($(wc -c < ci-artifacts/metrics.json) bytes)"
  echo "    wrote ci-artifacts/trace.jsonl ($(wc -l < ci-artifacts/trace.jsonl) events)"
}

step_perf() {
  # perfbench/ is its own cargo workspace (BENCHMARK.json runs it), so the
  # root `cargo test` never compiles it: this step catches an API change
  # in the root crates that breaks the benchmark. --smoke runs every
  # workload once at a small size; it is not a timing gate.
  echo "==> perfbench: unit tests + smoke run"
  cargo test -q --offline --manifest-path perfbench/Cargo.toml
  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin perf -- --smoke
}

ALL_STEPS=(build test crates fmt clippy doc sfcheck sarif fix strategy artifacts perf)

main() {
  local steps=("$@") s
  if [ "${#steps[@]}" -eq 0 ]; then
    steps=("${ALL_STEPS[@]}")
  fi
  for s in "${steps[@]}"; do
    if ! declare -F "step_$s" > /dev/null; then
      echo "ci.sh: unknown step '$s' (known: ${ALL_STEPS[*]})" >&2
      exit 2
    fi
    "step_$s"
  done
  echo "==> ci.sh: ${steps[*]}: passed"
}

main "$@"
