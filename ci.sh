#!/usr/bin/env bash
# Local CI, step-runner edition: .github/workflows/ci.yml dispatches the
# named steps below — this file is the single source of truth for what
# CI runs, so a green `./ci.sh` locally means a green pipeline.
# Everything is --offline per the hermetic-build policy (zero registry
# dependencies).
#
# Usage: ./ci.sh [step...]       (no arguments = every step, in order)
# Steps: build test crates fmt clippy doc sfcheck artifacts examples perf
set -euo pipefail
cd "$(dirname "$0")"

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

step_artifacts() {
  echo "==> observability artifacts: cascade, beam and wall-clock CLI runs (metrics + trace JSON)"
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
  # A score-guided run: beam search scores each round through the batched
  # CV scorer, whose folds the metrics report counts under `work`.
  cargo run -q --offline -p smartfeat --bin smartfeat -- \
    --csv ci-artifacts/smoke.csv --target label --strategy beam \
    --metrics-out ci-artifacts/metrics-beam.json > /dev/null
  if ! grep -q '"work":{[^}]*"ml.cv.fold"' ci-artifacts/metrics-beam.json; then
    echo "    ERROR: beam metrics lack CV fold work (ml.cv.fold)" >&2
    exit 1
  fi
  echo "    wrote ci-artifacts/metrics-beam.json ($(wc -c < ci-artifacts/metrics-beam.json) bytes)"
  # Wall-clock mode end to end: span nanoseconds land under `volatile`.
  SMARTFEAT_OBS_WALLCLOCK=1 cargo run -q --offline -p smartfeat --bin smartfeat -- \
    --csv ci-artifacts/smoke.csv --target label \
    --metrics-out ci-artifacts/metrics-wall.json > /dev/null
  if ! grep -q '"volatile":{[^}]*"span_ns":{[^}]*"realize.fm_walk"' ci-artifacts/metrics-wall.json; then
    echo "    ERROR: wall-mode metrics lack volatile.span_ns.realize.fm_walk" >&2
    exit 1
  fi
  # The commit's duplicate checks and each transform kind are counted
  # under `work`, so the split of realize.fm_walk and stage.evaluate
  # cannot silently disappear.
  if ! grep -q '"work":{[^}]*"evaluate.check"' ci-artifacts/metrics-wall.json; then
    echo "    ERROR: wall-mode metrics lack evaluate.check work" >&2
    exit 1
  fi
  if ! grep -q '"work":{[^}]*"transform\.' ci-artifacts/metrics-wall.json; then
    echo "    ERROR: wall-mode metrics lack transform.<kind> work" >&2
    exit 1
  fi
  # Each FM role's answered calls are counted too, so the run shows its
  # own FM time without an outside wrapper.
  for role in selector generator; do
    if ! grep -q "\"work\":{[^}]*\"fm\.$role\"" ci-artifacts/metrics-wall.json; then
      echo "    ERROR: wall-mode metrics lack fm.$role work" >&2
      exit 1
    fi
  done
  echo "    wrote ci-artifacts/metrics-wall.json ($(wc -c < ci-artifacts/metrics-wall.json) bytes)"
}

step_examples() {
  # The other steps only compile the examples. They drive the public API
  # end to end (strategy_frontier runs all four search strategies,
  # cascade_frontier the cascade) and feed EXPERIMENTS.md tables, so each
  # one must also run to a zero exit. The two frontier examples read no
  # clock, so their stdout must also equal tests/golden/<name>.txt byte
  # for byte; strategy_frontier is checked at 1 and 4 threads.
  echo "==> examples: run every example in release mode"
  local f name threads out
  out=$(mktemp)
  for f in examples/*.rs; do
    name=$(basename "$f" .rs)
    case "$name" in
      strategy_frontier) threads="1 4" ;;
      cascade_frontier) threads="1" ;;
      *) threads="" ;;
    esac
    if [ -z "$threads" ]; then
      echo "    $name"
      cargo run -q --release --offline --example "$name" > /dev/null
      continue
    fi
    for t in $threads; do
      echo "    $name (SMARTFEAT_THREADS=$t, diffed against tests/golden/$name.txt)"
      SMARTFEAT_THREADS=$t cargo run -q --release --offline --example "$name" > "$out"
      if ! diff -u "tests/golden/$name.txt" "$out"; then
        echo "    ERROR: $name stdout differs from tests/golden/$name.txt" >&2
        rm -f "$out"
        exit 1
      fi
    done
  done
  rm -f "$out"
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

ALL_STEPS=(build test crates fmt clippy doc sfcheck artifacts examples perf)

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
