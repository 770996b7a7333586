#!/usr/bin/env bash
# Builds the benchmark, runs it twice with one seed and once with a second,
# and compares the same-seed pair in both directions. Exits non-zero when a
# run fails its own checks or `compare` reports a `worse`. About ten minutes.
#
#   benchmark/check.sh [seed] [second-seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
second_seed="${2:-2}"

bench() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

cargo build --release --manifest-path benchmark/Cargo.toml
bench run --seed "$seed" --out benchmark/out/check_a.json
bench run --seed "$seed" --out benchmark/out/check_b.json
bench run --seed "$second_seed" --out benchmark/out/check_second_seed.json
bench compare benchmark/out/check_a.json benchmark/out/check_b.json
bench compare benchmark/out/check_b.json benchmark/out/check_a.json
