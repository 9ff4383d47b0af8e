#!/usr/bin/env bash
# Build the benchmark, run its unit tests, then run every workload at
# smoke scale (a fifth of the data, half a second timed, every check on),
# untraced and traced. A CI job only has to call this script.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --smoke --trace
