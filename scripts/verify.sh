#!/usr/bin/env bash
# Full local verification: everything CI runs, in one command.
#
# All dependencies are vendored as path crates (see [workspace.dependencies]
# in Cargo.toml), so this works with no network access; --locked makes any
# accidental registry reach a hard error instead of a silent fetch.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --workspace --release --locked

echo "==> cargo test"
cargo test --workspace --locked --quiet

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --locked -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> benches compile"
cargo bench --workspace --locked --no-run

echo "==> hot-path kernel smoke"
cargo run -p generic-bench --release --locked --quiet --bin hotpaths -- --smoke

echo "==> conformance smoke (differential oracles)"
cargo run -p generic-bench --release --locked --quiet --bin conformance -- --smoke

echo "==> throughput smoke (SIMD dispatch, batched scoring)"
cargo run -p generic-bench --release --locked --quiet --bin throughput -- --smoke

echo "==> throughput smoke (portable kernels forced)"
GENERIC_FORCE_PORTABLE=1 \
  cargo run -p generic-bench --release --locked --quiet --bin throughput -- --smoke

echo "==> fault campaign acceptance checks"
cargo run -p generic-bench --release --locked --quiet --bin fault_campaign

echo "==> soak smoke (crash recovery, deadline storm, sharded chaos, registry crash storm)"
cargo run -p generic-bench --release --locked --quiet --bin soak -- --smoke

echo "==> registry crash-recovery smoke (generational ledger, portable kernels forced)"
GENERIC_FORCE_PORTABLE=1 \
  cargo run -p generic-bench --release --locked --quiet --bin soak -- --smoke

echo "==> sharded serve bench smoke (QPS, latency percentiles, loopback netload)"
cargo run -p generic-bench --release --locked --quiet --bin serve -- --smoke

echo "==> sharded serve bench smoke (portable kernels forced)"
GENERIC_FORCE_PORTABLE=1 \
  cargo run -p generic-bench --release --locked --quiet --bin serve -- --smoke

echo "==> compression bench smoke (Pareto search, pruned bit-identity, tenant capacity)"
cargo run -p generic-bench --release --locked --quiet --bin compress -- --smoke

echo "==> compression bench smoke (portable kernels forced)"
GENERIC_FORCE_PORTABLE=1 \
  cargo run -p generic-bench --release --locked --quiet --bin compress -- --smoke

echo "==> registry bench smoke (mapped multi-tenant churn)"
cargo run -p generic-bench --release --locked --quiet --bin registry -- --smoke

echo "==> registry bench smoke (portable kernels forced)"
GENERIC_FORCE_PORTABLE=1 \
  cargo run -p generic-bench --release --locked --quiet --bin registry -- --smoke

# benchmark/ has its own [workspace], so nothing above builds it.
echo "==> benchmark package tests"
cargo test --offline --manifest-path benchmark/Cargo.toml --quiet

echo "==> benchmark package clippy -D warnings"
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> benchmark smoke run (every workload over GNET)"
cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- run --all --smoke

# Smoke runs write their records under target/smoke/; the committed
# BENCH_*.json files are full-mode records and must come out untouched.
echo "==> committed bench records unchanged"
git diff --exit-code -- 'BENCH_*.json'

echo "All checks passed."
