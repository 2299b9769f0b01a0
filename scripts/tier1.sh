#!/usr/bin/env bash
# Tier-1 verification flow: release build, full test suite, formatting,
# lint (clippy, warnings as errors) and documentation gates (rustdoc
# warnings-as-errors, markdown link check, rustdoc coverage of the
# documented API contract), and the perfbench self-check (builds the
# repository benchmark and runs every workload once at tiny sizes, so
# benchmark code cannot rot).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
# the engine-lockstep and measured-drift suites again with the pool
# default pinned to 2 threads: the `Parallelism::Chunked { threads: 0 }`
# cases then exercise real cross-thread dispatch (thread counts must
# never change results — the determinism contract)
FASTFLOOD_THREADS=2 cargo test -q -p fastflood-core \
  --test parallel_engine --test measured_drift --test engine_oracle
# scenario smoke: every in-tree scenario (crash storms, partition
# windows, churn bursts, street evacuation, …) must run end-to-end at
# the tiny density-preserving --quick scale
cargo run --release -p fastflood-bench --bin scenarios -- --quick > /dev/null
# the cross-mode agreement harness again under real 2-thread dispatch:
# every scenario, every engine mode, bitwise trace agreement within
# each determinism class regardless of thread count
FASTFLOOD_THREADS=2 cargo test -q -p fastflood-bench --test scenario_agreement
# the checkpoint-resume property suite again under real 2-thread
# dispatch: restore + step must stay bitwise-identical to the
# uninterrupted run for every engine mode and parallelism flavor even
# when the chunked kernels really run on worker threads
FASTFLOOD_THREADS=2 cargo test -q -p fastflood-core --test checkpoint_resume
# kill-resume smoke: SIGKILL a checkpointing scenario run mid-flood,
# resume from its snapshot directory, require the uninterrupted digest
scripts/crash_recovery_smoke.sh
# service smoke: a real floodd daemon must restart a chaos-panicked job
# from its checkpoint, finish a clean job, and drain on SIGTERM
# (scripts/soak.sh is the longer kill/restart loop — not tier-1-gated)
scripts/service_smoke.sh
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
scripts/check_docs.sh
python3 perfbench/run.py --self-check
echo "tier-1: build + tests + fmt + clippy + docs + link/coverage gates + perfbench self-check all green"
