#!/usr/bin/env bash
# Measures flooding-engine step throughput and records BENCH_engine.json
# at the repo root. docs/BENCHMARKING.md documents the protocol and the
# JSON schema.
#
# Two measurement shapes from the flood_end_to_end bench:
#   engine_step            fixed step batches from a cloned ~25%-informed
#                          state (pure mid-flood frontier work) on the
#                          adaptive engine;
#   engine_step_sustained  time-sized step() loop from ~50% informed —
#                          the seed's own measurement protocol, directly
#                          comparable with the baseline blocks below.
#
# FASTFLOOD_BENCH_LARGE=1 turns on the n = 300k rows (skipped by the
# tier-1 bench smoke, where warming a 300k flood would dominate).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp)"
phases="$(mktemp)"
trap 'rm -f "$tmp" "$phases"' EXIT

FASTFLOOD_BENCH_JSON="$tmp" FASTFLOOD_BENCH_LARGE=1 \
  cargo bench -p fastflood-bench --bench flood_end_to_end -- engine_step

# per-phase breakdown of the sustained protocol (move vs transmit vs
# incremental refresh), from the phase-timing instrumentation —
# sequential engine, then the chunked-parallel engine on 4 threads
phases_par="$(mktemp)"
movek="$(mktemp)"
trap 'rm -f "$tmp" "$phases" "$phases_par" "$movek"' EXIT
FASTFLOOD_BENCH_LARGE=1 \
  cargo run --release -p fastflood-bench --bin phase_breakdown > "$phases"
FASTFLOOD_BENCH_LARGE=1 \
  cargo run --release -p fastflood-bench --bin phase_breakdown -- --threads 4 > "$phases_par"

# move-only A/B: the split advance-kernel/boundary-pass move pass vs the
# scalar AoS reference loop, with no engine around it
cargo run --release -p fastflood-bench --bin move_kernel > "$movek"

# checkpoint cost: snapshot/encode/write and read/restore latency plus
# on-disk size for a warm 100k-agent sim — the durability tax a
# long-lived run pays per checkpoint stride
ckpt="$(mktemp)"
trap 'rm -f "$tmp" "$phases" "$phases_par" "$movek" "$ckpt"' EXIT
cargo run --release -p fastflood-bench --bin checkpoint_probe > "$ckpt"

machine="$(uname -srm); $(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ //' || true)"

{
  echo '{'
  echo '  "bench": "flood_end_to_end engine_step groups",'
  echo '  "units": "ns_per_iter; engine_step iterates a whole step batch (see throughput_per_iter for agent-steps), engine_step_sustained iterates one step",'
  echo "  \"recorded_at\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"machine\": \"${machine}\","
  echo '  "notes": "Two protocols measure different things. engine_step isolates the transmit ALGORITHM: fixed mid-flood step batches (completion asserted not to occur) on the adaptive production engine (the diff-maintained bucket join); the retired bucket_join, seed_rebuild and incremental engines survive only in the baseline blocks and older recordings. engine_step_sustained reproduces the whole-run protocol of the baseline blocks (warm to 50%, time-sized loop through completion): comparing its adaptive rows against baseline_pr4_adaptive_at_pr5_start measures the hot-entry shrink (sequential adaptive row) and the chunked-parallel engine (adaptive_par_t1/t2/t4 rows, the threads sweep; deterministic per thread count but a different trajectory sample than the sequential rows — see docs/BENCHMARKING.md). CAVEAT: this recording machine exposes 1 CPU, so t2/t4 cannot run concurrently and the sweep here measures dispatch overhead and determinism coverage, not scaling; the multi-thread acceptance figure requires a multi-core machine. phase_breakdown splits the sustained step into move/transmit/refresh (and the boundary-pass share of move) so move-pass regressions are visible in the share, not just the total; phase_breakdown_parallel is the same shape on the 4-thread chunked engine. move_kernel is the move-only A/B of the split advance-kernel/boundary-pass move pass against the scalar AoS reference loop; comparing the sustained adaptive rows against baseline_pr5_adaptive_at_pr6_start measures the move-pass rework end to end. checkpoint is the durability probe: snapshot (in-memory serialize), write (encode + atomic rename to disk), read, and restore latency plus the encoded size for a warm 100k-agent adaptive sim — what one checkpoint stride costs a long-lived run. Older baselines measure the full history: baseline_pr3_adaptive_at_pr4_start the batched-SoA-move-pass + measured-drift rework, baseline_pr2_adaptive_at_pr3_start the incremental re-binning rework, baseline_pr1_adaptive_at_pr2_start the join rework, baseline_seed_at_pr_start the whole engine rework since the seed.",'
  # The seed implementation (per-step GridIndex rebuild + full agent
  # scans + uncached L-path mobility + ChaCha12 StdRng), measured with
  # the sustained protocol at the start of the engine rework, before any
  # optimization. Only the engine_step_sustained/adaptive rows measured
  # on the SAME machine as this baseline are a like-for-like comparison;
  # the seed engine itself is no longer in the tree.
  echo '  "baseline_seed_at_pr_start": {'
  echo '    "protocol": "engine_step_sustained (time-sized step loop from ~50% informed, radius 0.4*scale, v 0.2*radius)",'
  echo '    "machine": "Linux 6.18.5-fc-v18 x86_64 (original PR machine; cross-machine comparison with \"results\" below is invalid unless \"machine\" matches)",'
  echo '    "ns_per_step": {"1000": 20393.6, "10000": 267263.1, "100000": 7008407.4}'
  echo '  },'
  # The PR 1 adaptive engine (mark/probe side selection, no bucket
  # join), measured with the sustained protocol at the start of the
  # PR 2 bucket-join work — the reference the PR 2 speedup figures are
  # measured against.
  echo '  "baseline_pr1_adaptive_at_pr2_start": {'
  echo '    "protocol": "engine_step_sustained (time-sized step loop from ~50% informed, radius 0.4*scale, v 0.2*radius)",'
  echo '    "machine": "Linux 6.18.5-fc-v18 x86_64 (PR 2 machine; cross-machine comparison with \"results\" below is invalid unless \"machine\" matches)",'
  echo '    "ns_per_step": {"1000": 3167.5, "10000": 25405.0, "100000": 4022879.3}'
  echo '  },'
  # The PR 2 adaptive engine (bucket join with full re-bins of both
  # sides every step), measured with the sustained protocol at the
  # start of the incremental re-binning work — the reference its
  # speedup figures are measured against.
  echo '  "baseline_pr2_adaptive_at_pr3_start": {'
  echo '    "protocol": "engine_step_sustained (time-sized step loop from ~50% informed, radius 0.4*scale, v 0.2*radius)",'
  echo '    "machine": "Linux 6.18.5-fc-v18 x86_64 (PR 3 machine; cross-machine comparison with \"results\" below is invalid unless \"machine\" matches)",'
  echo '    "ns_per_step": {"1000": 2975.4, "10000": 26331.6, "100000": 2635528.1, "300000": 9692691.9}'
  echo '  },'
  # The PR 3 adaptive engine (incrementally-maintained join, AoS move
  # pass, speed()-bound staleness), measured with the sustained protocol
  # from the PR-3 tree at the start of the PR 4 batched-move-pass work —
  # the reference the PR 4 speedup figures are measured against. The
  # move pass is shared by every engine mode, so no in-tree mode can
  # re-record this engine after the rework.
  echo '  "baseline_pr3_adaptive_at_pr4_start": {'
  echo '    "protocol": "engine_step_sustained (time-sized step loop from ~50% informed, radius 0.4*scale, v 0.2*radius)",'
  echo '    "machine": "Linux 6.18.5-fc-v18 x86_64 (PR 4 machine; cross-machine comparison with \"results\" below is invalid unless \"machine\" matches)",'
  echo '    "ns_per_step": {"1000": 2976.3, "10000": 25459.5, "100000": 864851.9, "300000": 7003619.2}'
  echo '  },'
  # The PR 4 adaptive engine (batched SoA move pass with the 32-byte
  # hot entry, measured-drift staleness, sequential everything),
  # measured with the sustained protocol from the PR 4 tree at the
  # start of the PR 5 deterministic-parallelism + hot-entry-shrink
  # work — the reference the PR 5 figures are measured against. The
  # PR 5 sequential engine draws bitwise-identical trajectories but a
  # different per-step cost (24-byte hot entries), so the baseline
  # pins the old tree rather than any in-tree mode.
  echo '  "baseline_pr4_adaptive_at_pr5_start": {'
  echo '    "protocol": "engine_step_sustained (time-sized step loop from ~50% informed, radius 0.4*scale, v 0.2*radius)",'
  echo '    "machine": "Linux 6.18.5-fc-v18 x86_64, 1 CPU (PR 5 machine; single-core container, so the threads sweep measures determinism overhead, not scaling; cross-machine comparison with \"results\" below is invalid unless \"machine\" matches)",'
  echo '    "ns_per_step": {"1000": 1848.5, "10000": 14037.3, "100000": 361227.2, "300000": 5038163.5}'
  echo '  },'
  # The PR 5 adaptive engine (24-byte hot entries, interleaved per-agent
  # move loop, deterministic chunked parallelism), measured with the
  # sustained protocol from the PR 5 tree at the start of the PR 6
  # split-kernel work — the reference the PR 6 move-pass figures are
  # measured against, including the re-recorded threads sweep the PR 5
  # notes deferred to a multi-core machine.
  echo '  "baseline_pr5_adaptive_at_pr6_start": {'
  echo '    "protocol": "engine_step_sustained (time-sized step loop from ~50% informed, radius 0.4*scale, v 0.2*radius); adaptive sequential plus the adaptive_par_t{1,2,4} chunked threads sweep",'
  echo '    "machine": "Linux 6.18.5-fc-v20 x86_64, 1 CPU (PR 6 machine; ALSO single-core, so the re-recorded t2/t4 rows again measure oversubscribed dispatch overhead and determinism coverage, not scaling — the PR 5 multi-core caveat remains open for lack of hardware, now stated for both recordings; cross-machine comparison with \"results\" below is invalid unless \"machine\" matches)",'
  echo '    "ns_per_step": {'
  echo '      "adaptive": {"1000": 2670.0, "10000": 21162.4, "100000": 444456.9, "300000": 6037028.9},'
  echo '      "adaptive_par_t1": {"1000": 3474.0, "10000": 20089.1, "100000": 526663.0, "300000": 8862312.9},'
  echo '      "adaptive_par_t2": {"1000": 2555.1, "10000": 27641.3, "100000": 839645.8, "300000": 8807839.4},'
  echo '      "adaptive_par_t4": {"1000": 2485.2, "10000": 34348.1, "100000": 521087.5, "300000": 11501503.1}'
  echo '    }'
  echo '  },'
  echo '  "move_kernel":'
  sed 's/^/  /' "$movek"
  echo '  ,'
  echo '  "checkpoint":'
  sed 's/^/  /' "$ckpt"
  echo '  ,'
  echo '  "phase_breakdown":'
  sed 's/^/  /' "$phases"
  echo '  ,'
  echo '  "phase_breakdown_parallel":'
  sed 's/^/  /' "$phases_par"
  echo '  ,'
  echo '  "results":'
  sed 's/^/  /' "$tmp"
  echo '}'
} > BENCH_engine.json

echo "wrote BENCH_engine.json"
