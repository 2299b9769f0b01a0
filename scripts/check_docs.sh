#!/usr/bin/env bash
# Documentation gates, run by tier1.sh after the rustdoc build:
#   1. link check — every relative markdown link in README.md and
#      docs/*.md must resolve to a file in the repo (links are resolved
#      against the linking file's directory, like a markdown viewer);
#   2. cited documents — every `*.md` path a Rust source under crates/,
#      src/, tests/ or examples/ cites must exist, from the repo root or
#      from docs/ (a doc comment must not point at a missing document);
#   3. doc coverage — the generated rustdoc must contain the pages and
#      items of the spatial/engine incremental contract, so a rename or
#      visibility change cannot silently orphan the documented design.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# ---- 1. relative links in markdown ----
for f in README.md docs/*.md; do
  dir="$(dirname "$f")"
  while IFS= read -r target; do
    target="${target%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "check_docs: broken link in $f -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//' \
           | grep -vE '^(https?://|mailto:|#)' || true)
done

# ---- 2. markdown documents cited from Rust sources ----
while IFS=: read -r file line target; do
  if [ ! -e "$target" ] && [ ! -e "docs/$target" ]; then
    echo "check_docs: $file:$line cites $target, which does not exist"
    fail=1
  fi
done < <(grep -rnoE --include='*.rs' '[A-Za-z0-9_./-]+\.md\b' crates src tests examples || true)

# ---- 3. rustdoc coverage of the incremental spatial/engine API ----
doc_expect() {
  local file="$1" needle="$2"
  if [ ! -f "target/doc/$file" ]; then
    echo "check_docs: missing rustdoc page target/doc/$file (run cargo doc first)"
    fail=1
  elif ! grep -q "$needle" "target/doc/$file"; then
    echo "check_docs: target/doc/$file does not document '$needle'"
    fail=1
  fi
}
doc_expect fastflood_spatial/struct.GridIndexBuffer.html "warm buffer is also how a slack grid is re-filed"
doc_expect fastflood_spatial/struct.GridIndexBuffer.html update_membership
doc_expect fastflood_spatial/struct.GridIndexBuffer.html "nearest row with spare capacity"
doc_expect fastflood_spatial/struct.GridIndexBuffer.html rebuild_incremental
doc_expect fastflood_spatial/struct.GridIndexBuffer.html join_covered_by_stale
doc_expect fastflood_spatial/struct.GridIndexBuffer.html "Frontier-band iteration"
doc_expect fastflood_spatial/struct.GridIndexBuffer.html "r + slop_self + slop_other"
doc_expect fastflood_spatial/index.html "R/√2"
doc_expect fastflood_spatial/fn.disk_giant_fraction.html "four table"
doc_expect fastflood_core/struct.FloodingSim.html "entries that were already indexed and were filed"
doc_expect fastflood_core/struct.FloodingSim.html incremental_diff_steps
doc_expect fastflood_core/struct.FloodingSim.html incremental_deferred_steps
doc_expect fastflood_core/struct.FloodingSim.html incremental_staleness
doc_expect fastflood_core/struct.FloodingSim.html incremental_refiled_entries
doc_expect fastflood_core/struct.FloodingSim.html awake_agent_steps
doc_expect fastflood_core/struct.FloodingSim.html incremental_epoch_rebuilds
doc_expect fastflood_mobility/trait.Mobility.html "Displacement contract"
doc_expect fastflood_core/struct.FloodingSim.html phase_times
doc_expect fastflood_core/struct.StepPhases.html refresh_ns
doc_expect fastflood_mobility/trait.Mobility.html step_batch
doc_expect fastflood_mobility/trait.Mobility.html batch_from_states
doc_expect fastflood_mobility/trait.Mobility.html "streams each one straight into the"
doc_expect fastflood_mobility/struct.MrwpBatch.html "endpoints, first axis and pause"
doc_expect fastflood_mobility/trait.Mobility.html move_split_nanos
doc_expect fastflood_mobility/trait.Mobility.html enable_move_timing
doc_expect fastflood_mobility/struct.MrwpBatch.html "hot/cold"
doc_expect fastflood_mobility/struct.MrwpBatch.html "advance kernel"
doc_expect fastflood_mobility/struct.BlockRng.html "draw order"
doc_expect fastflood_mobility/constant.RNG_BLOCK.html refill
doc_expect fastflood_mobility/fn.step_batch_aos.html "disjoint pool tasks"
doc_expect fastflood_mobility/trait.Mobility.html "agents on the main stream"
doc_expect fastflood_core/struct.StepPhases.html boundary_ns

# ---- scenario subsystem + fault-injection API ----
doc_expect fastflood_core/struct.FloodingSim.html revive_agent
doc_expect fastflood_core/struct.FloodingSim.html crash_agent
doc_expect fastflood_core/struct.FloodingSim.html "fail-stop"
doc_expect fastflood_core/struct.FloodingSim.html "live-uninformed count"
doc_expect fastflood_spatial/fn.disk_giant_fraction.html "R/√2"
doc_expect fastflood_core/struct.FloodingSim.html inform_agent
doc_expect fastflood_core/struct.FloodingSim.html place_agent_at
doc_expect fastflood_core/struct.FloodingSim.html reset_source
doc_expect fastflood_core/struct.FloodingSim.html incremental_spike_rebuilds
doc_expect fastflood_core/struct.FloodingReport.html "non-termination"
doc_expect fastflood_mobility/struct.Mixture.html "speed classes"
doc_expect fastflood_mobility/struct.StreetMrwp.html with_pause
doc_expect fastflood_bench/scenario/index.html "Determinism contract"
doc_expect fastflood_bench/scenario/struct.Scenario.html fault
doc_expect fastflood_bench/scenario/enum.FaultKind.html Churn
doc_expect fastflood_bench/scenario/fn.run_scenario.html index.html
doc_expect fastflood_bench/scenario/struct.Trace.html bitwise
doc_expect fastflood_bench/scenario/fn.parse_scenario.html "unknown"

# ---- engine/parallelism name tables + scenario metrics ----
doc_expect fastflood_core/enum.EngineMode.html FromStr
doc_expect fastflood_core/enum.Parallelism.html FromStr
doc_expect fastflood_bench/scenario/enum.MetricSpec.html "evacuation-notice"

# ---- checkpoint/restore subsystem ----
doc_expect fastflood_core/checkpoint/struct.Snapshot.html write_atomic
doc_expect fastflood_core/checkpoint/struct.Snapshot.html "checksummed"
doc_expect fastflood_core/checkpoint/enum.CheckpointError.html ChecksumMismatch
doc_expect fastflood_core/checkpoint/enum.CheckpointError.html Incompatible
doc_expect fastflood_core/checkpoint/fn.latest_valid.html "falling back"
doc_expect fastflood_core/struct.FloodingSim.html snapshot
doc_expect fastflood_core/struct.FloodingSim.html "bitwise-identical"
doc_expect fastflood_mobility/snapshot/trait.SnapshotState.html STATE_TAG
doc_expect fastflood_mobility/snapshot/struct.ByteWriter.html put_block
doc_expect rand/trait.SnapshotRng.html state_bytes
doc_expect fastflood_bench/scenario/struct.Driver.html "checkpoint point"
doc_expect fastflood_bench/scenario/fn.run_scenario_checkpointed.html "fallback ladder"
doc_expect fastflood_bench/scenario/fn.bisect_divergence.html "first divergent"
doc_expect fastflood_bench/scenario/struct.BisectReport.html differing_sections
doc_expect fastflood_bench/scenario/fn.trace_digest.html digest

# ---- supervised service layer ----
doc_expect fastflood_core/struct.CancelToken.html cloneable
doc_expect fastflood_core/struct.CancelToken.html sticky
doc_expect fastflood_core/struct.FloodingSim.html set_cancel_token
doc_expect fastflood_parallel/fn.shared_pool.html "process-shared"
doc_expect fastflood_core/checkpoint/struct.Snapshot.html "parent directory"
doc_expect fastflood_core/checkpoint/struct.Snapshot.html "frame and payload are streamed straight"
doc_expect fastflood_core/checkpoint/fn.crc32.html "Slicing-by-16"
doc_expect fastflood_core/checkpoint/fn.crc32.html "four quarters"
doc_expect fastflood_core/checkpoint/fn.crc32.html crc32_combine
doc_expect fastflood_core/checkpoint/index.html "Version 2"
doc_expect fastflood_core/checkpoint/constant.TAG_POSN.html "zigzag varint"
doc_expect fastflood_core/struct.FloodingSim.html "zigzag varint"
doc_expect fastflood_mobility/snapshot/struct.ByteWriter.html LEB128
doc_expect fastflood_mobility/snapshot/struct.ByteReader.html overlong
doc_expect fastflood_mobility/struct.MrwpState.html "warm bit"
doc_expect fastflood_core/checkpoint/fn.checkpoint_files_newest_first.html "newest first"
doc_expect fastflood_bench/scenario/struct.CheckpointOpts.html cancel
doc_expect fastflood_bench/scenario/struct.CheckpointOpts.html panic_at_step
doc_expect fastflood_bench/scenario/struct.CheckpointSummary.html interrupted
doc_expect fastflood_bench/scenario/enum.Cadence.html "first-order rule of Young"
doc_expect fastflood_bench/scenario/enum.Cadence.html "prior cost is the attempt"
doc_expect fastflood_bench/scenario/constant.COST_FACTOR.html "1/(K + 1) = 1/11"
doc_expect fastflood_bench/scenario/struct.CheckpointSummary.html newest_written_step
doc_expect fastflood_service/supervisor/struct.SupervisorConfig.html checkpoint_cadence
doc_expect fastflood_service/supervisor/struct.Supervisor.html drain
doc_expect fastflood_service/supervisor/struct.SupervisorConfig.html memory_budget_bytes
doc_expect fastflood_service/supervisor/enum.JobPhase.html watchdog
doc_expect fastflood_service/supervisor/enum.Submission.html Degraded
doc_expect fastflood_service/supervisor/fn.estimate_snapshot_bytes.html "library checkpoint"
doc_expect fastflood_service/supervisor/fn.estimate_snapshot_bytes.html "up to 67 bytes/agent"
doc_expect fastflood_service/supervisor/enum.JobPhase.html "checkpoint directory is removed"
doc_expect fastflood_service/server/fn.serve.html drain
doc_expect fastflood_service/json/enum.Json.html "key order"

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: relative links resolve + cited documents exist + rustdoc covers the incremental API"
