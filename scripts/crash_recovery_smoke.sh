#!/usr/bin/env bash
# Kill-resume smoke at the shell level: start a checkpointing scenario
# run slowed by the --step-delay-ms hook, SIGKILL it mid-flood, resume
# from the snapshot directory, and require the resumed per-trial trace
# digest to equal an uninterrupted run's. Complements the in-process
# harness (crates/bench/tests/crash_recovery.rs) by exercising the real
# binary + real signals end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p fastflood-bench --bin scenarios
BIN=target/release/scenarios
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# Uninterrupted reference digest (resume over an empty dir forces the
# per-trial digest output without writing any snapshots).
mkdir -p "$DIR/empty"
REF="$("$BIN" --quick --scenario crash-storm --trials 1 --resume "$DIR/empty" 2>/dev/null \
  | grep -o '"trace_digest": "[0-9a-f]*"')"

# Slow checkpointing run, hard-killed once a snapshot ladder exists (a
# run keeps its newest two checkpoints).
"$BIN" --quick --scenario crash-storm --trials 1 \
  --checkpoint-every 2 --step-delay-ms 40 --checkpoint-dir "$DIR" >/dev/null 2>&1 &
PID=$!
ckpt_count() {
  { ls "$DIR"/crash-storm/trial00/*.ckpt 2>/dev/null || true; } | wc -l
}
for _ in $(seq 1 400); do
  [ "$(ckpt_count)" -ge 2 ] && break
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
[ "$(ckpt_count)" -ge 1 ] \
  || { echo "crash-recovery smoke: no checkpoints were written"; exit 1; }

OUT="$("$BIN" --quick --scenario crash-storm --trials 1 --resume "$DIR" 2>/dev/null)"
RES="$(grep -o '"trace_digest": "[0-9a-f]*"' <<<"$OUT")"
grep -q '"resumed_from_step": [0-9]' <<<"$OUT" \
  || { echo "crash-recovery smoke: resume did not pick up a checkpoint"; exit 1; }
[ "$REF" = "$RES" ] \
  || { echo "crash-recovery smoke: digest mismatch: $REF vs $RES"; exit 1; }
echo "crash-recovery smoke OK (${RES})"
