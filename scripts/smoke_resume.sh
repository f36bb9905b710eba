#!/usr/bin/env bash
# Kill-and-resume smoke over the real CLI.
#
# Three runs of the same exploration (cruise, fixed seed):
#   1. an uninterrupted baseline with checkpointing on;
#   2. a run stopped with SIGTERM (graceful: checkpoint + trace flush at the
#      next generation boundary, exit code 130), then resumed;
#   3. a run killed with SIGKILL (hard: no cleanup, possibly a torn trace
#      line), then resumed.
# Both resumed runs must print the exact front the baseline printed, and
# their stitched traces must parse cleanly with the same event count.
# Last, a resume from a checkpoint that does not exist must exit nonzero
# and leave the existing `--trace` file unchanged byte for byte.
#
# Race-proof by construction: if a signal lands after the run already
# finished, the resume degenerates to a no-op replay of the final
# checkpoint, which must still match the baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

POP=12
GENS=40
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cargo build -q -p mcmap-bench --bin mcmap_cli
CLI=target/debug/mcmap_cli

run_baseline() {
    "$CLI" dse cruise "$POP" "$GENS" \
        --checkpoint "$TMP/baseline.ckpt" --trace "$TMP/baseline.jsonl" \
        > "$TMP/baseline.out"
}

# Starts a checkpointed run in the background, waits for its first
# checkpoint, delivers $1 (TERM|KILL), then resumes and compares.
interrupt_and_resume() {
    local sig="$1" tag="$2"
    local ckpt="$TMP/$tag.ckpt" trace="$TMP/$tag.jsonl"

    "$CLI" dse cruise "$POP" "$GENS" \
        --checkpoint "$ckpt" --trace "$trace" > "$TMP/$tag.part1.out" &
    local pid=$!
    for _ in $(seq 1 200); do
        [[ -f "$ckpt" ]] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    kill "-$sig" "$pid" 2>/dev/null || true
    local code=0
    wait "$pid" || code=$?

    if [[ "$sig" == TERM && "$code" == 130 ]]; then
        grep -q "interrupted after generation" "$TMP/$tag.part1.out" \
            || { echo "smoke_resume: $tag: exit 130 without the partial-results notice"; exit 1; }
    fi
    # A kill between the two renames of a rotating write leaves only the
    # backup, which the resume falls back to.
    [[ -f "$ckpt" || -f "$ckpt.bak" ]] \
        || { echo "smoke_resume: $tag: no checkpoint survived the $sig"; exit 1; }

    "$CLI" dse cruise "$POP" "$GENS" \
        --resume "$ckpt" --checkpoint "$ckpt" --trace "$trace" > "$TMP/$tag.part2.out"
    # Only the resume notice and the trace *path* may differ.
    normalize() { grep -v "^resumed from checkpoint" "$1" | sed 's/trace written to [^ ]*/trace written to TRACE/'; }
    diff <(normalize "$TMP/baseline.out") <(normalize "$TMP/$tag.part2.out") \
        || { echo "smoke_resume: $tag: resumed front differs from the uninterrupted run"; exit 1; }

    # The stitched trace must parse cleanly end to end and contain exactly
    # the events of the uninterrupted trace.
    "$CLI" obs "$trace" > /dev/null \
        || { echo "smoke_resume: $tag: stitched trace does not parse"; exit 1; }
    local want got
    want=$(wc -l < "$TMP/baseline.jsonl")
    got=$(wc -l < "$trace")
    [[ "$want" == "$got" ]] \
        || { echo "smoke_resume: $tag: stitched trace has $got events, baseline $want"; exit 1; }
    echo "smoke_resume: $tag: resumed run matches the baseline ($got trace events)"
}

# Resumes from a missing checkpoint onto a copy of the baseline trace.
failed_resume() {
    local trace="$TMP/failed.jsonl" code=0
    cp "$TMP/baseline.jsonl" "$trace"
    "$CLI" dse cruise "$POP" "$GENS" \
        --resume "$TMP/no-such.ckpt" --trace "$trace" > /dev/null 2>&1 || code=$?
    [[ "$code" == 1 ]] \
        || { echo "smoke_resume: failed-resume: a missing checkpoint exited $code, not 1"; exit 1; }
    [[ -f "$trace" ]] && cmp -s "$TMP/baseline.jsonl" "$trace" \
        || { echo "smoke_resume: failed-resume: the trace did not survive unchanged"; exit 1; }
    echo "smoke_resume: failed-resume: exit $code, trace unchanged"
}

run_baseline
interrupt_and_resume TERM sigterm
interrupt_and_resume KILL sigkill
failed_resume
echo "smoke_resume: all kill-and-resume smokes passed"
