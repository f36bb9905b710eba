#!/usr/bin/env bash
# Kill-and-resume smoke over the validation campaign CLI.
#
# One stored portfolio (cruise, fixed seed), then three campaign runs
# against it:
#   1. an uninterrupted baseline;
#   2. a checkpointed run stopped with SIGTERM (graceful: finish the
#      chunk in flight, checkpoint, exit code 130), then resumed — on a
#      different thread count, so the comparison also gates the
#      campaign's thread invariance;
#   3. (implicit) the portfolio round-trip itself: every run after the
#      first reads the portfolio back from disk;
#   4. portfolio recovery: with the stored portfolio copied to
#      `portfolio.bak` and the primary truncated, the baseline command
#      must report the recovery and print the baseline's stdout.
# The resumed run must print byte-identical stdout to the baseline:
# the summary carries no trace of the interruption or the parallelism.
#
# Race-proof by construction: the final chunk also writes a checkpoint,
# so a signal landing after completion degenerates the resume into a
# no-op replay that must still match the baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

POP=16
GENS=16
PROFILES=2000
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cargo build -q -p mcmap-bench --bin mcmap_cli
CLI=target/debug/mcmap_cli

# A 1-profile run whose only job is to explore once and store the
# portfolio; every later run reuses the file and skips the DSE.
"$CLI" validate cruise "$POP" "$GENS" --portfolio "$TMP/portfolio" \
    --profiles 1 > /dev/null 2>&1
[[ -f "$TMP/portfolio" ]] \
    || { echo "smoke_validate: portfolio file was not written"; exit 1; }

# Uninterrupted baseline.
"$CLI" validate cruise "$POP" "$GENS" --portfolio "$TMP/portfolio" \
    --profiles "$PROFILES" > "$TMP/baseline.out" 2> /dev/null

# Checkpointed run, SIGTERMed after its first checkpoint lands.
CKPT="$TMP/campaign.ckpt"
"$CLI" validate cruise "$POP" "$GENS" --portfolio "$TMP/portfolio" \
    --profiles "$PROFILES" --checkpoint "$CKPT" \
    > "$TMP/part1.out" 2> "$TMP/part1.err" &
pid=$!
for _ in $(seq 1 400); do
    [[ -f "$CKPT" ]] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
done
kill -TERM "$pid" 2>/dev/null || true
code=0
wait "$pid" || code=$?

if [[ "$code" == 130 ]]; then
    grep -q "interrupted after" "$TMP/part1.err" \
        || { echo "smoke_validate: exit 130 without the resume hint"; exit 1; }
    grep -q "\[interrupted at" "$TMP/part1.out" \
        || { echo "smoke_validate: exit 130 without the partial-summary marker"; exit 1; }
fi
[[ -f "$CKPT" ]] \
    || { echo "smoke_validate: no checkpoint survived the SIGTERM"; exit 1; }

# Resume on a single thread; the baseline used the default pool. The
# summaries must nonetheless match byte for byte.
"$CLI" validate cruise "$POP" "$GENS" --portfolio "$TMP/portfolio" \
    --profiles "$PROFILES" --checkpoint "$CKPT" --resume --threads 1 \
    > "$TMP/resumed.out" 2> /dev/null

diff "$TMP/baseline.out" "$TMP/resumed.out" \
    || { echo "smoke_validate: resumed summary differs from the uninterrupted run"; exit 1; }

echo "smoke_validate: resumed campaign matches the baseline byte-for-byte"

# Torn primary portfolio with a good `.bak` beside it (as a corrupted
# or cut-short primary file leaves it): the read must fall back to the
# backup, say so on stderr, and change nothing in the output.
cp "$TMP/portfolio" "$TMP/portfolio.bak"
truncate -s $(( $(stat -c %s "$TMP/portfolio") / 2 )) "$TMP/portfolio"
"$CLI" validate cruise "$POP" "$GENS" --portfolio "$TMP/portfolio" \
    --profiles "$PROFILES" > "$TMP/recovered.out" 2> "$TMP/recovered.err" \
    || { echo "smoke_validate: run on a truncated portfolio failed:"; cat "$TMP/recovered.err"; exit 1; }
grep -q "portfolio recovered from" "$TMP/recovered.err" \
    || { echo "smoke_validate: truncated portfolio was not recovered from .bak"; exit 1; }
diff "$TMP/baseline.out" "$TMP/recovered.out" \
    || { echo "smoke_validate: recovered portfolio changed the summary"; exit 1; }

echo "smoke_validate: portfolio recovered from .bak matches the baseline byte-for-byte"
