#!/usr/bin/env bash
# Per-stage wall time of a DSE candidate evaluation, measured from the
# outside: runs `perfbench --trace 1` five times on the dse-fleet and
# dse-paper workloads at seed 1 and records, for every per-layer metric
# (repair, decode, harden, map, backend construction, Algorithm 1
# enumeration, backend fixed-point runs, objectives, GA and eval-engine
# counters), the median and quartiles over the five runs, plus the
# workload's front digest (equal in every run) and the host's core count,
# into results/BENCH_stages.json. One traced run cannot resolve a stage
# change below about 15 %; the quartiles show each metric's spread.
#
# The file keeps one entry per label, so a before/after pair is two runs of
# this script with different labels into the same file, e.g. from a copy of
# the parent revision:
#   scripts/stage_table.sh --label parent --out /path/to/repo/results/BENCH_stages.json
#   scripts/stage_table.sh --label change
#
# Usage: scripts/stage_table.sh [--label NAME] [--out FILE]
#   --label  entry name in the file (default: current)
#   --out    output file (default: results/BENCH_stages.json)
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
label=current
out=results/BENCH_stages.json
while [[ $# -gt 0 ]]; do
    case "$1" in
        --label) label="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "stage_table.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/perfbench"

runs=5
entry='{}'
for workload in dse-fleet dse-paper; do
    samples='[]'
    digest=
    for run in $(seq "$runs"); do
        echo "== $workload (seed $seed, traced, run $run/$runs)" >&2
        output=$("$bin" --workload "$workload" --seed "$seed" --seconds 0 --trace 1)
        metrics=$(tail -n 1 <<<"$output" | jq '.metrics | map_values(.value)')
        samples=$(jq --argjson m "$metrics" '. + [$m]' <<<"$samples")
        d=$(sed -n "s/^\[$workload\] front_digest = //p" <<<"$output")
        if [[ -n "$digest" && "$d" != "$digest" ]]; then
            echo "stage_table.sh: $workload front digest changed between runs ($digest, $d)" >&2
            exit 1
        fi
        digest=$d
    done
    # Per metric: the median and quartiles (linear interpolation between
    # the sorted runs).
    stages=$(jq '
        def quantile($p): sort as $s | ((($s | length) - 1) * $p) as $h
            | ($h | floor) as $lo | ([$lo + 1, ($s | length) - 1] | min) as $hi
            | $s[$lo] + ($h - $lo) * ($s[$hi] - $s[$lo]);
        (.[0] | keys_unsorted) as $names
        | [.[]] as $runs
        | reduce $names[] as $k ({};
            [$runs[][$k]] as $v
            | .[$k] = {median: ($v | quantile(0.5)), q1: ($v | quantile(0.25)),
                       q3: ($v | quantile(0.75))})' <<<"$samples")
    entry=$(jq --arg w "$workload" --arg d "$digest" --argjson s "$stages" \
        --argjson n "$runs" '.[$w] = {front_digest: $d, traced_runs: $n, stages: $s}' <<<"$entry")
done

[[ -f "$out" ]] || echo '{"runs": {}}' >"$out"
tmp=$(mktemp)
jq --arg name "$label" --argjson seed "$seed" --argjson nproc "$(nproc)" \
    --argjson entry "$entry" \
    '.nproc = $nproc | .seed = $seed | .runs[$name] = $entry' "$out" >"$tmp"
mv "$tmp" "$out"
echo "stage_table.sh: wrote $label to $out" >&2
