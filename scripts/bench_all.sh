#!/usr/bin/env bash
# Regenerate every machine-readable BENCH_*.json artifact (the criterion
# emitters plus scripts/stage_table.sh) and guard the
# schemas: after each emitter runs, the top-level key set of the fresh
# JSON is diffed against the committed artifact (HEAD). A key that
# appears or disappears is a schema drift the offline tooling consuming
# these files must hear about — the script exits nonzero and names it.
# Fresh files (no committed counterpart yet) are reported, not failed.
#
# Usage: scripts/bench_all.sh [--keep]
#   --keep   leave the regenerated JSONs in results/ (default: results/
#            is updated in place — that is the point of the script)
#
# Budget knobs pass through to the benches (MCMAP_POP, MCMAP_GENS,
# MCMAP_FLEET, MCMAP_THREADS, ...).
set -euo pipefail
cd "$(dirname "$0")/.."

# emitter bench -> artifacts it writes (space-separated)
declare -A EMITTERS=(
    [eval_engine]=BENCH_eval.json
    [fleet_scale]=BENCH_scale.json
    [wcrt_analysis]=BENCH_sched.json
    [obs_overhead]="BENCH_obs.json BENCH_telemetry.json"
    [serve_load]=BENCH_serve.json
    [sim_validation]=BENCH_sim.json
)

keys_of() {
    jq -S 'keys' "$1"
}

drift=0
check_schema() {
    local artifact="$1"
    if ! git cat-file -e "HEAD:$artifact" 2>/dev/null; then
        echo "   (new artifact — no committed schema to compare)"
        return
    fi
    local committed fresh
    committed=$(git show "HEAD:$artifact" | jq -S 'keys')
    fresh=$(keys_of "$artifact")
    if [[ "$committed" != "$fresh" ]]; then
        echo "   SCHEMA DRIFT in $artifact:"
        diff <(echo "$committed") <(echo "$fresh") | sed 's/^/   /' || true
        drift=1
    else
        echo "   schema OK ($(echo "$fresh" | jq 'length') top-level keys)"
    fi
}

for bench in eval_engine fleet_scale wcrt_analysis obs_overhead \
             serve_load sim_validation; do
    echo "== $bench -> ${EMITTERS[$bench]}"
    cargo bench -q -p mcmap-bench --bench "$bench"
    for artifact in ${EMITTERS[$bench]}; do
        check_schema "results/$artifact"
    done
done

# Per-stage wall time of a traced DSE candidate evaluation (perfbench,
# dse-fleet and dse-paper at seed 1), recorded as the "current" entry.
echo "== stage_table -> results/BENCH_stages.json"
scripts/stage_table.sh
check_schema results/BENCH_stages.json

if [[ $drift -ne 0 ]]; then
    echo "bench_all.sh: schema drift detected — update the consumers and commit the new artifacts together" >&2
    exit 1
fi
echo "bench_all.sh: all artifacts regenerated, schemas stable"
