#!/usr/bin/env bash
# Full local gate: formatting, lints, build logs in committed results,
# rustdoc links, the frozen perfbench
# crate graph, the whole test suite (the determinism, chaos and resume
# suites included), perfbench's smoke test, the CLI, server and
# validation-campaign kill-and-resume smokes, and the eval-engine +
# fleet-scale + wcrt-analysis + obs-overhead (tracing and metrics) +
# serve-load + sim-validation benches
# (which write the machine-readable results/BENCH_eval.json,
# results/BENCH_scale.json, results/BENCH_sched.json,
# results/BENCH_obs.json, results/BENCH_telemetry.json,
# results/BENCH_serve.json, and results/BENCH_sim.json — the fleet-scale
# smoke writes its JSON to a temp dir so the committed fleet-med artifact
# is regenerated only by scripts/bench_all.sh).
# Usage: scripts/check.sh [--fix]
#   --fix   apply rustfmt and clippy suggestions instead of just checking
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix" ]]; then
    cargo fmt
    cargo clippy --workspace --all-targets --fix --allow-dirty --allow-staged -- -D warnings
else
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
fi

# Committed results hold program output only: a cargo build-log line
# (`Compiling`, `Finished`, `Running`) means the file was recorded with
# stderr redirected into it and cannot be reproduced byte for byte.
if grep -nE '^ *(Compiling|Finished|Running) ' results/*.txt; then
    echo "check.sh: cargo build log in results/*.txt; regenerate from stdout only (cargo run -q ... > results/<file>.txt)" >&2
    exit 1
fi

# Rustdoc gate: no broken or private intra-doc links, so a doc comment
# cannot keep pointing at a deleted item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Frozen crate graph: perfbench builds against the library crates by path
# with its own committed lock file; `--locked` fails when a change would
# rewrite perfbench/Cargo.lock (a crate or dependency edge added/removed).
# It runs before the workspace tests so a broken crate graph or a broken
# re-export that perfbench imports fails in seconds.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

cargo test --workspace -q

# perfbench's own smoke test: every workload at its smoke budget, with the
# benchmark's output checks (evaluation counts, front re-verification,
# same-seed digests).
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# Kill-and-resume smoke over the real CLI: start a checkpointed run,
# SIGKILL it mid-flight, resume, and require the resumed front to match an
# uninterrupted run of the same configuration byte-for-byte.
scripts/smoke_resume.sh

# Job-server smoke over the serve/client CLI: SIGTERM and SIGKILL a server
# mid-flight, restart it on the same jobs directory, resume every job, and
# require the resumed fronts to match an uninterrupted server's
# byte-for-byte.
scripts/smoke_serve.sh

# Validation-campaign smoke: SIGTERM a checkpointed Monte-Carlo campaign
# mid-flight, resume it on a different thread count, and require the
# resumed summary to match an uninterrupted run's byte-for-byte.
scripts/smoke_validate.sh

# The four timing gates below measure through mcmap_bench::ab: rounds of
# legs in rotating order, each round re-run when hypervisor steal in
# /proc/stat took more than a fixed share of it. A bench that runs out of
# clean rounds prints "host too noisy"; cargo reports that as an ordinary
# failure (exit 101), so it is named here as its own outcome. It still
# fails the gate: a noisy host proves nothing either way.
gated_bench() {
    local log status=0
    log=$(mktemp)
    cargo bench -p mcmap-bench --bench "$1" 2>&1 | tee "$log" || status=$?
    if [[ $status -ne 0 ]] && grep -q "host too noisy" "$log"; then
        echo "check.sh: $1: HOST TOO NOISY (not a pass): too many rounds lost CPU time to steal" >&2
        status=75
    fi
    rm -f "$log"
    [[ $status -eq 0 ]] || exit "$status"
}

# Engine micro/macro bench; emits results/BENCH_eval.json and asserts the
# small-batch no-thrash floor (parallel >= 0.95x serial on DT-med).
gated_bench eval_engine

# Fleet scaling gate: serial vs. parallel exploration of a generated
# fleet workload with bit-identical fronts asserted, and a wall speedup of
# at least 0.6 x min(threads, cores) asserted on hosts with >= 2 cores; emits
# results/BENCH_scale.json. Smoke budget here — run the bench with its
# defaults (fleet-med, pop 8 x gens 2) for the committed artifact.
# Co-tenant load that the guest does not see as steal can still slow the
# parallel leg (DESIGN.md §20); the per-round walls and steal in the JSON
# tell that case from a steal-heavy one.
MCMAP_FLEET=fleet-small MCMAP_POP=6 MCMAP_GENS=1 \
MCMAP_BENCH_OUT="$(mktemp -d)" \
  gated_bench fleet_scale

# Analysis fast-path gate (bit-identical windows, >= 1.5x over the cold
# enumeration); emits results/BENCH_sched.json.
gated_bench wcrt_analysis

# Tracing and metrics-collection overhead gates (budget 5 % each, against
# one shared unobserved leg); emits results/BENCH_obs.json and
# results/BENCH_telemetry.json.
gated_bench obs_overhead

# Multi-tenant serve load gate (100 concurrent jobs, zero failures,
# nonzero cross-job cache hits); emits results/BENCH_serve.json.
cargo bench -p mcmap-bench --bench serve_load

# Monte-Carlo validation gate: 1000 fault profiles against the cruise
# portfolio, zero WCRT-bound violations within coverage, thread-invariant
# summaries, and the closed-loop reaction mission holding bounds in every
# visited mode; emits results/BENCH_sim.json.
cargo bench -p mcmap-bench --bench sim_validation

echo "check.sh: all gates passed"
