#!/usr/bin/env bash
# Full local gate: formatting, lints, rustdoc links, the whole test suite,
# the frozen perfbench crate graph, the evaluation engine's determinism
# suite, the server and validation-campaign kill-and-resume smokes, and
# the eval-engine + fleet-scale + wcrt-analysis
# + obs-overhead (tracing and metrics) + serve-load + sim-validation benches
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

# Rustdoc gate: no broken or private intra-doc links, so a doc comment
# cannot keep pointing at a deleted item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

cargo test --workspace -q

# Frozen crate graph: perfbench builds against the library crates by path
# with its own committed lock file; `--locked` fails when a change would
# rewrite perfbench/Cargo.lock (a crate or dependency edge added/removed).
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

# Thread-count / cache invariance of the DSE (bit-identical Pareto fronts).
cargo test -q --test determinism

# Resilience gates: the chaos harness (seeded fault injection) and the
# kill-at-every-generation resume sweep.
cargo test -q --test chaos
cargo test -q --test resume

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

# Engine micro/macro bench; emits results/BENCH_eval.json and asserts the
# small-batch no-thrash floor (parallel >= 0.95x serial on DT-med).
cargo bench -p mcmap-bench --bench eval_engine

# Fleet scaling gate: serial vs. parallel exploration of a generated
# fleet workload with bit-identical fronts asserted, and >2x wall speedup
# asserted when the persistent pool has >= 4 participants; emits
# results/BENCH_scale.json. Smoke budget here — run the bench with its
# defaults (fleet-med, pop 8 x gens 2) for the committed artifact.
MCMAP_FLEET=fleet-small MCMAP_POP=6 MCMAP_GENS=1 \
MCMAP_BENCH_OUT="$(mktemp -d)" \
  cargo bench -p mcmap-bench --bench fleet_scale

# Analysis fast-path gate (bit-identical windows, >= 1.5x over the cold
# enumeration); emits results/BENCH_sched.json.
cargo bench -p mcmap-bench --bench wcrt_analysis

# Tracing and metrics-collection overhead gates (budget 5 % each, against
# one shared unobserved leg); emits results/BENCH_obs.json and
# results/BENCH_telemetry.json.
cargo bench -p mcmap-bench --bench obs_overhead

# Multi-tenant serve load gate (100 concurrent jobs, zero failures,
# nonzero cross-job cache hits); emits results/BENCH_serve.json.
cargo bench -p mcmap-bench --bench serve_load

# Monte-Carlo validation gate: 1000 fault profiles against the cruise
# portfolio, zero WCRT-bound violations within coverage, thread-invariant
# summaries, and the closed-loop reaction mission holding bounds in every
# visited mode; emits results/BENCH_sim.json.
cargo bench -p mcmap-bench --bench sim_validation

echo "check.sh: all gates passed"
