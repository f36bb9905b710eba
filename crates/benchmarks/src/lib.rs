//! # mcmap-benchmarks
//!
//! The benchmark systems of §5 of *Kang et al., DAC 2014*:
//!
//! * [`cruise`] — a cruise-control system (after Kandasamy et al. \[20\]):
//!   two safety-critical control applications plus three synthetic
//!   droppable companions;
//! * [`dt_med`] / [`dt_large`] — distributed non-preemptive CORBA control
//!   applications (after the DREAM models \[21\]) with the paper's ×20
//!   period/WCET scaling;
//! * [`synth`] with the [`synth1`] / [`synth2`] presets — seeded random
//!   layered-DAG benchmarks for controlled sweeps;
//! * [`fleet`] with the `fleet-small` / `fleet-med` / `fleet-large`
//!   presets — 500–5000-task application sets on 16–64-PE
//!   interference-aware heterogeneous platforms, the workloads the
//!   parallel evaluation path is tuned against (`BENCH_scale.json`).
//!
//! The original models are not redistributable; these are structural
//! reconstructions from the public descriptions (see DESIGN.md §3), kept in
//! plain Rust so every parameter is inspectable.
//!
//! # Examples
//!
//! ```
//! let b = mcmap_benchmarks::cruise();
//! println!("{}: {} tasks on {} PEs", b.name, b.apps.num_tasks(),
//!     b.arch.num_processors());
//! assert!(b.apps.nondroppable_apps().count() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
mod cruise;
mod dt;
mod fleet;
mod synth;
mod util;

pub use arch::{arch_large, arch_medium, arch_small};
pub use cruise::cruise;
pub use dt::{dt_large, dt_med};
pub use fleet::{
    fleet, fleet_benchmark, fleet_large_config, fleet_med_config, fleet_preset, fleet_small_config,
    FleetConfig, PeClass,
};
pub use synth::{synth, synth1, synth2, SynthConfig};

use mcmap_model::{AppSet, Architecture};
use mcmap_sched::SchedPolicy;

/// A complete benchmark: application set, platform, and per-processor
/// scheduling policies.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name (e.g. `"Cruise"`).
    pub name: String,
    /// The application set.
    pub apps: AppSet,
    /// The target platform.
    pub arch: Architecture,
    /// Local scheduling policy of each processor.
    pub policies: Vec<SchedPolicy>,
}

/// Every name [`by_name`] resolves, in listing order.
pub const NAMES: [&str; 8] = [
    "cruise",
    "dt-med",
    "dt-large",
    "synth1",
    "synth2",
    "fleet-small",
    "fleet-med",
    "fleet-large",
];

/// Resolves a benchmark by its command-line name: the paper's benchmarks,
/// the synthetic presets and the fleet presets. The generated ones use
/// seed 42, so every lookup of a name sees the same system.
pub fn by_name(key: &str) -> Option<Benchmark> {
    match key {
        "cruise" => Some(cruise()),
        "dt-med" => Some(dt_med()),
        "dt-large" => Some(dt_large()),
        "synth1" => Some(synth1(42)),
        "synth2" => Some(synth2(42)),
        _ => fleet_benchmark(key, 42),
    }
}

/// All named benchmarks of the paper's evaluation, with the given seed for
/// the synthetic ones.
pub fn all_benchmarks(seed: u64) -> Vec<Benchmark> {
    vec![synth1(seed), synth2(seed), dt_med(), dt_large(), cruise()]
}
