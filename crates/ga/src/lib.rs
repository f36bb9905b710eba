//! # mcmap-ga
//!
//! A from-scratch multi-objective evolutionary optimization framework — the
//! library's stand-in for the Opt4J engine \[18\] with the SPEA-II selector
//! \[19\] used by the paper's design-space exploration (§4).
//!
//! * [`Problem`] — genotype construction, variation operators, evaluation;
//! * [`optimize`] — the generational loop (binary-tournament mating,
//!   crossover/mutation, environmental selection) with a batch-evaluation
//!   hook that a problem overrides to evaluate in parallel;
//! * [`Selector::Spea2`] — strength-Pareto fitness with k-NN density and
//!   truncation (the paper's configuration);
//! * [`Selector::Nsga2`] — non-dominated sorting with crowding distance,
//!   for ablation;
//! * constrained dominance (feasible ≻ infeasible, then penalty) so repair
//!   heuristics and penalties compose cleanly;
//! * [`hypervolume_2d`] / [`pareto_front`] quality indicators.
//!
//! # Examples
//!
//! See [`optimize`] for a complete single-objective example and the
//! `mcmap-core` crate for the full mapping problem.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod differential;
mod driver;
mod hypervolume;
mod nsga2;
mod problem;
mod spea2;

pub use driver::{
    optimize, optimize_resumable, DriverState, GaConfig, GaResult, GenerationObserver,
    GenerationSnapshot, GenerationStats, LoopControl, Selector, Unobserved,
};
pub use hypervolume::{front_extent, hypervolume_2d};
pub use nsga2::{crowding_distance, non_dominated_sort, nsga2_selection};
pub use problem::{
    constrained_dominates, dominates, pareto_front, Evaluation, Individual, Problem,
};
pub use spea2::{environmental_selection, spea2_fitness, Spea2Fitness};
