//! # mcmap-sched
//!
//! The schedulability backend (`sched` in the paper's Algorithm 1):
//! best-case start / worst-case finish analysis for hardened task graphs
//! mapped onto a fixed-priority MPSoC.
//!
//! The paper plugs an external analytical method (Kim et al., DAC 2013) into
//! its wrapper; any backend producing safe `[minStart, maxFinish]` windows
//! works. This crate provides [`HolisticAnalysis`], a holistic offset/jitter
//! fixed-point analysis in the Tindell/Clark lineage supporting preemptive
//! and non-preemptive fixed-priority processors and bandwidth-limited fabric
//! transfers, behind the [`SchedBackend`] trait the mixed-criticality
//! analysis consumes.
//!
//! # Examples
//!
//! See [`HolisticAnalysis`] for an end-to-end example.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod holistic;
mod mapping;
mod windows;

pub use holistic::HolisticAnalysis;
pub use mapping::{
    deadline_monotonic_priorities, nominal_utilization, rate_monotonic_priorities,
    uniform_policies, MapError, Mapping, SchedPolicy,
};
pub use windows::{hyperperiod, nominal_bounds, SchedBackend, TaskWindows};
