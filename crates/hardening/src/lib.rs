//! # mcmap-hardening
//!
//! Fault-tolerance hardening for mixed-criticality MPSoC applications,
//! implementing §2.2 of *Kang et al., DAC 2014*:
//!
//! * **re-execution** — roll back and retry up to `k` times; the critical
//!   WCET follows Eq. (1), `wcet' = (wcet + dt) · (k + 1)`;
//! * **active replication** — always-on copies on distinct processors with a
//!   majority voter;
//! * **passive replication** — standby copies invoked by the voter only on a
//!   mismatch.
//!
//! A [`HardeningPlan`] assigns a [`TaskHardening`] to every task — one enum
//! per task, `None`, `Reexec(k)`, `Active` or `Passive`, the same value a
//! chromosome gene ([`TaskGene`]) carries; [`harden`]
//! rewrites the application set into a [`HardenedSystem`] (copies, voters,
//! fan-in/fan-out channels, inflated bounds) that the scheduling analysis
//! and simulator consume. [`Reliability`] quantifies the failure probability
//! of each application under the plan and checks the `f_t` bounds.
//!
//! # Examples
//!
//! ```
//! use mcmap_hardening::{harden, HardeningPlan, Reliability, TaskHardening};
//! use mcmap_hardening::placement_with_default;
//! use mcmap_model::{
//!     AppId, AppSet, Architecture, Criticality, ExecBounds, ProcId, ProcKind, Processor,
//!     Task, TaskGraph, Time,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = Architecture::builder()
//!     .homogeneous(3, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
//!     .build()?;
//! let g = TaskGraph::builder("ctrl", Time::from_ticks(1_000))
//!     .criticality(Criticality::NonDroppable { max_failure_rate: 1e-6 })
//!     .task(Task::new("law").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100))))
//!     .build()?;
//! let apps = AppSet::new(vec![g])?;
//!
//! // Unhardened, the control law misses its reliability bound…
//! let bare = harden(&apps, &HardeningPlan::unhardened(&apps), &arch)?;
//! let placement = placement_with_default(&bare, ProcId::new(0));
//! assert!(!Reliability::new(&bare, &arch).all_satisfied(&placement));
//!
//! // …triplication fixes it.
//! let mut plan = HardeningPlan::unhardened(&apps);
//! plan.set_by_flat_index(0, TaskHardening::Active {
//!     replicas: vec![ProcId::new(1), ProcId::new(2)],
//!     voter: ProcId::new(0),
//! });
//! let tripled = harden(&apps, &plan, &arch)?;
//! let placement = placement_with_default(&tripled, ProcId::new(0));
//! assert!(Reliability::new(&tripled, &arch).all_satisfied(&placement));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dot;
mod genome;
mod htask;
mod reliability;
mod spec;
mod transform;

pub use dot::hardened_to_dot;
pub use genome::{Genome, TaskGene};
pub use htask::{HApp, HChannel, HTask, HTaskId, Role};
pub use reliability::{
    copy_failure_prob, majority_failure_prob, placement_respects_fixed, placement_with_default,
    Reliability, ReliabilityVerdict,
};
pub use spec::{HardeningPlan, TaskHardening, TechniqueHistogram};
pub use transform::{
    copy_nominal_bounds, entry_errors, harden, validate_entry, HardenError, HardenedSystem,
};
