//! # mcmap-sim
//!
//! Discrete-event simulation of fault-tolerant mixed-criticality MPSoCs,
//! implementing the runtime protocol of §3 of *Kang et al., DAC 2014*:
//! fixed-priority dispatching per PE, fabric-delayed messages, re-execution
//! on detected faults, on-demand passive standbys, and mixed-criticality
//! task dropping (the dropped set releases no work from the first fault
//! until the hyperperiod boundary).
//!
//! The simulator plays two roles in the reproduction:
//!
//! 1. **WC-Sim** (Table 2): [`monte_carlo`] hunts the worst observed
//!    response time over many seeded failure profiles — a lower bound that
//!    the static analysis must dominate. A [`TrajectoryMemo`] simulates
//!    each distinct fault trajectory once and answers repeats from memory;
//! 2. **validation**: directed [`ScriptedFaults`] scenarios (e.g. the Fig. 1
//!    motivational example) exercise the dropping protocol end to end.
//!
//! # Examples
//!
//! Simulating a single re-executed fault:
//!
//! ```
//! use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
//! use mcmap_model::{AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task,
//!     TaskGraph, Time};
//! use mcmap_sched::{uniform_policies, Mapping, SchedPolicy};
//! use mcmap_sim::{ScriptedFaults, SimConfig, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = Architecture::builder()
//!     .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
//!     .build()?;
//! let g = TaskGraph::builder("g", Time::from_ticks(1_000))
//!     .task(Task::new("t")
//!         .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100)))
//!         .with_detect_overhead(Time::from_ticks(10)))
//!     .build()?;
//! let apps = AppSet::new(vec![g])?;
//! let mut plan = HardeningPlan::unhardened(&apps);
//! plan.set_by_flat_index(0, TaskHardening::Reexec(1));
//! let hsys = harden(&apps, &plan, &arch)?;
//! let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)])?;
//! let sim = Simulator::new(&hsys, &arch, &mapping,
//!     uniform_policies(1, SchedPolicy::FixedPriorityPreemptive));
//!
//! // One fault on the first attempt: the task runs twice (2 × 110 ticks).
//! let mut faults = ScriptedFaults::new().with_fault(mcmap_hardening::HTaskId::new(0), 0, 0);
//! let result = sim.run(&SimConfig::default(), &mut faults);
//! assert_eq!(result.app_wcrt[0], Time::from_ticks(220));
//! assert_eq!(result.critical_entries, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod fault;
mod memo;
mod monte;
mod trace;

pub use engine::{ExecModel, SimConfig, SimResult, Simulator};
pub use fault::{
    ExhaustiveReexecution, FaultModel, FaultProfile, NoFaults, RandomFaults, ScriptedFaults,
};
pub use memo::{Answer, Leaves, TrajectoryMemo};
pub use monte::{monte_carlo, MonteCarloConfig, MonteCarloResult};
pub use trace::{JobOutcome, JobRecord, Segment, Trace};
