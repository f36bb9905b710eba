//! # mcmap-lint — static analysis for mixed-critical mapping inputs
//!
//! A multi-pass analyzer over the paper's problem inputs: the application
//! set, the platform architecture, an optional hardening plan, and an
//! optional GA chromosome. Every finding is a structured [`Diagnostic`]
//! with a stable `MC0xxx` code, a severity, the offending entity, and a fix
//! suggestion; [`LintReport`] renders them as text or JSON.
//!
//! ## Code namespace
//!
//! * `MC0001`–`MC0015` mirror [`ModelError`] (one code per variant, in
//!   declaration order — see [`ModelError::code`]). The linter re-detects
//!   these on *unvalidated* systems, so tooling can diagnose inputs the
//!   strict constructors reject.
//! * `MC0101`+ are lint-only: constraints that are provably unsatisfiable
//!   for **every** mapping (reliability bounds out of reach, critical paths
//!   beyond the deadline, utilization over-commitment), plus softer smells
//!   (orphan PEs, colocated replicas, hardened droppable tasks).
//!
//! ## Layering
//!
//! This crate depends only on `mcmap-model` and `mcmap-hardening`;
//! `mcmap-core` builds its DSE pre-flight on top of it. The genome and
//! interference passes take the DSE chromosome itself,
//! [`mcmap_hardening::Genome`], which `mcmap-core` re-exports.
//!
//! ## Example
//!
//! ```
//! use mcmap_lint::{inject, Linter};
//! use mcmap_model::{AppSet, Architecture, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time};
//!
//! # fn main() -> Result<(), mcmap_model::ModelError> {
//! let arch = Architecture::builder()
//!     .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
//!     .build()?;
//! let app = TaskGraph::builder("a", Time::from_ticks(100))
//!     .task(Task::new("x").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
//!     .task(Task::new("y").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
//!     .channel(0, 1, 8)
//!     .build()?;
//! let apps = AppSet::new(vec![app])?;
//!
//! assert!(!Linter::new(&apps, &arch).lint().has_errors());
//!
//! let broken = inject::with_cycle(&apps);
//! let report = Linter::new(&broken, &arch).lint();
//! assert!(report.has_code("MC0001"));
//! println!("{}", report.render_text());
//! # Ok(())
//! # }
//! ```

mod diag;
pub mod inject;
mod interference;
mod passes;

pub use diag::{all_code_docs, code_doc, CodeDoc, Diagnostic, EntityRef, LintReport, Severity};
pub use interference::InterferenceGraph;
pub use mcmap_model::ModelError;
pub use passes::{app_of_flat, kind_present, lint_system, Linter};

/// Every diagnostic code this crate can emit, with a one-line description.
/// Codes `MC0001`–`MC0015` are shared with [`ModelError::code`].
pub const ALL_CODES: &[(&str, &str)] = &[
    ("MC0001", "task graph contains a dependency cycle"),
    ("MC0002", "channel endpoint references a nonexistent task"),
    ("MC0003", "channel connects a task to itself"),
    ("MC0004", "task has no execution profile for any kind"),
    ("MC0005", "task has bcet greater than wcet"),
    ("MC0006", "task graph period is zero"),
    ("MC0007", "task graph deadline is zero"),
    ("MC0008", "reliability bound is outside (0, 1]"),
    ("MC0009", "service value is not finite and positive"),
    ("MC0010", "architecture has no processors"),
    ("MC0011", "fabric bandwidth is zero"),
    ("MC0012", "processor fault rate is negative or not finite"),
    ("MC0013", "processor power figure is negative or not finite"),
    ("MC0014", "application set is empty"),
    ("MC0015", "deadline exceeds the period"),
    (
        "MC0101",
        "reliability bound unsatisfiable under the hardening limits",
    ),
    (
        "MC0102",
        "critical path exceeds the deadline on every mapping",
    ),
    ("MC0103", "utilization over-commits the platform"),
    ("MC0104", "no task can execute on this processor"),
    ("MC0105", "task has a zero WCET profile"),
    ("MC0106", "voter placed on an unallocated processor"),
    ("MC0107", "replicas colocated on one processor"),
    ("MC0108", "droppable application carries hardening"),
    (
        "MC0109",
        "plan, genome or hardening-entry shape is malformed",
    ),
    ("MC0110", "binding or replica on an invalid processor"),
    ("MC0111", "no processor allocated"),
    ("MC0112", "hardening exceeds the configured limits"),
    (
        "MC0113",
        "task supports no processor kind present on the platform",
    ),
    (
        "MC0120",
        "applications form a fully-connected interference clique",
    ),
    (
        "MC0121",
        "hardening couples across criticality levels on a shared processor",
    ),
    ("MC0122", "application is an interference-free island"),
];

/// One-line description of a diagnostic code, if it exists.
pub fn explain(code: &str) -> Option<&'static str> {
    ALL_CODES.iter().find(|(c, _)| *c == code).map(|(_, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_table_is_sorted_and_unique() {
        let codes: Vec<&str> = ALL_CODES.iter().map(|(c, _)| *c).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, codes, "ALL_CODES must stay sorted and unique");
    }

    #[test]
    fn model_error_codes_are_all_listed() {
        use mcmap_model::{AppId, ChannelId, ProcId, TaskId};
        let samples = [
            ModelError::CyclicGraph {
                app: AppId::new(0),
                task: TaskId::new(0),
            },
            ModelError::DanglingChannel {
                channel: ChannelId::new(0),
                task: TaskId::new(0),
            },
            ModelError::SelfLoop {
                channel: ChannelId::new(0),
            },
            ModelError::UnrunnableTask {
                task: TaskId::new(0),
            },
            ModelError::InvertedExecutionBounds {
                task: TaskId::new(0),
            },
            ModelError::ZeroPeriod,
            ModelError::ZeroDeadline,
            ModelError::InvalidFailureRate { rate: 2.0 },
            ModelError::InvalidService { service: -1.0 },
            ModelError::EmptyArchitecture,
            ModelError::ZeroBandwidth,
            ModelError::InvalidFaultRate {
                proc: ProcId::new(0),
                rate: -1.0,
            },
            ModelError::InvalidPower {
                proc: ProcId::new(0),
            },
            ModelError::EmptyAppSet,
            ModelError::DeadlineExceedsPeriod { app: AppId::new(0) },
        ];
        for e in &samples {
            assert!(
                explain(e.code()).is_some(),
                "model error code {} missing from ALL_CODES",
                e.code()
            );
        }
    }

    #[test]
    fn explain_lookup() {
        assert!(explain("MC0101").unwrap().contains("unsatisfiable"));
        assert!(explain("MC9999").is_none());
    }
}
