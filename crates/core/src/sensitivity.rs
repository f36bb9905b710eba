//! Design sensitivity analysis: explain and perturb a finished design.
//!
//! The DSE returns a chromosome; engineers want to know *why* it holds and
//! how fragile it is. This module computes, for a concrete design
//! (hardened system + mapping + dropped set):
//!
//! * per-application **slack** — deadline minus protocol WCRT, plus the
//!   binding state (fault-free or a specific trigger task);
//! * **hardening what-ifs** — the WCRT/reliability effect of raising or
//!   lowering one task's re-execution degree, re-running Algorithm 1 on the
//!   perturbed plan;
//! * **drop-set what-ifs** — the effect of restoring one dropped
//!   application.

use crate::analysis::{analyze, McAnalysis};
use mcmap_hardening::{
    harden, HTaskId, HardenedSystem, HardeningPlan, Reliability, Replication, TaskHardening,
};
use mcmap_model::{AppId, AppSet, Architecture, ProcId, Time};
use mcmap_sched::{Mapping, SchedPolicy};

/// Slack report for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSlack {
    /// The application.
    pub app: AppId,
    /// Protocol WCRT (normal-state for dropped applications).
    pub wcrt: Time,
    /// Relative deadline.
    pub deadline: Time,
    /// `deadline − wcrt` (zero when the deadline is missed).
    pub slack: Time,
    /// The trigger task whose fault scenario binds the WCRT (`None` when
    /// the fault-free state binds it).
    pub binding_trigger: Option<HTaskId>,
}

/// Effect of one hardening perturbation.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// Flat index of the perturbed task.
    pub flat: usize,
    /// Re-execution degree before/after.
    pub reexec: (u8, u8),
    /// Worst protocol WCRT over the *non-dropped* applications
    /// before/after.
    pub worst_wcrt: (Time, Time),
    /// Whether every reliability bound still holds after the perturbation.
    pub reliable_after: bool,
    /// Whether every deadline still holds after the perturbation.
    pub schedulable_after: bool,
}

/// A complete design under study.
#[derive(Debug)]
pub struct Sensitivity<'a> {
    apps: &'a AppSet,
    arch: &'a Architecture,
    policies: &'a [SchedPolicy],
    plan: HardeningPlan,
    bindings: Vec<ProcId>,
    dropped: Vec<AppId>,
}

impl<'a> Sensitivity<'a> {
    /// Creates the study for a decoded design: a hardening plan, the
    /// per-original-task primary bindings, and the dropped set.
    pub fn new(
        apps: &'a AppSet,
        arch: &'a Architecture,
        policies: &'a [SchedPolicy],
        plan: HardeningPlan,
        bindings: Vec<ProcId>,
        dropped: Vec<AppId>,
    ) -> Self {
        Sensitivity {
            apps,
            arch,
            policies,
            plan,
            bindings,
            dropped,
        }
    }

    fn instantiate(&self, plan: &HardeningPlan) -> Option<(HardenedSystem, Mapping)> {
        let hsys = harden(self.apps, plan, self.arch).ok()?;
        let placement = hsys.placement(&self.bindings);
        let mapping = Mapping::new(&hsys, self.arch, placement).ok()?;
        Some((hsys, mapping))
    }

    fn run(&self, plan: &HardeningPlan) -> Option<(HardenedSystem, Mapping, McAnalysis)> {
        let (hsys, mapping) = self.instantiate(plan)?;
        let mc = analyze(&hsys, self.arch, &mapping, self.policies, &self.dropped);
        Some((hsys, mapping, mc))
    }

    /// Per-application slack under the current design.
    ///
    /// Returns `None` if the design does not instantiate (invalid plan or
    /// mapping).
    pub fn slack(&self) -> Option<Vec<AppSlack>> {
        let (hsys, _, mc) = self.run(&self.plan)?;
        Some(
            self.apps
                .app_ids()
                .map(|app| {
                    let wcrt = mc.app_wcrt(&hsys, app, &self.dropped);
                    let deadline = self.apps.app(app).deadline();
                    AppSlack {
                        app,
                        wcrt,
                        deadline,
                        slack: deadline.saturating_sub(wcrt),
                        binding_trigger: mc.binding_trigger(&hsys, app),
                    }
                })
                .collect(),
        )
    }

    /// The worst protocol WCRT over all non-dropped applications — the
    /// design's headline timing figure.
    fn worst_alive_wcrt(&self, hsys: &HardenedSystem, mc: &McAnalysis) -> Time {
        self.apps
            .app_ids()
            .filter(|a| !self.dropped.contains(a))
            .map(|a| mc.app_wcrt(hsys, a, &self.dropped))
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// What happens if task `flat`'s re-execution degree becomes `k`
    /// (leaving its replication untouched)?
    ///
    /// Returns `None` if either the base or the perturbed design fails to
    /// instantiate.
    pub fn what_if_reexec(&self, flat: usize, k: u8) -> Option<WhatIf> {
        let (base_hsys, base_mapping, base_mc) = self.run(&self.plan)?;
        let _ = base_mapping;
        let before = self.plan.by_flat_index(flat).reexecutions;

        let mut plan = self.plan.clone();
        let mut entry = plan.by_flat_index(flat).clone();
        entry.reexecutions = k;
        plan.set_by_flat_index(flat, entry);

        let (hsys, mapping, mc) = self.run(&plan)?;
        let rel = Reliability::new(&hsys, self.arch);
        Some(WhatIf {
            flat,
            reexec: (before, k),
            worst_wcrt: (
                self.worst_alive_wcrt(&base_hsys, &base_mc),
                self.worst_alive_wcrt(&hsys, &mc),
            ),
            reliable_after: rel.all_satisfied(mapping.placement()),
            schedulable_after: mc.schedulable(&hsys, &self.dropped),
        })
    }

    /// What happens if the dropped application `app` is kept instead?
    /// Returns the (old, new) worst alive-application WCRT and the new
    /// schedulability verdict; `None` when `app` is not currently dropped
    /// or the design fails to instantiate.
    pub fn what_if_keep(&self, app: AppId) -> Option<(Time, Time, bool)> {
        if !self.dropped.contains(&app) {
            return None;
        }
        let (hsys, mapping, mc) = self.run(&self.plan)?;
        let before = self.worst_alive_wcrt(&hsys, &mc);

        let kept: Vec<AppId> = self.dropped.iter().copied().filter(|&a| a != app).collect();
        let mc2 = analyze(&hsys, self.arch, &mapping, self.policies, &kept);
        let after = self
            .apps
            .app_ids()
            .filter(|a| !kept.contains(a))
            .map(|a| mc2.app_wcrt(&hsys, a, &kept))
            .max()
            .unwrap_or(Time::ZERO);
        Some((before, after, mc2.schedulable(&hsys, &kept)))
    }

    /// Tasks whose hardening is pure re-execution, candidates for
    /// [`Sensitivity::what_if_reexec`].
    pub fn reexecution_sites(&self) -> Vec<(usize, u8)> {
        self.plan
            .iter()
            .filter(|(_, h)| h.replication == Replication::None && h.reexecutions > 0)
            .map(|(flat, h)| (flat, h.reexecutions))
            .collect()
    }
}

/// Convenience constructor: a plan hardening every non-droppable task by
/// re-execution degree `k`.
pub fn uniform_reexec_plan(apps: &AppSet, k: u8) -> HardeningPlan {
    let mut plan = HardeningPlan::unhardened(apps);
    for (flat, r) in apps.task_refs().iter().enumerate() {
        if !apps.app(r.app).criticality().is_droppable() {
            plan.set_by_flat_index(flat, TaskHardening::reexecution(k));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_model::{Criticality, ExecBounds, ProcKind, Processor, Task, TaskGraph};
    use mcmap_sched::uniform_policies;

    fn fixture() -> (AppSet, Architecture, Vec<SchedPolicy>) {
        let arch = Architecture::builder()
            .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
            .build()
            .unwrap();
        let hi = TaskGraph::builder("hi", Time::from_ticks(1_000))
            .deadline(Time::from_ticks(700))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 0.9,
            })
            .task(
                Task::new("h0")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100)))
                    .with_detect_overhead(Time::from_ticks(10)),
            )
            .task(
                Task::new("h1")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100)))
                    .with_detect_overhead(Time::from_ticks(10)),
            )
            .channel(0, 1, 0)
            .build()
            .unwrap();
        let lo = TaskGraph::builder("lo", Time::from_ticks(1_000))
            .criticality(Criticality::Droppable { service: 1.0 })
            .task(Task::new("l").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(200))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![hi, lo]).unwrap();
        let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
        (apps, arch, policies)
    }

    fn study<'a>(
        apps: &'a AppSet,
        arch: &'a Architecture,
        policies: &'a [SchedPolicy],
    ) -> Sensitivity<'a> {
        // h0, h1 on p0; lo on p1; heads re-executed once; lo dropped.
        Sensitivity::new(
            apps,
            arch,
            policies,
            uniform_reexec_plan(apps, 1),
            vec![ProcId::new(0), ProcId::new(0), ProcId::new(1)],
            vec![AppId::new(1)],
        )
    }

    #[test]
    fn slack_reports_deadline_margins() {
        let (apps, arch, policies) = fixture();
        // Keep references alive for the study borrows.
        let s = study(&apps, &arch, &policies);
        let slack = s.slack().expect("design instantiates");
        assert_eq!(slack.len(), 2);
        let hi = &slack[0];
        // Chain of two re-executed 110-tick tasks: critical WCRT 440.
        assert_eq!(hi.wcrt, Time::from_ticks(440));
        assert_eq!(hi.slack, Time::from_ticks(260));
        assert!(hi.binding_trigger.is_some());
        // The droppable app answers for its normal state only.
        assert_eq!(slack[1].wcrt, Time::from_ticks(200));
    }

    #[test]
    fn raising_reexecution_raises_the_wcrt() {
        let (apps, arch, policies) = fixture();
        let s = study(&apps, &arch, &policies);
        let w = s.what_if_reexec(0, 2).expect("perturbation instantiates");
        assert_eq!(w.reexec, (1, 2));
        assert!(w.worst_wcrt.1 > w.worst_wcrt.0);
        assert!(w.reliable_after);
        // 550 + … still within the 700 deadline: (110·3) + 220 = 550.
        assert!(w.schedulable_after);
    }

    #[test]
    fn removing_hardening_lowers_the_wcrt() {
        let (apps, arch, policies) = fixture();
        let s = study(&apps, &arch, &policies);
        let w = s.what_if_reexec(0, 0).expect("perturbation instantiates");
        assert!(w.worst_wcrt.1 < w.worst_wcrt.0);
    }

    #[test]
    fn keeping_a_dropped_app_never_helps_the_alive_set() {
        let (apps, arch, policies) = fixture();
        let s = study(&apps, &arch, &policies);
        let (before, after, schedulable) = s.what_if_keep(AppId::new(1)).expect("app is dropped");
        assert!(after >= before);
        // On its own processor, keeping `lo` is harmless here.
        assert!(schedulable);
        // Asking about a non-dropped app yields None.
        assert!(s.what_if_keep(AppId::new(0)).is_none());
    }

    #[test]
    fn reexecution_sites_enumerate_the_plan() {
        let (apps, arch, policies) = fixture();
        let s = study(&apps, &arch, &policies);
        let sites = s.reexecution_sites();
        assert_eq!(sites, vec![(0, 1), (1, 1)]);
    }
}
