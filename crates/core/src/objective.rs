//! Optimization objectives (§2.3 of the paper).
//!
//! * **expected power**: `Σ_p (stat_p + dyn_p · u_p)` over allocated
//!   processors, where the utilization `u_p` weights each copy by its
//!   expected number of executions (re-execution retries occur with
//!   probability `p^j`) and each passive standby by its activation
//!   probability — this is where passive replication pays off on average.
//!   The paper computes the expectation "considering all possible cases",
//!   i.e. averaging the fault-free state and the critical states its
//!   analysis enumerates; we expose this as a *critical-mode weight* `w`:
//!   `u_p = (1 − w) · u_normal + w · u_critical`, where dropped
//!   applications consume nothing in the critical mode. Any `w > 0` makes
//!   dropping a genuine power lever (Fig. 5's φ-is-cheapest shape);
//! * **service after dropping**: `Σ_{t ∉ T_d} sv_t` (reported as *lost*
//!   service so that both objectives are minimized).

use mcmap_hardening::{HardenedSystem, Reliability, Role};
use mcmap_model::{AppId, AppSet, Architecture};
use mcmap_sched::Mapping;

/// Expected average power of a mapped, hardened system, with the critical
/// mode weighted by `critical_weight ∈ [0, 1]` (`0` = fault-free operation
/// only; the dropped applications `dropped` consume nothing in the critical
/// mode).
///
/// `allocated` marks processors that draw leakage power even when idle; any
/// processor actually hosting work is counted as allocated regardless of
/// the flag (a mapping onto a de-allocated processor is repaired or
/// penalized upstream, but power must never be under-reported).
pub fn expected_power(
    hsys: &HardenedSystem,
    arch: &Architecture,
    mapping: &Mapping,
    allocated: &[bool],
    dropped: &[AppId],
    critical_weight: f64,
) -> f64 {
    let rel = Reliability::new(hsys, arch);
    let w = critical_weight.clamp(0.0, 1.0);
    let mut util = vec![0.0f64; arch.num_processors()];

    for (id, t) in hsys.tasks() {
        let proc = mapping.proc_of(id);
        let kind = arch.processor(proc).kind;
        let wcet = t
            .nominal_bounds(kind)
            .expect("mapped processors are kind-compatible")
            .wcet
            .as_f64();
        let period = hsys.app_of(id).period.as_f64();
        let expected_time = match t.role {
            Role::Voter => wcet,
            Role::PassiveReplica(_) => {
                rel.activation_probability(hsys.flat_of(id), mapping.placement()) * wcet
            }
            Role::Primary | Role::ActiveReplica(_) => rel.expected_executions(id, proc) * wcet,
        };
        // In the critical mode the dropped applications release nothing.
        let mode_weight = if dropped.contains(&t.origin.app) {
            1.0 - w
        } else {
            1.0
        };
        util[proc.index()] += mode_weight * expected_time / period;
    }

    arch.processors()
        .map(|(id, p)| {
            let u = util[id.index()];
            if allocated.get(id.index()).copied().unwrap_or(false) || u > 0.0 {
                p.stat_power + p.dyn_power * u
            } else {
                0.0
            }
        })
        .sum()
}

/// Service lost by dropping `dropped` — the minimized form of the service
/// objective (`0` when nothing is dropped).
pub fn lost_service(apps: &AppSet, dropped: &[AppId]) -> f64 {
    apps.total_service() - apps.service_after_dropping(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        Criticality, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph, Time,
    };

    fn arch(n: usize, rate: f64) -> Architecture {
        Architecture::builder()
            .homogeneous(n, Processor::new("p", ProcKind::new(0), 10.0, 100.0, rate))
            .build()
            .unwrap()
    }

    fn one_task_apps(wcet: u64, period: u64) -> AppSet {
        let g = TaskGraph::builder("g", Time::from_ticks(period))
            .task(
                Task::new("t")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(wcet)))
                    .with_voting_overhead(Time::from_ticks(10)),
            )
            .build()
            .unwrap();
        AppSet::new(vec![g]).unwrap()
    }

    #[test]
    fn idle_allocated_processor_pays_leakage_only() {
        let apps = one_task_apps(100, 1_000);
        let arch = arch(2, 0.0);
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        // p0: 10 + 100·0.1 = 20; p1 allocated but idle: 10.
        let pw = expected_power(&hsys, &arch, &mapping, &[true, true], &[], 0.0);
        assert!((pw - 30.0).abs() < 1e-9);
        // De-allocating the idle processor removes its leakage.
        let pw = expected_power(&hsys, &arch, &mapping, &[true, false], &[], 0.0);
        assert!((pw - 20.0).abs() < 1e-9);
    }

    #[test]
    fn hosting_processor_is_counted_even_if_deallocated() {
        let apps = one_task_apps(100, 1_000);
        let arch = arch(1, 0.0);
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        let pw = expected_power(&hsys, &arch, &mapping, &[false], &[], 0.0);
        assert!((pw - 20.0).abs() < 1e-9);
    }

    #[test]
    fn active_replication_costs_more_power_than_passive() {
        let apps = one_task_apps(100, 1_000);
        let arch = arch(4, 1e-5);
        let active = {
            let mut plan = HardeningPlan::unhardened(&apps);
            plan.set_by_flat_index(
                0,
                TaskHardening::Active {
                    replicas: vec![ProcId::new(1), ProcId::new(2)],
                    voter: ProcId::new(3),
                },
            );
            plan
        };
        let passive = {
            let mut plan = HardeningPlan::unhardened(&apps);
            plan.set_by_flat_index(
                0,
                TaskHardening::Passive {
                    actives: vec![ProcId::new(1)],
                    standbys: vec![ProcId::new(2)],
                    voter: ProcId::new(3),
                },
            );
            plan
        };
        let power_of = |plan: &HardeningPlan| {
            let hsys = harden(&apps, plan, &arch).unwrap();
            let placement: Vec<ProcId> = hsys
                .tasks()
                .map(|(_, t)| t.fixed_proc.unwrap_or(ProcId::new(0)))
                .collect();
            let mapping = Mapping::new(&hsys, &arch, placement).unwrap();
            expected_power(&hsys, &arch, &mapping, &[true; 4], &[], 0.0)
        };
        let p_active = power_of(&active);
        let p_passive = power_of(&passive);
        assert!(
            p_passive < p_active,
            "standby utilization is probabilistic: {p_passive} vs {p_active}"
        );
    }

    #[test]
    fn reexecution_power_accounts_for_expected_retries() {
        let apps = one_task_apps(100, 1_000);
        let arch_hot = arch(1, 1e-3);
        let plain = harden(&apps, &HardeningPlan::unhardened(&apps), &arch_hot).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::Reexec(2));
        let hardened = harden(&apps, &plan, &arch_hot).unwrap();
        let m1 = Mapping::new(&plain, &arch_hot, vec![ProcId::new(0)]).unwrap();
        let m2 = Mapping::new(&hardened, &arch_hot, vec![ProcId::new(0)]).unwrap();
        let p1 = expected_power(&plain, &arch_hot, &m1, &[true], &[], 0.0);
        let p2 = expected_power(&hardened, &arch_hot, &m2, &[true], &[], 0.0);
        // Retries are rare (p ≈ 0.1), so the expected overhead is small but
        // strictly positive.
        assert!(p2 > p1);
        assert!(p2 < p1 * 1.5);
    }

    #[test]
    fn critical_weight_discounts_dropped_applications() {
        let hi = TaskGraph::builder("hi", Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 0.5,
            })
            .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100))))
            .build()
            .unwrap();
        let lo = TaskGraph::builder("lo", Time::from_ticks(1_000))
            .criticality(Criticality::Droppable { service: 1.0 })
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(200))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![hi, lo]).unwrap();
        let arch = arch(1, 0.0);
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0); 2]).unwrap();
        let dropped = [mcmap_model::AppId::new(1)];
        // Fault-free only: 10 + 100 · (0.1 + 0.2) = 40.
        let p0 = expected_power(&hsys, &arch, &mapping, &[true], &dropped, 0.0);
        assert!((p0 - 40.0).abs() < 1e-9);
        // Half-weighted critical mode discounts half of lo's demand:
        // 10 + 100 · (0.1 + 0.1) = 30.
        let p_half = expected_power(&hsys, &arch, &mapping, &[true], &dropped, 0.5);
        assert!((p_half - 30.0).abs() < 1e-9);
        // Dropping more always costs less power at w > 0.
        let p_keep = expected_power(&hsys, &arch, &mapping, &[true], &[], 0.5);
        assert!(p_half < p_keep);
        // The weight has no effect on apps that are never dropped.
        let q = expected_power(&hsys, &arch, &mapping, &[true], &[], 0.9);
        assert!((q - p_keep).abs() < 1e-9);
    }

    #[test]
    fn service_accounting_matches_model() {
        let hi = TaskGraph::builder("hi", Time::from_ticks(100))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 0.5,
            })
            .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
            .build()
            .unwrap();
        let lo1 = TaskGraph::builder("lo1", Time::from_ticks(100))
            .criticality(Criticality::Droppable { service: 3.0 })
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
            .build()
            .unwrap();
        let lo2 = TaskGraph::builder("lo2", Time::from_ticks(100))
            .criticality(Criticality::Droppable { service: 5.0 })
            .task(Task::new("c").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![hi, lo1, lo2]).unwrap();
        assert_eq!(apps.service_after_dropping(&[]), 8.0);
        assert_eq!(lost_service(&apps, &[]), 0.0);
        assert_eq!(lost_service(&apps, &[AppId::new(1)]), 3.0);
        assert_eq!(lost_service(&apps, &[AppId::new(1), AppId::new(2)]), 8.0);
    }
}
