//! Reliability analysis of a hardened, mapped system.
//!
//! The paper (§2.3) constrains every non-droppable application `t` to a
//! maximum probability of unsafe execution `f_t` per released instance; the
//! precise formulation is delegated to [6] (Kang et al., DATE 2014). We
//! implement the standard transient-fault model used by that line of work:
//!
//! * a single execution of duration `c` on processor `p` is hit by at least
//!   one fault with probability `1 − exp(−λ_p · c)` (Poisson arrivals);
//! * *re-execution* with `k` retries fails only if all `k + 1` attempts fail
//!   (detection is assumed perfect);
//! * *replication* over `m` copies fails when a majority of copies deliver a
//!   faulty value (Poisson-binomial tail, computed exactly by dynamic
//!   programming over the per-copy probabilities — copies on different
//!   processors have different failure rates);
//! * voters are assumed fault-free (a standard assumption — they are tiny
//!   and can be lock-stepped);
//! * an application instance executes unsafely if any of its original tasks
//!   fails: `1 − Π_v (1 − p_v)`.

use crate::{HTaskId, HardenedSystem, Role};
use mcmap_model::{AppId, Architecture, ProcId, Processor, Time};

/// Reliability analysis over a hardened system on a given architecture.
///
/// All queries take a `placement` slice assigning one processor to every
/// hardened task (index = [`HTaskId::index`]); tasks with a fixed placement
/// must be placed on that processor.
#[derive(Debug, Clone, Copy)]
pub struct Reliability<'a> {
    hsys: &'a HardenedSystem,
    arch: &'a Architecture,
}

/// Result of checking one application's reliability constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityVerdict {
    /// The application checked.
    pub app: AppId,
    /// Computed probability of unsafe execution per released instance.
    pub failure_probability: f64,
    /// The bound `f_t` from the model.
    pub bound: f64,
    /// `failure_probability ≤ bound`.
    pub satisfied: bool,
}

impl<'a> Reliability<'a> {
    /// Creates the analysis for a hardened system on an architecture.
    pub fn new(hsys: &'a HardenedSystem, arch: &'a Architecture) -> Self {
        Reliability { hsys, arch }
    }

    /// Probability that a *single run* of hardened task `id` on processor
    /// `proc` is hit by a fault (no re-execution credit).
    ///
    /// # Panics
    ///
    /// Panics if the task cannot execute on `proc`'s kind.
    pub fn single_run_fault_prob(&self, id: HTaskId, proc: ProcId) -> f64 {
        let (p, wcet) = self.nominal_wcet(id, proc);
        p.fault_probability(wcet)
    }

    /// Probability that task `id` on `proc` fails *after* exhausting its
    /// re-execution budget: `p^{k+1}`.
    ///
    /// # Panics
    ///
    /// Panics if the task cannot execute on `proc`'s kind.
    pub fn copy_failure_prob(&self, id: HTaskId, proc: ProcId) -> f64 {
        let (p, wcet) = self.nominal_wcet(id, proc);
        copy_failure_prob(p, wcet, self.hsys.task(id).reexec)
    }

    /// The processor and the nominal WCET of task `id` on it.
    fn nominal_wcet(&self, id: HTaskId, proc: ProcId) -> (&Processor, Time) {
        let p = self.arch.processor(proc);
        let wcet = self
            .hsys
            .task(id)
            .nominal_bounds(p.kind)
            .unwrap_or_else(|| panic!("task {id} cannot run on {proc}"))
            .wcet;
        (p, wcet)
    }

    /// Expected number of executions of task `id` on `proc`, accounting for
    /// its re-execution budget: `Σ_{j=0..k} p^j`. Used by the expected-power
    /// objective.
    pub fn expected_executions(&self, id: HTaskId, proc: ProcId) -> f64 {
        let p = self.single_run_fault_prob(id, proc);
        let k = self.hsys.task(id).reexec as i32;
        (0..=k).map(|j| p.powi(j)).sum()
    }

    /// Probability that the standbys of original task `flat` are invoked:
    /// the voter requests a standby when any always-on copy delivered a
    /// faulty value. Returns 0 for tasks without standbys.
    pub fn activation_probability(&self, flat: usize, placement: &[ProcId]) -> f64 {
        let copies = self.hsys.copies_of(flat);
        if !copies.clone().any(|c| self.hsys.task(c).role.is_passive()) {
            return 0.0;
        }
        let p_all_ok: f64 = copies
            .filter(|&c| !self.hsys.task(c).role.is_passive())
            .map(|c| 1.0 - self.single_run_fault_prob(c, placement[c.index()]))
            .product();
        1.0 - p_all_ok
    }

    /// Failure probability of one *original* task under its hardening: the
    /// majority-vote failure over all copies (or the single copy's
    /// post-re-execution failure probability).
    pub fn task_failure_prob(&self, flat: usize, placement: &[ProcId]) -> f64 {
        let mut copies = self.hsys.copies_of(flat);
        let prob = |c: HTaskId| self.copy_failure_prob(c, placement[c.index()]);
        if copies.len() == 1 {
            return prob(copies.next().expect("a block starts with its primary"));
        }
        majority_failure_prob(&copies.map(prob).collect::<Vec<f64>>())
    }

    /// Probability that one released instance of `app` executes unsafely:
    /// `1 − Π_v (1 − p_v)` over the application's original tasks.
    pub fn app_failure_prob(&self, app: AppId, placement: &[ProcId]) -> f64 {
        let mut p_ok = 1.0;
        for flat in self.hsys.flats_of_app(app) {
            p_ok *= 1.0 - self.task_failure_prob(flat, placement);
        }
        1.0 - p_ok
    }

    /// Checks the reliability constraint of every non-droppable application.
    pub fn check_all(&self, placement: &[ProcId]) -> Vec<ReliabilityVerdict> {
        self.hsys
            .apps()
            .iter()
            .filter_map(|happ| {
                happ.criticality.max_failure_rate().map(|bound| {
                    let p = self.app_failure_prob(happ.app, placement);
                    ReliabilityVerdict {
                        app: happ.app,
                        failure_probability: p,
                        bound,
                        satisfied: p <= bound,
                    }
                })
            })
            .collect()
    }

    /// `true` when every non-droppable application satisfies its bound.
    pub fn all_satisfied(&self, placement: &[ProcId]) -> bool {
        self.check_all(placement).iter().all(|v| v.satisfied)
    }
}

/// Probability that one copy with nominal WCET `wcet` (detection overhead
/// included when re-execution hardened) fails on processor `proc` after
/// exhausting its `reexec` re-executions: `p^{k+1}` with
/// `p = 1 − exp(−λ · wcet)`.
///
/// This is the single per-copy formula behind [`Reliability`]; callers that
/// track failure probabilities incrementally (the DSE's reliability repair)
/// use it too, so both compute bit-identical values.
pub fn copy_failure_prob(proc: &Processor, wcet: Time, reexec: u8) -> f64 {
    proc.fault_probability(wcet).powi(reexec as i32 + 1)
}

/// Probability that a strict majority of independent copies fail, given each
/// copy's failure probability. Exact Poisson-binomial tail via DP.
///
/// For `m = 2` (duplication) the "majority" threshold is 2: a single faulty
/// copy is *detected* by the comparison and handled safely, so unsafe
/// execution requires both copies to fail — the fault-detection use case of
/// \[5\] in the paper.
///
/// # Examples
///
/// ```
/// use mcmap_hardening::majority_failure_prob;
/// // Triplication with p = 0.1 each: P(≥2 fail) = 3·0.01·0.9 + 0.001 = 0.028.
/// let p = majority_failure_prob(&[0.1, 0.1, 0.1]);
/// assert!((p - 0.028).abs() < 1e-12);
/// ```
pub fn majority_failure_prob(probs: &[f64]) -> f64 {
    let m = probs.len();
    if m == 0 {
        return 0.0;
    }
    if m == 1 {
        return probs[0];
    }
    // dist[j] = P(exactly j copies faulty).
    let mut dist = vec![0.0f64; m + 1];
    dist[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        for j in (0..=i + 1).rev() {
            let stay = if j <= i { dist[j] * (1.0 - p) } else { 0.0 };
            let rise = if j > 0 { dist[j - 1] * p } else { 0.0 };
            dist[j] = stay + rise;
        }
    }
    let threshold = m / 2 + 1; // strict majority
    dist[threshold..].iter().sum()
}

/// Returns a placement slice that honours every fixed placement in the
/// hardened system, assigning `default` to the free (primary) tasks. Useful
/// for tests and for reliability screening before a mapping is decided.
pub fn placement_with_default(hsys: &HardenedSystem, default: ProcId) -> Vec<ProcId> {
    hsys.tasks()
        .map(|(_, t)| t.fixed_proc.unwrap_or(default))
        .collect()
}

/// Checks that a placement honours the fixed placements recorded in the
/// hardened system (replicas must not share the primary's processor — that
/// is the point of replication — but this is the mapping layer's concern;
/// here we only check the plan's explicit placements).
pub fn placement_respects_fixed(hsys: &HardenedSystem, placement: &[ProcId]) -> bool {
    placement.len() == hsys.num_tasks()
        && hsys.tasks().all(|(id, t)| match t.fixed_proc {
            Some(p) => placement[id.index()] == p,
            None => true,
        })
}

impl HardenedSystem {
    /// Iterates over the voter tasks of the system.
    pub fn voters(&self) -> impl Iterator<Item = HTaskId> + '_ {
        self.tasks()
            .filter(|(_, t)| t.role == Role::Voter)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        AppSet, Criticality, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time,
    };

    fn arch(n: usize, rate: f64) -> Architecture {
        Architecture::builder()
            .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, rate))
            .build()
            .unwrap()
    }

    fn single_task_set(fail_bound: f64) -> AppSet {
        let g = TaskGraph::builder("g", Time::from_ticks(1000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: fail_bound,
            })
            .task(
                Task::new("t")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100)))
                    .with_detect_overhead(Time::from_ticks(5)),
            )
            .build()
            .unwrap();
        AppSet::new(vec![g]).unwrap()
    }

    #[test]
    fn majority_prob_matches_closed_forms() {
        // m=1: p itself.
        assert_eq!(majority_failure_prob(&[0.2]), 0.2);
        // m=2: both must fail.
        assert!((majority_failure_prob(&[0.1, 0.2]) - 0.02).abs() < 1e-12);
        // m=3 homogeneous: 3p²(1−p) + p³.
        let p: f64 = 0.05;
        let expected = 3.0 * p * p * (1.0 - p) + p * p * p;
        assert!((majority_failure_prob(&[p, p, p]) - expected).abs() < 1e-12);
        // Empty: no copies, no failure.
        assert_eq!(majority_failure_prob(&[]), 0.0);
    }

    #[test]
    fn majority_prob_heterogeneous() {
        // P(≥2 of {a,b,c} fail) computed by enumeration.
        let (a, b, c) = (0.1, 0.2, 0.3);
        let expected = a * b * (1.0 - c) + a * (1.0 - b) * c + (1.0 - a) * b * c + a * b * c;
        assert!((majority_failure_prob(&[a, b, c]) - expected).abs() < 1e-12);
    }

    #[test]
    fn reexecution_raises_reliability() {
        let apps = single_task_set(1e-3);
        let arch = arch(1, 1e-4);
        let bare = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::Reexec(1));
        let hardened = harden(&apps, &plan, &arch).unwrap();

        let p0 = ProcId::new(0);
        let r_bare = Reliability::new(&bare, &arch);
        let r_hard = Reliability::new(&hardened, &arch);
        let place_bare = placement_with_default(&bare, p0);
        let place_hard = placement_with_default(&hardened, p0);
        let f_bare = r_bare.app_failure_prob(AppId::new(0), &place_bare);
        let f_hard = r_hard.app_failure_prob(AppId::new(0), &place_hard);
        assert!(f_hard < f_bare);
        // p^(k+1) relationship (approximately: dt slightly raises single-run p).
        assert!(f_hard < f_bare * f_bare * 2.0);
    }

    #[test]
    fn triplication_raises_reliability() {
        let apps = single_task_set(1e-3);
        let arch = arch(3, 1e-4);
        let bare = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::Active {
                replicas: vec![ProcId::new(1), ProcId::new(2)],
                voter: ProcId::new(0),
            },
        );
        let tripled = harden(&apps, &plan, &arch).unwrap();

        let p0 = ProcId::new(0);
        let f_bare = Reliability::new(&bare, &arch)
            .app_failure_prob(AppId::new(0), &placement_with_default(&bare, p0));
        let f_tri = Reliability::new(&tripled, &arch)
            .app_failure_prob(AppId::new(0), &placement_with_default(&tripled, p0));
        assert!(f_tri < f_bare);
    }

    #[test]
    fn verdicts_respect_bounds() {
        let apps = single_task_set(0.5);
        let arch = arch(1, 1e-5);
        let h = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let rel = Reliability::new(&h, &arch);
        let place = placement_with_default(&h, ProcId::new(0));
        let verdicts = rel.check_all(&place);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].satisfied);
        assert!(rel.all_satisfied(&place));

        // A much tighter bound fails without hardening.
        let apps = single_task_set(1e-9);
        let h = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let rel = Reliability::new(&h, &arch);
        let place = placement_with_default(&h, ProcId::new(0));
        assert!(!rel.all_satisfied(&place));
    }

    #[test]
    fn droppable_apps_are_not_checked() {
        let g = TaskGraph::builder("lo", Time::from_ticks(100))
            .criticality(Criticality::Droppable { service: 1.0 })
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let arch = arch(1, 1e-2);
        let h = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let rel = Reliability::new(&h, &arch);
        let place = placement_with_default(&h, ProcId::new(0));
        assert!(rel.check_all(&place).is_empty());
        assert!(rel.all_satisfied(&place));
    }

    #[test]
    fn expected_executions_accounts_for_retries() {
        let apps = single_task_set(1e-3);
        let arch = arch(1, 1e-4);
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::Reexec(2));
        let h = harden(&apps, &plan, &arch).unwrap();
        let rel = Reliability::new(&h, &arch);
        let id = HTaskId::new(0);
        let p = rel.single_run_fault_prob(id, ProcId::new(0));
        let expected = 1.0 + p + p * p;
        assert!((rel.expected_executions(id, ProcId::new(0)) - expected).abs() < 1e-12);
        // Without retries the expectation is exactly one execution.
        let bare = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let rel = Reliability::new(&bare, &arch);
        assert_eq!(
            rel.expected_executions(HTaskId::new(0), ProcId::new(0)),
            1.0
        );
    }

    #[test]
    fn activation_probability_for_standbys() {
        let apps = single_task_set(1e-3);
        let arch = arch(3, 1e-3);
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::Passive {
                actives: vec![ProcId::new(1)],
                standbys: vec![ProcId::new(2)],
                voter: ProcId::new(0),
            },
        );
        let h = harden(&apps, &plan, &arch).unwrap();
        let rel = Reliability::new(&h, &arch);
        let place = placement_with_default(&h, ProcId::new(0));
        let act = rel.activation_probability(0, &place);
        // P(any of two actives faulty) = 1 − (1−p)².
        let p = rel.single_run_fault_prob(HTaskId::new(0), ProcId::new(0));
        assert!((act - (1.0 - (1.0 - p) * (1.0 - p))).abs() < 1e-12);

        // A task without standbys activates nothing.
        let bare = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let rel = Reliability::new(&bare, &arch);
        let place = placement_with_default(&bare, ProcId::new(0));
        assert_eq!(rel.activation_probability(0, &place), 0.0);
    }

    #[test]
    fn placement_helpers() {
        let apps = single_task_set(1e-3);
        let arch = arch(2, 0.0);
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::Active {
                replicas: vec![ProcId::new(1)],
                voter: ProcId::new(0),
            },
        );
        let h = harden(&apps, &plan, &arch).unwrap();
        let place = placement_with_default(&h, ProcId::new(0));
        assert!(placement_respects_fixed(&h, &place));
        let mut bad = place.clone();
        // Move the fixed replica elsewhere.
        let replica = h
            .tasks()
            .find(|(_, t)| t.fixed_proc == Some(ProcId::new(1)))
            .unwrap()
            .0;
        bad[replica.index()] = ProcId::new(0);
        assert!(!placement_respects_fixed(&h, &bad));
        assert!(!placement_respects_fixed(&h, &place[..1]));
    }
}
