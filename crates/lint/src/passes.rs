//! The analysis passes and the [`Linter`] driver.
//!
//! Each pass walks one aspect of the system and appends [`Diagnostic`]s to a
//! shared [`LintReport`]. Codes `MC0001`–`MC0015` mirror the
//! [`mcmap_model::ModelError`] variants (same numbering, see
//! [`ModelError::code`](mcmap_model::ModelError::code)); codes `MC0101` and
//! up are lint-only findings that no model constructor rejects — violated
//! constraints that are *provably unsatisfiable* or *provably violated* for
//! every possible mapping, plus softer smells.

use crate::diag::{Diagnostic, EntityRef, LintReport};
use mcmap_hardening::{
    entry_errors, majority_failure_prob, Genome, HardenError, HardeningPlan, TaskHardening,
};
use mcmap_model::{AppId, AppSet, Architecture, Criticality, ProcId, ProcKind, TaskGraph, TaskId};

/// The static analyzer: borrows a system and produces a [`LintReport`].
///
/// # Examples
///
/// ```
/// use mcmap_lint::Linter;
/// use mcmap_model::{AppSet, Architecture, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time};
///
/// # fn main() -> Result<(), mcmap_model::ModelError> {
/// let arch = Architecture::builder()
///     .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
///     .build()?;
/// let app = TaskGraph::builder("a", Time::from_ticks(100))
///     .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
///     .build()?;
/// let apps = AppSet::new(vec![app])?;
/// let report = Linter::new(&apps, &arch).lint();
/// assert!(!report.has_errors());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Linter<'a> {
    apps: &'a AppSet,
    arch: &'a Architecture,
    /// Largest re-execution budget the hardening search may assign.
    max_reexec: u8,
    /// Largest number of extra replicas the hardening search may assign.
    max_replicas: u8,
}

impl<'a> Linter<'a> {
    /// Creates a linter with the default hardening limits (re-execution
    /// budget 2, replica budget 2 — the `GenomeSpace` defaults).
    pub fn new(apps: &'a AppSet, arch: &'a Architecture) -> Self {
        Linter {
            apps,
            arch,
            max_reexec: 2,
            max_replicas: 2,
        }
    }

    /// Overrides the hardening limits used by the reliability and
    /// hardening-spec passes.
    pub fn with_limits(mut self, max_reexec: u8, max_replicas: u8) -> Self {
        self.max_reexec = max_reexec;
        self.max_replicas = max_replicas;
        self
    }

    /// Runs every model- and platform-level pass.
    pub fn lint(&self) -> LintReport {
        self.lint_full(None, None)
    }

    /// Runs the model passes plus the hardening-spec pass over `plan`.
    pub fn lint_plan(&self, plan: &HardeningPlan) -> LintReport {
        self.lint_full(Some(plan), None)
    }

    /// Runs the model passes plus the genome-shape pass over `genome`.
    pub fn lint_genome(&self, genome: &Genome) -> LintReport {
        self.lint_full(None, Some(genome))
    }

    /// Runs every pass, optionally including the hardening-spec and
    /// genome-shape passes. Diagnostics are sorted errors-first.
    pub fn lint_full(&self, plan: Option<&HardeningPlan>, genome: Option<&Genome>) -> LintReport {
        let mut r = LintReport::new();
        let cyclic = self.pass_graph_structure(&mut r);
        self.pass_criticality(&mut r);
        self.pass_exec_bounds(&mut r);
        self.pass_platform(&mut r);
        self.pass_platform_fit(&mut r);
        self.pass_utilization(&mut r);
        self.pass_deadline(&mut r, &cyclic);
        self.pass_reliability(&mut r);
        if let Some(plan) = plan {
            self.pass_hardening_spec(&mut r, plan);
        }
        if let Some(genome) = genome {
            self.pass_genome(&mut r, genome);
            self.pass_interference(&mut r, genome);
        }
        r.finalize();
        r
    }

    /// The interference/coupling pass (MC0120/MC0121/MC0122): builds the
    /// interference graph of the candidate and reports pathological
    /// coupling. Skipped silently on shape mismatch (the genome pass
    /// reports that as MC0109).
    fn pass_interference(&self, r: &mut LintReport, genome: &Genome) {
        if let Some(ig) =
            crate::interference::InterferenceGraph::build(self.apps, self.arch, genome)
        {
            ig.diagnose(self.apps, genome, r);
        }
    }

    /// The processor kinds present on the platform, as a dense bitmap.
    fn present_kinds(&self) -> Vec<bool> {
        let mut present = vec![false; self.arch.num_kinds()];
        for (_, p) in self.arch.processors() {
            present[p.kind.index()] = true;
        }
        present
    }

    /// The smallest WCET of a task over the kinds actually present on the
    /// platform; falls back to the minimum over all supported kinds when the
    /// task is unmappable (that case is reported separately as MC0113).
    fn min_wcet_ticks(&self, t: &mcmap_model::Task, present: &[bool]) -> u64 {
        let on_platform = t
            .supported_kinds()
            .filter(|k| present.get(k.index()).copied().unwrap_or(false))
            .filter_map(|k| t.exec_on(k))
            .map(|b| b.wcet.ticks())
            .min();
        on_platform
            .or_else(|| {
                t.supported_kinds()
                    .filter_map(|k| t.exec_on(k))
                    .map(|b| b.wcet.ticks())
                    .min()
            })
            .unwrap_or(0)
    }

    // --- pass 1: graph structure (MC0001/2/3/6/7/14/15) -------------------

    /// Validates the graph skeleton of every application. Returns one
    /// `is_cyclic` flag per application for downstream passes.
    fn pass_graph_structure(&self, r: &mut LintReport) -> Vec<bool> {
        const PASS: &str = "graph-structure";
        if self.apps.num_apps() == 0 {
            r.push(
                Diagnostic::error(
                    "MC0014",
                    PASS,
                    EntityRef::none(),
                    "application set is empty",
                )
                .with_suggestion("add at least one task graph to the set"),
            );
        }
        let mut cyclic = vec![false; self.apps.num_apps()];
        for (a, app) in self.apps.apps() {
            if app.period().is_zero() {
                r.push(
                    Diagnostic::error(
                        "MC0006",
                        PASS,
                        EntityRef::app(a),
                        format!("application '{}' has a zero period", app.name()),
                    )
                    .with_suggestion("set a positive period"),
                );
            }
            if app.deadline().is_zero() {
                r.push(
                    Diagnostic::error(
                        "MC0007",
                        PASS,
                        EntityRef::app(a),
                        format!("application '{}' has a zero deadline", app.name()),
                    )
                    .with_suggestion("set a positive deadline (defaults to the period)"),
                );
            }
            if app.deadline() > app.period() {
                r.push(
                    Diagnostic::error(
                        "MC0015",
                        PASS,
                        EntityRef::app(a),
                        format!(
                            "application '{}' has deadline {} beyond its period {}",
                            app.name(),
                            app.deadline(),
                            app.period()
                        ),
                    )
                    .with_suggestion("the analyses assume constrained deadlines (D ≤ T)"),
                );
            }
            for (c, ch) in app.channels() {
                let n = app.num_tasks();
                let dangling = [ch.src, ch.dst].into_iter().find(|end| end.index() >= n);
                if let Some(end) = dangling {
                    r.push(
                        Diagnostic::error(
                            "MC0002",
                            PASS,
                            EntityRef::channel(a, c),
                            format!("channel {c} references nonexistent task {end}"),
                        )
                        .with_suggestion(format!(
                            "task indices must be below {n}; remove or retarget the channel"
                        )),
                    );
                } else if ch.src == ch.dst {
                    r.push(
                        Diagnostic::error(
                            "MC0003",
                            PASS,
                            EntityRef::channel(a, c),
                            format!("channel {c} connects task {} to itself", ch.src),
                        )
                        .with_suggestion("self-dependencies are implicit; remove the channel"),
                    );
                }
            }
            if let Some(task) = find_cycle(app) {
                cyclic[a.index()] = true;
                r.push(
                    Diagnostic::error(
                        "MC0001",
                        PASS,
                        EntityRef::task(a, task),
                        format!(
                            "application '{}' contains a dependency cycle through {task}",
                            app.name()
                        ),
                    )
                    .with_suggestion("break the cycle by removing one of its back edges"),
                );
            }
        }
        cyclic
    }

    // --- pass 2: criticality annotations (MC0008/9) -----------------------

    fn pass_criticality(&self, r: &mut LintReport) {
        const PASS: &str = "criticality";
        for (a, app) in self.apps.apps() {
            match app.criticality() {
                Criticality::NonDroppable { max_failure_rate } => {
                    if !(max_failure_rate > 0.0 && max_failure_rate <= 1.0) {
                        r.push(
                            Diagnostic::error(
                                "MC0008",
                                PASS,
                                EntityRef::app(a),
                                format!(
                                    "reliability bound {max_failure_rate} of '{}' is outside (0, 1]",
                                    app.name()
                                ),
                            )
                            .with_suggestion(
                                "failure-rate bounds are probabilities per hyperperiod",
                            ),
                        );
                    }
                }
                Criticality::Droppable { service } => {
                    if !(service.is_finite() && service > 0.0) {
                        r.push(
                            Diagnostic::error(
                                "MC0009",
                                PASS,
                                EntityRef::app(a),
                                format!(
                                    "service value {service} of '{}' is not finite and positive",
                                    app.name()
                                ),
                            )
                            .with_suggestion(
                                "droppable applications need a positive service value",
                            ),
                        );
                    }
                }
            }
        }
    }

    // --- pass 3: execution bounds (MC0004/5/105) --------------------------

    fn pass_exec_bounds(&self, r: &mut LintReport) {
        const PASS: &str = "exec-bounds";
        for (a, app) in self.apps.apps() {
            for (t, task) in app.tasks() {
                if task.supported_kinds().next().is_none() {
                    r.push(
                        Diagnostic::error(
                            "MC0004",
                            PASS,
                            EntityRef::task(a, t),
                            format!("task '{}' has no execution profile for any kind", task.name),
                        )
                        .with_suggestion("add at least one (kind, [bcet, wcet]) profile"),
                    );
                    continue;
                }
                let mut zero_wcet = false;
                for k in task.supported_kinds() {
                    let b = task.exec_on(k).expect("supported kind has bounds");
                    if b.bcet > b.wcet {
                        r.push(
                            Diagnostic::error(
                                "MC0005",
                                PASS,
                                EntityRef::task(a, t),
                                format!(
                                    "task '{}' has inverted bounds on kind {}: bcet {} > wcet {}",
                                    task.name,
                                    k.index(),
                                    b.bcet,
                                    b.wcet
                                ),
                            )
                            .with_suggestion("swap the bounds or fix the profile data"),
                        );
                    }
                    zero_wcet |= b.wcet.is_zero();
                }
                if zero_wcet {
                    r.push(
                        Diagnostic::warning(
                            "MC0105",
                            PASS,
                            EntityRef::task(a, t),
                            format!(
                                "task '{}' has a zero WCET profile; it is invisible to the \
                                 schedulability and reliability analyses",
                                task.name
                            ),
                        )
                        .with_suggestion("use a positive WCET unless the task is a placeholder"),
                    );
                }
            }
        }
    }

    // --- pass 4: platform sanity (MC0010/11/12/13) ------------------------

    fn pass_platform(&self, r: &mut LintReport) {
        const PASS: &str = "platform";
        if self.arch.num_processors() == 0 {
            r.push(
                Diagnostic::error(
                    "MC0010",
                    PASS,
                    EntityRef::none(),
                    "architecture has no processors",
                )
                .with_suggestion("add at least one processing element"),
            );
        }
        if self.arch.fabric().bandwidth == 0 {
            r.push(
                Diagnostic::error(
                    "MC0011",
                    PASS,
                    EntityRef::none(),
                    "communication fabric bandwidth is zero",
                )
                .with_suggestion("set a positive bandwidth (bytes per tick)"),
            );
        }
        for (p, proc) in self.arch.processors() {
            if !(proc.fault_rate.is_finite() && proc.fault_rate >= 0.0) {
                r.push(
                    Diagnostic::error(
                        "MC0012",
                        PASS,
                        EntityRef::proc(p),
                        format!(
                            "processor '{}' has invalid fault rate {}",
                            proc.name, proc.fault_rate
                        ),
                    )
                    .with_suggestion("fault rates are expected faults per tick, λ ≥ 0"),
                );
            }
            for (label, value) in [("static", proc.stat_power), ("dynamic", proc.dyn_power)] {
                if !(value.is_finite() && value >= 0.0) {
                    r.push(
                        Diagnostic::error(
                            "MC0013",
                            PASS,
                            EntityRef::proc(p),
                            format!(
                                "processor '{}' has invalid {label} power {value}",
                                proc.name
                            ),
                        )
                        .with_suggestion("power figures must be finite and non-negative"),
                    );
                }
            }
        }
    }

    // --- pass 5: platform fit (MC0113/104) --------------------------------

    fn pass_platform_fit(&self, r: &mut LintReport) {
        const PASS: &str = "platform-fit";
        let present = self.present_kinds();
        for (a, app) in self.apps.apps() {
            for (t, task) in app.tasks() {
                let mappable = task
                    .supported_kinds()
                    .any(|k| present.get(k.index()).copied().unwrap_or(false));
                if !mappable && task.supported_kinds().next().is_some() {
                    let kinds: Vec<String> = task
                        .supported_kinds()
                        .map(|k| k.index().to_string())
                        .collect();
                    r.push(
                        Diagnostic::error(
                            "MC0113",
                            PASS,
                            EntityRef::task(a, t),
                            format!(
                                "task '{}' only runs on kind(s) {{{}}} but the platform \
                                 provides none of them",
                                task.name,
                                kinds.join(", ")
                            ),
                        )
                        .with_suggestion(
                            "add a processor of a supported kind or extend the task's profiles",
                        ),
                    );
                }
            }
        }
        // Orphan PEs: no task anywhere can execute on this processor's kind.
        for (p, proc) in self.arch.processors() {
            let used = self
                .apps
                .task_refs()
                .iter()
                .any(|&tr| self.apps.task(tr).runs_on(proc.kind));
            if !used {
                r.push(
                    Diagnostic::hint(
                        "MC0104",
                        PASS,
                        EntityRef::proc(p),
                        format!(
                            "no task can execute on processor '{}' (kind {}); it only \
                             contributes static power",
                            proc.name,
                            proc.kind.index()
                        ),
                    )
                    .with_suggestion("remove the processor or add tasks that can use it"),
                );
            }
        }
    }

    // --- pass 6: utilization (MC0103) -------------------------------------

    fn pass_utilization(&self, r: &mut LintReport) {
        const PASS: &str = "utilization";
        let procs = self.arch.num_processors();
        if procs == 0 {
            return; // reported as MC0010
        }
        let present = self.present_kinds();
        let mut util = 0.0f64;
        for (_, app) in self.apps.apps() {
            if app.period().is_zero() {
                return; // reported as MC0006; utilization is undefined
            }
            for (_, task) in app.tasks() {
                util += self.min_wcet_ticks(task, &present) as f64 / app.period().as_f64();
            }
        }
        let capacity = procs as f64;
        if util > capacity {
            r.push(
                Diagnostic::error(
                    "MC0103",
                    PASS,
                    EntityRef::none(),
                    format!(
                        "total optimistic utilization {util:.2} exceeds the platform \
                         capacity of {procs} processor(s); no mapping can be schedulable"
                    ),
                )
                .with_suggestion("add processors, relax periods, or drop applications"),
            );
        } else if util > 0.95 * capacity {
            r.push(
                Diagnostic::warning(
                    "MC0103",
                    PASS,
                    EntityRef::none(),
                    format!(
                        "total optimistic utilization {util:.2} is above 95 % of the \
                         platform capacity ({procs} processor(s)); hardening overheads \
                         will likely make the system unschedulable"
                    ),
                )
                .with_suggestion("leave headroom for re-execution and replication overheads"),
            );
        }
    }

    // --- pass 7: deadline reachability (MC0102) ---------------------------

    /// Flags applications whose critical path — with every task on its
    /// fastest available kind and all communication free — already misses
    /// the deadline. This is a certificate of infeasibility: every real
    /// mapping is at least this slow.
    fn pass_deadline(&self, r: &mut LintReport, cyclic: &[bool]) {
        const PASS: &str = "deadline";
        let present = self.present_kinds();
        for (a, app) in self.apps.apps() {
            if cyclic.get(a.index()).copied().unwrap_or(false) || app.deadline().is_zero() {
                continue; // structure errors already reported
            }
            let n = app.num_tasks();
            let mut dist = vec![0u64; n];
            let mut best = 0u64;
            for &t in app.topological_order() {
                let wcet = self.min_wcet_ticks(app.task(t), &present);
                let longest_pred = app
                    .predecessors(t)
                    .filter(|p| p.index() < n && *p != t)
                    .map(|p| dist[p.index()])
                    .max()
                    .unwrap_or(0);
                dist[t.index()] = longest_pred.saturating_add(wcet);
                best = best.max(dist[t.index()]);
            }
            if best > app.deadline().ticks() {
                r.push(
                    Diagnostic::error(
                        "MC0102",
                        PASS,
                        EntityRef::app(a),
                        format!(
                            "the critical path of '{}' needs at least {best} ticks even \
                             with every task on its fastest kind and free communication, \
                             but the deadline is {}",
                            app.name(),
                            app.deadline()
                        ),
                    )
                    .with_suggestion("relax the deadline or shorten the task chain"),
                );
            }
        }
    }

    // --- pass 8: reliability satisfiability (MC0101) ----------------------

    /// Flags non-droppable applications whose reliability bound cannot be
    /// met even by the *best possible* hardening within the configured
    /// limits: every task on its most reliable processor, the full
    /// re-execution budget or the full replica budget applied, faults
    /// assumed independent, and voters assumed perfect. The real failure
    /// probability of any concrete design is at least the bound computed
    /// here, so exceeding the application's target is a certificate of
    /// unsatisfiability.
    fn pass_reliability(&self, r: &mut LintReport) {
        const PASS: &str = "reliability";
        if self.arch.num_processors() == 0 {
            return; // reported as MC0010
        }
        for (a, app) in self.apps.apps() {
            let Criticality::NonDroppable { max_failure_rate } = app.criticality() else {
                continue;
            };
            if !(max_failure_rate > 0.0 && max_failure_rate <= 1.0) {
                continue; // reported as MC0008
            }
            let mut log_success = 0.0f64; // Σ ln(1 − best_v)
            let mut impossible = false;
            for (_, task) in app.tasks() {
                let Some(best) = self.best_task_failure_prob(task) else {
                    continue; // unmappable tasks are reported as MC0113
                };
                if best >= 1.0 {
                    impossible = true;
                    break;
                }
                log_success += (1.0 - best).ln();
            }
            let app_failure_lower_bound = if impossible {
                1.0
            } else {
                1.0 - log_success.exp()
            };
            if app_failure_lower_bound > max_failure_rate {
                r.push(
                    Diagnostic::error(
                        "MC0101",
                        PASS,
                        EntityRef::app(a),
                        format!(
                            "the reliability bound {max_failure_rate:e} of '{}' is \
                             unsatisfiable: even the strongest hardening within the \
                             limits (≤{} re-executions, ≤{} replicas) leaves a failure \
                             probability of at least {app_failure_lower_bound:e}",
                            app.name(),
                            self.max_reexec,
                            self.max_replicas
                        ),
                    )
                    .with_suggestion(
                        "relax the bound, use more reliable processors, or raise the \
                         hardening limits",
                    ),
                );
            }
        }
    }

    /// The smallest achievable failure probability of one task: most
    /// reliable processor, then the better of maximal re-execution and
    /// maximal majority-voted replication. `None` if no processor can run
    /// the task.
    fn best_task_failure_prob(&self, task: &mcmap_model::Task) -> Option<f64> {
        let p_min = self
            .arch
            .processors()
            .filter_map(|(_, proc)| {
                task.exec_on(proc.kind)
                    .map(|b| proc.fault_probability(b.wcet).clamp(0.0, 1.0))
            })
            .fold(f64::INFINITY, f64::min);
        if !p_min.is_finite() {
            return None;
        }
        let reexec = p_min.powi(i32::from(self.max_reexec) + 1);
        let copies = 1 + usize::from(self.max_replicas);
        let replicated = if copies >= 2 {
            majority_failure_prob(&vec![p_min; copies])
        } else {
            p_min
        };
        Some(reexec.min(replicated).min(p_min))
    }

    // --- per-entry hardening checks (MC0109/110/112) -----------------------

    /// The checks every hardening entry gets, in a plan or in a genome: the
    /// configured limits (MC0112), then the per-entry rules `harden`
    /// enforces ([`entry_errors`], each violation reported): a malformed
    /// replication is MC0109, a copy or voter on a nonexistent or
    /// kind-incompatible processor is MC0110.
    fn check_entry(&self, r: &mut LintReport, pass: &'static str, flat: usize, h: &TaskHardening) {
        let tr = self.apps.task_refs()[flat];
        let entity = EntityRef::task(tr.app, tr.task);
        let k = h.reexecutions();
        if k > self.max_reexec {
            r.push(
                Diagnostic::error(
                    "MC0112",
                    pass,
                    entity,
                    format!(
                        "task {tr} uses {k} re-executions but the space allows at most {}",
                        self.max_reexec
                    ),
                )
                .with_suggestion("clamp the entry to the configured budget"),
            );
        }
        let extra = h.bodies().count();
        if extra > usize::from(self.max_replicas) {
            r.push(
                Diagnostic::error(
                    "MC0112",
                    pass,
                    entity,
                    format!(
                        "task {tr} uses {extra} extra replicas but the space allows at most {}",
                        self.max_replicas
                    ),
                )
                .with_suggestion("clamp the entry to the configured budget"),
            );
        }
        for e in entry_errors(tr, self.apps.task(tr), h, self.arch) {
            let (code, entity, suggestion) = match e {
                HardenError::UnknownProcessor { proc, .. } => (
                    "MC0110",
                    entity.with_proc(proc),
                    "replicas and voters must name existing processors",
                ),
                HardenError::ReplicaKindMismatch { proc, .. } => (
                    "MC0110",
                    entity.with_proc(proc),
                    "place every copy on a kind-compatible processor",
                ),
                _ => (
                    "MC0109",
                    entity,
                    "active replication needs a replica; passive replication needs an \
                     extra active copy and a standby",
                ),
            };
            r.push(
                Diagnostic::error(code, pass, entity, e.to_string()).with_suggestion(suggestion),
            );
        }
    }

    // --- pass 9: hardening spec (MC0107/108/109/110/112) ------------------

    fn pass_hardening_spec(&self, r: &mut LintReport, plan: &HardeningPlan) {
        const PASS: &str = "hardening-spec";
        if plan.len() != self.apps.num_tasks() {
            r.push(
                Diagnostic::error(
                    "MC0109",
                    PASS,
                    EntityRef::none(),
                    format!(
                        "hardening plan covers {} task(s) but the application set has {}",
                        plan.len(),
                        self.apps.num_tasks()
                    ),
                )
                .with_suggestion("build the plan from the same AppSet it is applied to"),
            );
            return;
        }
        for (flat, h) in plan.iter() {
            self.check_entry(r, PASS, flat, h);
            let tr = self.apps.task_refs()[flat];
            let entity = EntityRef::task(tr.app, tr.task);
            // Colocated replicas defeat the purpose of spatial redundancy.
            let mut bodies: Vec<ProcId> = h.bodies().collect();
            bodies.sort_unstable_by_key(|p| p.index());
            let before = bodies.len();
            bodies.dedup();
            if bodies.len() < before {
                r.push(
                    Diagnostic::warning(
                        "MC0107",
                        PASS,
                        entity,
                        format!(
                            "task {tr} places several replicas on the same processor; a \
                             single fault can take out multiple copies"
                        ),
                    )
                    .with_suggestion("spread replicas across distinct processors"),
                );
            }
            if h.is_hardened() && self.apps.app(tr.app).criticality().is_droppable() {
                r.push(
                    Diagnostic::hint(
                        "MC0108",
                        PASS,
                        entity,
                        format!(
                            "task {tr} of droppable application '{}' is hardened; droppable \
                             applications carry no reliability bound, so this only costs \
                             time and power",
                            self.apps.app(tr.app).name()
                        ),
                    )
                    .with_suggestion("reserve hardening for non-droppable applications"),
                );
            }
        }
    }

    // --- pass 10: genome shape (MC0106/109/110/111/112) -------------------

    /// The per-entry checks of every gene, plus the genome's own rules:
    /// the section lengths, an allocated processor, a valid primary
    /// binding, and copies and voters on allocated processors.
    fn pass_genome(&self, r: &mut LintReport, g: &Genome) {
        const PASS: &str = "genome-shape";
        let procs = self.arch.num_processors();
        let droppable = self.apps.droppable_apps().count();
        let mut shape_ok = true;
        for (what, got, want) in [
            ("allocation bits", g.alloc.len(), procs),
            ("keep bits", g.keep.len(), droppable),
            ("task genes", g.genes.len(), self.apps.num_tasks()),
        ] {
            if got != want {
                shape_ok = false;
                r.push(
                    Diagnostic::error(
                        "MC0109",
                        PASS,
                        EntityRef::none(),
                        format!("genome has {got} {what} but the system needs {want}"),
                    )
                    .with_suggestion("regenerate the genome from this system's GenomeSpace"),
                );
            }
        }
        if !shape_ok {
            return; // per-gene checks would index out of range
        }
        if !g.alloc.iter().any(|&b| b) {
            r.push(
                Diagnostic::error(
                    "MC0111",
                    PASS,
                    EntityRef::none(),
                    "no processor is allocated; nothing can execute",
                )
                .with_suggestion("allocate at least one processor (repair does this)"),
            );
        }
        // Processors that exist but are not allocated; nonexistent ones are
        // the per-entry check's (or the binding check's) finding.
        let unallocated = |p: &ProcId| p.index() < procs && !g.alloc[p.index()];
        for (flat, gene) in g.genes.iter().enumerate() {
            let tr = self.apps.task_refs()[flat];
            let entity = EntityRef::task(tr.app, tr.task);
            let p = gene.binding;
            let binding_error = if p.index() >= procs {
                Some(format!(
                    "primary binding of task {tr} names processor {p} but the platform has \
                     only {procs}"
                ))
            } else if !g.alloc[p.index()] {
                Some(format!(
                    "primary binding of task {tr} sits on unallocated processor {p}"
                ))
            } else if !self.apps.task(tr).runs_on(self.arch.processor(p).kind) {
                Some(format!(
                    "primary binding of task {tr} sits on processor {p} of kind {}, which \
                     the task has no execution profile for",
                    self.arch.processor(p).kind.index()
                ))
            } else {
                None
            };
            if let Some(message) = binding_error {
                r.push(
                    Diagnostic::error("MC0110", PASS, entity.with_proc(p), message)
                        .with_suggestion(
                            "bind the task to an allocated, kind-compatible processor \
                             (repair does this)",
                        ),
                );
            }
            let h = &gene.hardening;
            self.check_entry(r, PASS, flat, h);
            for p in h.bodies().filter(unallocated) {
                r.push(
                    Diagnostic::error(
                        "MC0110",
                        PASS,
                        entity.with_proc(p),
                        format!("replica of task {tr} sits on unallocated processor {p}"),
                    )
                    .with_suggestion("allocate the processor or rebind (repair does this)"),
                );
            }
            if let Some(voter) = h.voter().filter(unallocated) {
                r.push(
                    Diagnostic::error(
                        "MC0106",
                        PASS,
                        entity.with_proc(voter),
                        format!("voter of task {tr} sits on unallocated processor {voter}"),
                    )
                    .with_suggestion(
                        "place the voter on an allocated processor (repair does this)",
                    ),
                );
            }
        }
    }
}

/// Convenience wrapper: lints a system with the default limits.
pub fn lint_system(apps: &AppSet, arch: &Architecture) -> LintReport {
    Linter::new(apps, arch).lint()
}

/// Cycle detection over the in-range, non-self-loop channels of one graph
/// (Kahn's algorithm). Returns a task on a cycle, if any. Works on
/// unvalidated graphs, whose stored topological order is only best-effort.
fn find_cycle(app: &TaskGraph) -> Option<TaskId> {
    let n = app.num_tasks();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (_, c) in app.channels() {
        if c.src.index() >= n || c.dst.index() >= n || c.src == c.dst {
            continue;
        }
        indeg[c.dst.index()] += 1;
        adj[c.src.index()].push(c.dst.index());
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut emitted = 0usize;
    while let Some(u) = queue.pop() {
        emitted += 1;
        for &v in &adj[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    if emitted == n {
        None
    } else {
        (0..n).find(|&i| indeg[i] > 0).map(TaskId::new)
    }
}

/// Returns `true` if the processor kind exists on the platform (used by
/// documentation examples and downstream crates).
pub fn kind_present(arch: &Architecture, kind: ProcKind) -> bool {
    arch.processors().any(|(_, p)| p.kind == kind)
}

/// Looks up the application id of a flat task index (helper shared by the
/// report-producing integrations).
pub fn app_of_flat(apps: &AppSet, flat: usize) -> Option<AppId> {
    apps.task_refs().get(flat).map(|r| r.app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::{TaskGene, TaskHardening};
    use mcmap_model::{ExecBounds, Processor, Task, Time};

    fn arch(n: usize, rate: f64) -> Architecture {
        Architecture::builder()
            .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, rate))
            .build()
            .unwrap()
    }

    fn simple_apps() -> AppSet {
        let g = TaskGraph::builder("a", Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 1e-4,
            })
            .task(Task::new("t0").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .task(Task::new("t1").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .channel(0, 1, 8)
            .build()
            .unwrap();
        AppSet::new(vec![g]).unwrap()
    }

    #[test]
    fn valid_system_is_clean() {
        let apps = simple_apps();
        let arch = arch(2, 1e-7);
        let report = Linter::new(&apps, &arch).lint();
        assert!(!report.has_errors(), "unexpected: {}", report.render_text());
    }

    #[test]
    fn cycle_is_reported() {
        let g = TaskGraph::builder("c", Time::from_ticks(100))
            .task(Task::new("x").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
            .task(Task::new("y").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
            .channel(0, 1, 1)
            .channel(1, 0, 1)
            .build_unvalidated();
        let apps = AppSet::new_unvalidated(vec![g]);
        let report = Linter::new(&apps, &arch(1, 0.0)).lint();
        assert!(report.has_code("MC0001"), "{}", report.render_text());
    }

    #[test]
    fn unreachable_deadline_is_reported() {
        // Chain of two 60-tick tasks, deadline 100 < 120.
        let g = TaskGraph::builder("d", Time::from_ticks(100))
            .task(Task::new("x").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(60))))
            .task(Task::new("y").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(60))))
            .channel(0, 1, 1)
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let report = Linter::new(&apps, &arch(4, 0.0)).lint();
        assert!(report.has_code("MC0102"), "{}", report.render_text());
        // MC0103 may or may not fire; MC0102 must.
    }

    #[test]
    fn unsatisfiable_reliability_is_reported() {
        let g = TaskGraph::builder("r", Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 1e-300,
            })
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let report = Linter::new(&apps, &arch(2, 1e-5)).lint();
        assert!(report.has_code("MC0101"), "{}", report.render_text());
    }

    #[test]
    fn satisfiable_reliability_is_not_flagged() {
        // p ≈ 1e-3 per run; triplication gives ~3e-6 ≤ 1e-4.
        let g = TaskGraph::builder("r", Time::from_ticks(1_000))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 1e-4,
            })
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let report = Linter::new(&apps, &arch(3, 1e-5)).lint();
        assert!(!report.has_code("MC0101"), "{}", report.render_text());
    }

    #[test]
    fn overcommitted_utilization_is_an_error() {
        let g = TaskGraph::builder("u", Time::from_ticks(100))
            .task(Task::new("x").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(90))))
            .task(Task::new("y").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(90))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let report = Linter::new(&apps, &arch(1, 0.0)).lint();
        assert!(report.has_code("MC0103"), "{}", report.render_text());
        assert!(report.has_errors());
    }

    #[test]
    fn orphan_pe_is_a_hint() {
        let arch = Architecture::builder()
            .processor(Processor::new("p0", ProcKind::new(0), 1.0, 1.0, 0.0))
            .processor(Processor::new("odd", ProcKind::new(1), 1.0, 1.0, 0.0))
            .build()
            .unwrap();
        let g = TaskGraph::builder("a", Time::from_ticks(100))
            .task(
                Task::new("t").with_exec(ProcKind::new(0), ExecBounds::exact(Time::from_ticks(1))),
            )
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let report = Linter::new(&apps, &arch).lint();
        assert!(report.has_code("MC0104"));
        assert!(!report.has_errors());
    }

    #[test]
    fn unmappable_task_is_an_error() {
        let arch = arch(2, 0.0); // only kind 0
        let g = TaskGraph::builder("a", Time::from_ticks(100))
            .task(
                Task::new("t").with_exec(ProcKind::new(1), ExecBounds::exact(Time::from_ticks(1))),
            )
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let report = Linter::new(&apps, &arch).lint();
        assert!(report.has_code("MC0113"), "{}", report.render_text());
    }

    #[test]
    fn hardening_spec_findings() {
        use mcmap_hardening::TaskHardening;
        let apps = simple_apps();
        let arch = arch(2, 1e-7);
        let mut plan = HardeningPlan::unhardened(&apps);
        // Colocated replicas + out-of-range voter + over-budget copies.
        plan.set_by_flat_index(
            0,
            TaskHardening::Active {
                replicas: vec![ProcId::new(1), ProcId::new(1), ProcId::new(1)],
                voter: ProcId::new(9),
            },
        );
        let report = Linter::new(&apps, &arch).lint_plan(&plan);
        assert!(report.has_code("MC0107"), "{}", report.render_text());
        assert!(report.has_code("MC0110"));
        assert!(report.has_code("MC0112"));
    }

    #[test]
    fn plan_shape_mismatch() {
        let apps = simple_apps();
        let arch = arch(2, 1e-7);
        let plan = HardeningPlan::from_entries(vec![]);
        let report = Linter::new(&apps, &arch).lint_plan(&plan);
        assert_eq!(report.error_codes(), vec!["MC0109"]);
    }

    #[test]
    fn genome_pass_catches_everything() {
        let apps = simple_apps();
        let arch = arch(2, 1e-7);
        let g = Genome {
            alloc: vec![true, false],
            keep: vec![],
            genes: vec![
                TaskGene {
                    binding: ProcId::new(1), // unallocated
                    hardening: TaskHardening::Active {
                        replicas: vec![ProcId::new(5)], // out of range
                        voter: ProcId::new(1),          // unallocated voter
                    },
                },
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: TaskHardening::Reexec(9), // over budget
                },
            ],
        };
        let report = Linter::new(&apps, &arch).lint_genome(&g);
        for code in ["MC0110", "MC0106", "MC0112"] {
            assert!(
                report.has_code(code),
                "missing {code}: {}",
                report.render_text()
            );
        }
    }

    #[test]
    fn genome_shape_mismatch_short_circuits() {
        let apps = simple_apps();
        let arch = arch(2, 1e-7);
        let g = Genome {
            alloc: vec![true],
            keep: vec![true],
            genes: vec![],
        };
        let report = Linter::new(&apps, &arch).lint_genome(&g);
        assert_eq!(report.error_codes(), vec!["MC0109"]);
        assert_eq!(report.count(crate::Severity::Error), 3);
    }

    #[test]
    fn empty_genome_allocation_is_an_error() {
        let apps = simple_apps();
        let arch = arch(2, 1e-7);
        let g = Genome {
            alloc: vec![false, false],
            keep: vec![],
            genes: vec![
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: TaskHardening::None,
                },
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: TaskHardening::None,
                },
            ],
        };
        let report = Linter::new(&apps, &arch).lint_genome(&g);
        assert!(report.has_code("MC0111"));
    }

    #[test]
    fn helpers_behave() {
        let apps = simple_apps();
        let a = arch(1, 0.0);
        assert!(kind_present(&a, ProcKind::new(0)));
        assert!(!kind_present(&a, ProcKind::new(3)));
        assert_eq!(app_of_flat(&apps, 0), Some(AppId::new(0)));
        assert_eq!(app_of_flat(&apps, 99), None);
    }
}
