//! The deterministic mode-switch controller and its sim-driven harness.

use mcmap_core::MaterializedPoint;
use mcmap_model::{AppId, Architecture, Criticality, ProcId, Time};
use mcmap_obs::{Recorder, Value};
use mcmap_sched::{hyperperiod, SchedPolicy};
use mcmap_sim::{RandomFaults, SimConfig, Simulator};

/// An event the runtime reacts to, one per hyperperiod boundary. The
/// first two are produced by the simulator itself (critical-state entries
/// are exactly the detected transient faults); the last two model the
/// environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeEvent {
    /// `entries` transient faults were detected since the last boundary
    /// (the simulator's critical-state entries).
    Fault {
        /// Number of critical-state entries observed.
        entries: u64,
    },
    /// A fault-free interval.
    Quiet,
    /// A load change adding sustained pressure — handled like fault
    /// pressure (shed LO-criticality service to regain headroom).
    LoadSpike,
    /// Permanent loss of a processor. Every operating point that maps
    /// any task onto it becomes non-viable for the rest of the mission.
    PeLoss {
        /// The failed processor.
        pe: ProcId,
    },
}

/// Reaction-policy knobs. The defaults are deliberately twitchy
/// (degrade after one bad hyperperiod, recover after two quiet ones) so
/// short campaigns exercise every transition kind.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Consecutive pressure events at a fully extended ladder before the
    /// manager escalates to a lower-service operating point.
    pub escalate_after: u32,
    /// Consecutive quiet events before one degradation step is undone
    /// (an application re-admitted, or a switch back up the point list).
    pub recover_after: u32,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            escalate_after: 1,
            recover_after: 2,
        }
    }
}

/// One recorded mode transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Event time (ticks since mission start).
    pub at: Time,
    /// Operating-point index before the transition.
    pub from: usize,
    /// Operating-point index after the transition (equal to `from` for
    /// ladder moves within a point).
    pub to: usize,
    /// Why: `"degrade"`, `"readmit"`, `"escalate"`, `"recover"`, or
    /// `"pe-loss"`.
    pub reason: &'static str,
    /// The full dropped set in effect *after* the transition.
    pub dropped: Vec<AppId>,
}

/// The deterministic mode-switch controller over a materialized
/// portfolio. Pure state machine: identical event sequences produce
/// identical transition sequences, which is what makes the validation
/// campaigns replayable.
#[derive(Debug)]
pub struct RuntimeManager<'a> {
    points: &'a [MaterializedPoint],
    /// Per point: the LO-criticality ladder — droppable applications not
    /// already dropped by the point itself, cheapest delivered service
    /// first (the order they are shed under pressure).
    ladders: Vec<Vec<AppId>>,
    alive: Vec<bool>,
    current: usize,
    /// How many ladder rungs of the current point are currently shed.
    depth: usize,
    quiet_streak: u32,
    pressure_streak: u32,
    exhausted: bool,
    history: Vec<Transition>,
    cfg: RuntimeConfig,
    obs: Recorder,
}

impl<'a> RuntimeManager<'a> {
    /// Builds the controller. `points` must be in ladder order (service
    /// descending — [`Portfolio::extract`](mcmap_core::Portfolio::extract)
    /// order) and non-empty; the mission starts in point 0, undegraded.
    ///
    /// # Panics
    ///
    /// Panics when `points` is empty.
    pub fn new(points: &'a [MaterializedPoint], cfg: RuntimeConfig) -> Self {
        assert!(!points.is_empty(), "a portfolio needs at least one point");
        let ladders = points
            .iter()
            .map(|p| {
                let mut rungs: Vec<(f64, AppId)> = p
                    .hsys
                    .apps()
                    .iter()
                    .filter(|a| !p.dropped.contains(&a.app))
                    .filter_map(|a| match a.criticality {
                        Criticality::Droppable { service } => Some((service, a.app)),
                        Criticality::NonDroppable { .. } => None,
                    })
                    .collect();
                rungs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.index().cmp(&b.1.index())));
                rungs.into_iter().map(|(_, id)| id).collect()
            })
            .collect();
        RuntimeManager {
            ladders,
            alive: vec![true; points.len()],
            current: 0,
            depth: 0,
            quiet_streak: 0,
            pressure_streak: 0,
            exhausted: false,
            history: Vec::new(),
            cfg,
            points,
            obs: Recorder::default(),
        }
    }

    /// Attaches an obs recorder (every transition emits a
    /// `runtime.switch` mark).
    #[must_use]
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Index of the current operating point.
    pub fn current(&self) -> usize {
        self.current
    }

    /// The current operating point's materialized design.
    pub fn current_point(&self) -> &'a MaterializedPoint {
        &self.points[self.current]
    }

    /// The dropped set currently in effect: the point's own degraded set
    /// plus the shed ladder rungs, ascending id order.
    pub fn dropped_now(&self) -> Vec<AppId> {
        let mut dropped = self.points[self.current].dropped.clone();
        dropped.extend_from_slice(&self.ladders[self.current][..self.depth]);
        dropped.sort_by_key(|a| a.index());
        dropped
    }

    /// `true` once no viable operating point remains (every point uses a
    /// lost processor). The manager keeps answering, frozen in the last
    /// mode, but the mission guarantee is void.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// All transitions so far, in order.
    pub fn history(&self) -> &[Transition] {
        &self.history
    }

    /// Feeds one event at time `now`; returns the transition it caused,
    /// if any.
    pub fn on_event(&mut self, now: Time, event: RuntimeEvent) -> Option<Transition> {
        match event {
            RuntimeEvent::Fault { .. } | RuntimeEvent::LoadSpike => self.on_pressure(now),
            RuntimeEvent::Quiet => self.on_quiet(now),
            RuntimeEvent::PeLoss { pe } => self.on_pe_loss(now, pe),
        }
    }

    fn on_pressure(&mut self, now: Time) -> Option<Transition> {
        self.quiet_streak = 0;
        if self.depth < self.ladders[self.current].len() {
            self.depth += 1;
            self.pressure_streak = 0;
            return Some(self.record(now, self.current, "degrade"));
        }
        self.pressure_streak += 1;
        if self.pressure_streak < self.cfg.escalate_after {
            return None;
        }
        self.pressure_streak = 0;
        // Ladder exhausted: fall to the next (lower-service) surviving
        // point. Points are in service-descending order, so the first
        // alive index past the current one is the gentlest escalation.
        match (self.current + 1..self.points.len()).find(|&i| self.alive[i]) {
            Some(next) => {
                self.depth = 0;
                Some(self.switch(now, next, "escalate"))
            }
            None => {
                self.note_exhausted();
                None
            }
        }
    }

    fn on_quiet(&mut self, now: Time) -> Option<Transition> {
        self.pressure_streak = 0;
        self.quiet_streak += 1;
        if self.quiet_streak < self.cfg.recover_after {
            return None;
        }
        self.quiet_streak = 0;
        if self.depth > 0 {
            self.depth -= 1;
            return Some(self.record(now, self.current, "readmit"));
        }
        // Fully re-admitted in this point: climb back to the best
        // surviving point, one recovery interval per step.
        match (0..self.current).find(|&i| self.alive[i]) {
            Some(best) => {
                self.depth = 0;
                Some(self.switch(now, best, "recover"))
            }
            None => None,
        }
    }

    fn on_pe_loss(&mut self, now: Time, pe: ProcId) -> Option<Transition> {
        for (i, point) in self.points.iter().enumerate() {
            if point.used_processors().contains(&pe) {
                self.alive[i] = false;
            }
        }
        if self.alive[self.current] {
            return None;
        }
        match (0..self.points.len()).find(|&i| self.alive[i]) {
            Some(best) => {
                self.depth = 0;
                self.quiet_streak = 0;
                self.pressure_streak = 0;
                Some(self.switch(now, best, "pe-loss"))
            }
            None => {
                self.note_exhausted();
                None
            }
        }
    }

    fn switch(&mut self, now: Time, to: usize, reason: &'static str) -> Transition {
        let t = self.record(now, to, reason);
        self.current = to;
        t
    }

    fn record(&mut self, now: Time, to: usize, reason: &'static str) -> Transition {
        let from = self.current;
        // The dropped set after this transition (`to`/`depth` already
        // reflect it for ladder moves; point switches reset depth first).
        let dropped = {
            let mut d = self.points[to].dropped.clone();
            let depth = if to == from { self.depth } else { 0 };
            d.extend_from_slice(&self.ladders[to][..depth]);
            d.sort_by_key(|a| a.index());
            d
        };
        self.obs.mark(
            "runtime.switch",
            &[
                ("from", Value::U64(from as u64)),
                ("to", Value::U64(to as u64)),
                ("reason", Value::Str(reason.to_string())),
                ("at", Value::U64(now.ticks())),
                ("degraded", Value::U64(dropped.len() as u64)),
            ],
        );
        let t = Transition {
            at: now,
            from,
            to,
            reason,
            dropped,
        };
        self.history.push(t.clone());
        t
    }

    fn note_exhausted(&mut self) {
        if !self.exhausted {
            self.exhausted = true;
            self.obs.mark("runtime.exhausted", &[]);
        }
    }
}

/// Configuration of the closed-loop reaction harness.
#[derive(Debug, Clone)]
pub struct ReactionConfig {
    /// Mission length in hyperperiods.
    pub hyperperiods: u64,
    /// Base fault seed; hyperperiod `h` simulates with `seed + h`.
    pub seed: u64,
    /// Fault-probability boost (see
    /// [`RandomFaults::with_boost`](mcmap_sim::RandomFaults::with_boost)).
    pub boost: f64,
    /// Inject a permanent processor failure at the start of the given
    /// hyperperiod.
    pub pe_loss_at: Option<(u64, ProcId)>,
    /// Reaction-policy knobs.
    pub runtime: RuntimeConfig,
}

impl Default for ReactionConfig {
    fn default() -> Self {
        ReactionConfig {
            hyperperiods: 64,
            seed: 0xC0FFEE,
            boost: 1.0,
            pe_loss_at: None,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// Outcome of one closed-loop mission.
#[derive(Debug, Clone)]
pub struct ReactionReport {
    /// Every mode transition, in order.
    pub transitions: Vec<Transition>,
    /// Per faulty hyperperiod: the reaction latency from the first
    /// injected fault to the hyperperiod boundary where the manager acts
    /// (mode switches are boundary-aligned, so this is the detection →
    /// reconfiguration window).
    pub switch_latency: Vec<Time>,
    /// Hyperperiods with at least one detected fault.
    pub faulty_hyperperiods: u64,
    /// Fault-free hyperperiods.
    pub quiet_hyperperiods: u64,
    /// Response-time observations exceeding the active point's analyzed
    /// bound while within hardening coverage — must be zero; anything
    /// else refutes the analysis.
    pub bound_violations: u64,
    /// `true` when the mission ended with no viable operating point.
    pub exhausted: bool,
}

/// Drives a [`RuntimeManager`] from actual simulations: one
/// worst-case-execution hyperperiod per step with seeded random faults on
/// the *current* operating point, the simulator's critical-state entries
/// fed back as [`RuntimeEvent`]s.
///
/// `policies` are the per-processor scheduling policies (one per
/// processor of `arch`, as everywhere in the workspace).
pub fn run_reaction(
    points: &[MaterializedPoint],
    arch: &Architecture,
    policies: &[SchedPolicy],
    cfg: &ReactionConfig,
    obs: Recorder,
) -> ReactionReport {
    let mut manager = RuntimeManager::new(points, cfg.runtime).with_recorder(obs);
    let hp = hyperperiod(&points[0].hsys);
    // One simulator and one fault model per point, built once; each
    // hyperperiod runs the current point's profile of its own seed.
    let contexts: Vec<(Simulator<'_>, RandomFaults)> = points
        .iter()
        .map(|p| {
            (
                Simulator::new(&p.hsys, arch, &p.mapping, policies.to_vec()),
                RandomFaults::new(&p.hsys, arch, &p.mapping, cfg.seed).with_boost(cfg.boost),
            )
        })
        .collect();
    let mut sim_cfg = SimConfig::worst_case(Vec::new());
    let mut report = ReactionReport {
        transitions: Vec::new(),
        switch_latency: Vec::new(),
        faulty_hyperperiods: 0,
        quiet_hyperperiods: 0,
        bound_violations: 0,
        exhausted: false,
    };
    let mut now = Time::ZERO;
    for h in 0..cfg.hyperperiods {
        if let Some((at, pe)) = cfg.pe_loss_at {
            if at == h {
                manager.on_event(now, RuntimeEvent::PeLoss { pe });
                if manager.exhausted() {
                    break;
                }
            }
        }
        let point = manager.current_point();
        let (sim, faults) = &contexts[manager.current()];
        sim_cfg.dropped = manager.dropped_now();
        let (r, trace) = sim.run_traced(&sim_cfg, &mut faults.profile(cfg.seed.wrapping_add(h)));

        // Bound check: only runs within the hardening coverage carry the
        // analysis promise, and only non-dropped applications have one.
        if r.unsafe_instances.iter().sum::<u64>() == 0 {
            for (i, (&observed, &bound)) in r.app_wcrt.iter().zip(&point.app_wcrt).enumerate() {
                let id = AppId::new(i);
                if bound != Time::MAX && !sim_cfg.dropped.contains(&id) && observed > bound {
                    report.bound_violations += 1;
                }
            }
        }

        let boundary = now.saturating_add(hp);
        if r.critical_entries > 0 {
            report.faulty_hyperperiods += 1;
            if let Some(&first) = trace.critical_entries.first() {
                report
                    .switch_latency
                    .push(boundary.saturating_sub(now.saturating_add(first)));
            }
            manager.on_event(
                boundary,
                RuntimeEvent::Fault {
                    entries: r.critical_entries,
                },
            );
        } else {
            report.quiet_hyperperiods += 1;
            manager.on_event(boundary, RuntimeEvent::Quiet);
        }
        now = boundary;
    }
    report.transitions = manager.history().to_vec();
    report.exhausted = manager.exhausted();
    report
}
