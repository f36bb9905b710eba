//! The generational optimization loop.

use crate::{
    constrained_dominates, environmental_selection, nsga2_selection, pareto_front, Evaluation,
    Individual, Problem,
};
use mcmap_obs::{Recorder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which environmental-selection scheme maintains the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selector {
    /// SPEA-II (strength Pareto, k-NN density) — the paper's selector.
    #[default]
    Spea2,
    /// NSGA-II (non-dominated sort, crowding distance) — ablation selector.
    Nsga2,
}

/// Configuration of one optimization run.
///
/// The paper sets population, parents, and offspring all to 100 and runs
/// 5 000 generations; [`GaConfig::default`] uses the same population with a
/// smaller generation budget suitable for tests (override for experiments).
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Population (= archive = offspring) size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability that an offspring is produced by crossover (otherwise it
    /// clones one parent).
    pub crossover_rate: f64,
    /// Probability that an offspring is mutated.
    pub mutation_rate: f64,
    /// RNG seed: runs with equal seeds and configs are identical.
    pub seed: u64,
    /// Selection scheme.
    pub selector: Selector,
    /// Evaluation threads (1 = serial). Evaluations are independent (§4 of
    /// the paper evaluates in parallel as well).
    pub threads: usize,
    /// Observability handle. The default (disabled) recorder makes every
    /// emission a no-op; an enabled one receives one `ga.generation` span
    /// per generation (including the initial population) carrying the
    /// [`GenerationStats`] fields plus hypervolume and archive churn.
    /// Purely an instrumentation knob: results are identical either way.
    pub obs: Recorder,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 100,
            generations: 50,
            crossover_rate: 0.9,
            mutation_rate: 0.4,
            seed: 0x5EED,
            selector: Selector::Spea2,
            threads: 1,
            obs: Recorder::default(),
        }
    }
}

/// Per-generation statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationStats {
    /// Generation index (0 = initial population).
    pub generation: usize,
    /// Minimum of each objective among feasible archive members
    /// (`f64::INFINITY` when none are feasible).
    pub best: Vec<f64>,
    /// Number of feasible archive members.
    pub feasible: usize,
    /// Size of the non-dominated subset of the archive.
    pub front_size: usize,
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct GaResult<G> {
    /// Non-dominated subset of the final archive.
    pub front: Vec<Individual<G>>,
    /// The full final archive.
    pub archive: Vec<Individual<G>>,
    /// Per-generation statistics, including the initial population.
    pub history: Vec<GenerationStats>,
    /// Total number of fitness evaluations performed (this run only — a
    /// resumed run counts from its [`DriverState`] baseline).
    pub evaluations: usize,
    /// Whether an observer stopped the run before its generation budget
    /// was spent. The front/archive are those of the last completed
    /// generation; resuming from the final [`DriverState`] continues the
    /// run bit-identically.
    pub interrupted: bool,
}

/// The complete, self-contained state of the generational loop at a
/// generation boundary. Restoring it with [`optimize_resumable`] continues
/// the run *bit-identically* to one that was never stopped: the raw RNG
/// words resume the exact variation stream, and the telemetry carry-overs
/// (hypervolume reference, previous archive evaluations) keep the emitted
/// per-generation fields byte-stable across the boundary.
#[derive(Debug, Clone)]
pub struct DriverState<G> {
    /// Index of the last completed generation (0 = initial population).
    pub generation: usize,
    /// Raw xoshiro256++ words of the variation RNG, captured *after* this
    /// generation's variation.
    pub rng_state: [u64; 4],
    /// Fitness evaluations performed so far.
    pub evaluations: usize,
    /// The environmental-selection archive after this generation.
    pub archive: Vec<Individual<G>>,
    /// Per-generation statistics so far, including generation 0.
    pub history: Vec<GenerationStats>,
    /// The hypervolume reference point, once fixed (telemetry carry-over).
    pub hv_reference: Option<(f64, f64)>,
    /// The previous archive's evaluations for churn tracking (telemetry
    /// carry-over; empty when the run is unobserved).
    pub prev_evals: Vec<Evaluation>,
}

/// A borrowed view of the driver state at a generation boundary, handed to
/// the [`GenerationObserver`] after every completed generation. Borrowing
/// keeps the hook zero-cost for unobserved runs; an observer that wants to
/// persist the state clones it via [`GenerationSnapshot::to_state`].
#[derive(Debug)]
pub struct GenerationSnapshot<'a, G> {
    /// Index of the generation that just completed.
    pub generation: usize,
    /// Fitness evaluations performed so far.
    pub evaluations: usize,
    /// The archive after this generation's environmental selection.
    pub archive: &'a [Individual<G>],
    /// Per-generation statistics so far.
    pub history: &'a [GenerationStats],
    /// Raw RNG words as of this boundary.
    pub rng_state: [u64; 4],
    /// Telemetry carry-over: the fixed hypervolume reference, if any.
    pub hv_reference: Option<(f64, f64)>,
    /// Telemetry carry-over: this archive's evaluations (empty when
    /// unobserved).
    pub prev_evals: &'a [Evaluation],
}

impl<G: Clone> GenerationSnapshot<'_, G> {
    /// Clones the borrowed view into an owned, persistable [`DriverState`].
    pub fn to_state(&self) -> DriverState<G> {
        DriverState {
            generation: self.generation,
            rng_state: self.rng_state,
            evaluations: self.evaluations,
            archive: self.archive.to_vec(),
            history: self.history.to_vec(),
            hv_reference: self.hv_reference,
            prev_evals: self.prev_evals.to_vec(),
        }
    }
}

/// What the loop should do after an observer callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopControl {
    /// Keep iterating.
    #[default]
    Continue,
    /// Stop cleanly at this generation boundary; the result is marked
    /// [`GaResult::interrupted`] if the generation budget was not spent.
    Stop,
}

/// A hook fired at every generation boundary (including generation 0, the
/// initial population). Checkpointing, progress reporting, and cooperative
/// cancellation all hang off this trait.
pub trait GenerationObserver<G> {
    /// Called after each completed generation; returning
    /// [`LoopControl::Stop`] ends the run at this boundary.
    fn after_generation(&mut self, snapshot: &GenerationSnapshot<'_, G>) -> LoopControl;
}

/// The do-nothing observer used by [`optimize`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Unobserved;

impl<G> GenerationObserver<G> for Unobserved {
    fn after_generation(&mut self, _snapshot: &GenerationSnapshot<'_, G>) -> LoopControl {
        LoopControl::Continue
    }
}

/// Runs the generational loop: random initial population, binary-tournament
/// mating from the archive, crossover + mutation, environmental selection
/// over archive ∪ offspring.
///
/// Deterministic for a fixed `(problem, config)` pair: variation is driven
/// by one seeded RNG and evaluation is a pure function, so the thread count
/// does not affect the result.
///
/// # Examples
///
/// Minimizing `(x−3)²` over integer genotypes:
///
/// ```
/// use mcmap_ga::{optimize, Evaluation, GaConfig, Problem};
/// use rand::{Rng, RngCore};
///
/// struct Square;
/// impl Problem for Square {
///     type Genotype = i64;
///     fn random(&self, rng: &mut dyn RngCore) -> i64 { (rng.next_u32() % 100) as i64 }
///     fn crossover(&self, a: &i64, b: &i64, _: &mut dyn RngCore) -> i64 { (a + b) / 2 }
///     fn mutate(&self, g: &mut i64, rng: &mut dyn RngCore) {
///         *g += (rng.next_u32() % 7) as i64 - 3;
///     }
///     fn evaluate(&self, g: &i64) -> Evaluation {
///         Evaluation::feasible(vec![((g - 3) * (g - 3)) as f64])
///     }
///     fn num_objectives(&self) -> usize { 1 }
/// }
///
/// let result = optimize(&Square, &GaConfig { population: 20, generations: 30,
///     ..GaConfig::default() });
/// assert_eq!(result.front[0].genotype, 3);
/// ```
pub fn optimize<P: Problem>(problem: &P, cfg: &GaConfig) -> GaResult<P::Genotype> {
    optimize_resumable(problem, cfg, None, &mut Unobserved)
}

/// The resumable generational loop behind [`optimize`].
///
/// With `resume = Some(state)` the run skips initialization and continues
/// from the captured generation boundary; with an observer, the loop hands
/// out a [`GenerationSnapshot`] after every generation (including
/// generation 0) and honors [`LoopControl::Stop`]. The invariant the
/// checkpoint/restore machinery is built on: for any `k`, running to
/// generation `k`, persisting the snapshot, and resuming from it yields a
/// final archive, front, history, and telemetry stream bit-identical to
/// the uninterrupted run.
pub fn optimize_resumable<P: Problem>(
    problem: &P,
    cfg: &GaConfig,
    resume: Option<DriverState<P::Genotype>>,
    observer: &mut dyn GenerationObserver<P::Genotype>,
) -> GaResult<P::Genotype> {
    let mut telemetry = GenTelemetry::new(&cfg.obs);
    let mut stopped_at: Option<usize> = None;

    let (mut rng, mut archive, mut history, mut evaluations, start_gen) = match resume {
        Some(st) => {
            telemetry.reference = st.hv_reference;
            telemetry.prev_evals = st.prev_evals;
            (
                StdRng::from_state(st.rng_state),
                st.archive,
                st.history,
                st.evaluations,
                st.generation + 1,
            )
        }
        None => {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut evaluations = 0usize;

            // Initial population.
            let span = cfg
                .obs
                .span("ga.generation", &[("generation", Value::from(0u64))]);
            let genotypes: Vec<P::Genotype> = (0..cfg.population.max(2))
                .map(|_| problem.random(&mut rng))
                .collect();
            let evals = problem.evaluate_batch(&genotypes, cfg.threads);
            evaluations += evals.len();
            let batch_size = evals.len();
            let pop: Vec<Individual<P::Genotype>> = genotypes
                .into_iter()
                .zip(evals)
                .map(|(g, e)| Individual::new(g, e))
                .collect();

            let archive = select(&pop, cfg);
            let history = vec![stats(0, &archive)];
            telemetry.close_generation(span, history.last().unwrap(), batch_size, &archive);
            if observe(
                observer,
                0,
                &rng,
                &archive,
                &history,
                evaluations,
                &telemetry,
            ) == LoopControl::Stop
            {
                stopped_at = Some(0);
            }
            (rng, archive, history, evaluations, 1)
        }
    };

    if stopped_at.is_none() {
        for gen in start_gen..=cfg.generations {
            let span = cfg
                .obs
                .span("ga.generation", &[("generation", Value::from(gen))]);
            // Variation: binary tournaments over the archive. The first
            // tournament pick is each child's designated parent — the
            // archive member the child is a (crossover half + mutation)
            // derivative of — handed to the problem as a reuse hint.
            // Hints never change results (see
            // [`Problem::evaluate_batch_with_parents`]).
            let mut parent_idx: Vec<usize> = Vec::with_capacity(cfg.population);
            let offspring_genotypes: Vec<P::Genotype> = (0..cfg.population)
                .map(|_| {
                    let a = tournament(&archive, &mut rng);
                    let b = tournament(&archive, &mut rng);
                    let mut child = if rng.gen_bool(cfg.crossover_rate) {
                        problem.crossover(&archive[a].genotype, &archive[b].genotype, &mut rng)
                    } else {
                        archive[a].genotype.clone()
                    };
                    if rng.gen_bool(cfg.mutation_rate) {
                        problem.mutate(&mut child, &mut rng);
                    }
                    parent_idx.push(a);
                    child
                })
                .collect();
            let parents: Vec<Option<&P::Genotype>> = parent_idx
                .iter()
                .map(|&a| Some(&archive[a].genotype))
                .collect();
            let evals =
                problem.evaluate_batch_with_parents(&offspring_genotypes, &parents, cfg.threads);
            evaluations += evals.len();
            let batch_size = evals.len();

            let mut pool = archive;
            pool.extend(
                offspring_genotypes
                    .into_iter()
                    .zip(evals)
                    .map(|(g, e)| Individual::new(g, e)),
            );
            archive = select(&pool, cfg);
            history.push(stats(gen, &archive));
            telemetry.close_generation(span, history.last().unwrap(), batch_size, &archive);
            if observe(
                observer,
                gen,
                &rng,
                &archive,
                &history,
                evaluations,
                &telemetry,
            ) == LoopControl::Stop
            {
                stopped_at = Some(gen);
                break;
            }
        }
    }

    let front = pareto_front(&archive);
    GaResult {
        front,
        archive,
        history,
        evaluations,
        interrupted: stopped_at.is_some_and(|g| g < cfg.generations),
    }
}

/// Assembles the boundary snapshot and fires the observer.
#[allow(clippy::too_many_arguments)]
fn observe<G>(
    observer: &mut dyn GenerationObserver<G>,
    generation: usize,
    rng: &StdRng,
    archive: &[Individual<G>],
    history: &[GenerationStats],
    evaluations: usize,
    telemetry: &GenTelemetry,
) -> LoopControl {
    observer.after_generation(&GenerationSnapshot {
        generation,
        evaluations,
        archive,
        history,
        rng_state: rng.state(),
        hv_reference: telemetry.reference,
        prev_evals: &telemetry.prev_evals,
    })
}

/// Per-generation telemetry state: the fixed hypervolume reference point
/// and the previous archive's evaluations for churn tracking. All inputs
/// are deterministic archive contents, so the emitted fields are
/// replay-stable.
struct GenTelemetry {
    enabled: bool,
    /// Reference point fixed at the first generation with ≥ 1 feasible
    /// two-objective member, so hypervolume is comparable across
    /// generations of one run.
    reference: Option<(f64, f64)>,
    prev_evals: Vec<Evaluation>,
}

impl GenTelemetry {
    fn new(obs: &Recorder) -> Self {
        GenTelemetry {
            enabled: obs.enabled(),
            reference: None,
            prev_evals: Vec::new(),
        }
    }

    /// Attaches the generation's statistics to its span and closes it.
    fn close_generation<G>(
        &mut self,
        mut span: mcmap_obs::SpanGuard,
        st: &GenerationStats,
        batch_size: usize,
        archive: &[Individual<G>],
    ) {
        if !self.enabled {
            return;
        }
        span.field("generation", st.generation);
        span.field("evaluations", batch_size);
        span.field("feasible", st.feasible);
        span.field("front_size", st.front_size);
        // Static key table: event keys are `&'static str` (allocation-free
        // emission), and no objective mode has more than a handful of axes.
        const BEST: [&str; 4] = ["best_0", "best_1", "best_2", "best_3"];
        for (i, &b) in st.best.iter().enumerate().take(BEST.len()) {
            // Infinite bests (no feasible member yet) stay out of the
            // trace: they would poison the profile's counter sums.
            if b.is_finite() {
                span.field(BEST[i], b);
            }
        }

        let feasible_points: Vec<(f64, f64)> = archive
            .iter()
            .filter(|i| i.eval.feasible && i.eval.objectives.len() == 2)
            .map(|i| (i.eval.objectives[0], i.eval.objectives[1]))
            .collect();
        if self.reference.is_none() && !feasible_points.is_empty() {
            // Nadir of the first feasible front, padded 10 %, so later
            // (better) fronts stay inside the reference box.
            let worst0 = feasible_points.iter().map(|p| p.0).fold(f64::MIN, f64::max);
            let worst1 = feasible_points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
            self.reference = Some((
                worst0.abs().mul_add(0.1, worst0),
                worst1.abs().mul_add(0.1, worst1),
            ));
        }
        if let Some((r0, r1)) = self.reference {
            let front: Vec<Individual<()>> = feasible_points
                .iter()
                .map(|&(a, b)| Individual::new((), Evaluation::feasible(vec![a, b])))
                .collect();
            span.field("hypervolume", crate::hypervolume_2d(&front, [r0, r1]));
        }

        let churn = archive_churn(&self.prev_evals, archive);
        span.field("churn", churn);
        self.prev_evals = archive.iter().map(|i| i.eval.clone()).collect();
        span.end();
    }
}

/// Archive churn between generations: members added plus members removed,
/// compared as an evaluation *multiset* (genotypes are not comparable in
/// general; equal objective vectors are interchangeable for convergence
/// tracking).
fn archive_churn<G>(prev: &[Evaluation], archive: &[Individual<G>]) -> usize {
    let mut remaining: Vec<&Evaluation> = prev.iter().collect();
    let mut added = 0usize;
    for ind in archive {
        if let Some(pos) = remaining.iter().position(|e| **e == ind.eval) {
            remaining.swap_remove(pos);
        } else {
            added += 1;
        }
    }
    added + remaining.len()
}

fn select<G: Clone>(pool: &[Individual<G>], cfg: &GaConfig) -> Vec<Individual<G>> {
    match cfg.selector {
        Selector::Spea2 => environmental_selection(pool, cfg.population),
        Selector::Nsga2 => nsga2_selection(pool, cfg.population),
    }
}

/// Binary tournament: the constrained-dominating candidate wins; ties go to
/// the first pick.
fn tournament<G>(archive: &[Individual<G>], rng: &mut StdRng) -> usize {
    debug_assert!(!archive.is_empty());
    let a = rng.gen_range(0..archive.len());
    let b = rng.gen_range(0..archive.len());
    if constrained_dominates(&archive[b].eval, &archive[a].eval) {
        b
    } else {
        a
    }
}

fn stats<G>(generation: usize, archive: &[Individual<G>]) -> GenerationStats {
    let dims = archive.first().map_or(0, |i| i.eval.objectives.len());
    let mut best = vec![f64::INFINITY; dims];
    let mut feasible = 0usize;
    for ind in archive {
        if ind.eval.feasible {
            feasible += 1;
            for (b, &v) in best.iter_mut().zip(&ind.eval.objectives) {
                *b = b.min(v);
            }
        }
    }
    let front_size = archive
        .iter()
        .filter(|a| {
            !archive
                .iter()
                .any(|b| constrained_dominates(&b.eval, &a.eval))
        })
        .count();
    GenerationStats {
        generation,
        best,
        feasible,
        front_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluation;
    use rand::RngCore;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Bi-objective toy: minimize (x, 10−x) over x ∈ [0, 10] — the whole
    /// range is Pareto-optimal.
    struct Tradeoff;
    impl Problem for Tradeoff {
        type Genotype = u8;
        fn random(&self, rng: &mut dyn RngCore) -> u8 {
            (rng.next_u32() % 11) as u8
        }
        fn crossover(&self, a: &u8, b: &u8, _: &mut dyn RngCore) -> u8 {
            ((*a as u16 + *b as u16) / 2) as u8
        }
        fn mutate(&self, g: &mut u8, rng: &mut dyn RngCore) {
            *g = (rng.next_u32() % 11) as u8;
        }
        fn evaluate(&self, g: &u8) -> Evaluation {
            Evaluation::feasible(vec![*g as f64, 10.0 - *g as f64])
        }
        fn num_objectives(&self) -> usize {
            2
        }
    }

    /// Constrained: x must be ≥ 5, minimize x.
    struct Constrained;
    impl Problem for Constrained {
        type Genotype = u8;
        fn random(&self, rng: &mut dyn RngCore) -> u8 {
            (rng.next_u32() % 20) as u8
        }
        fn crossover(&self, a: &u8, _b: &u8, _: &mut dyn RngCore) -> u8 {
            *a
        }
        fn mutate(&self, g: &mut u8, rng: &mut dyn RngCore) {
            *g = (rng.next_u32() % 20) as u8;
        }
        fn evaluate(&self, g: &u8) -> Evaluation {
            if *g >= 5 {
                Evaluation::feasible(vec![*g as f64])
            } else {
                Evaluation::infeasible(vec![*g as f64], (5 - *g) as f64)
            }
        }
        fn num_objectives(&self) -> usize {
            1
        }
    }

    #[test]
    fn discovers_the_full_tradeoff_front() {
        let r = optimize(
            &Tradeoff,
            &GaConfig {
                population: 30,
                generations: 40,
                ..Default::default()
            },
        );
        // Every value 0..=10 is Pareto-optimal; the archive should cover
        // most of them, certainly the extremes.
        let xs: Vec<u8> = r.front.iter().map(|i| i.genotype).collect();
        assert!(xs.contains(&0));
        assert!(xs.contains(&10));
        assert!(r.front.len() >= 5);
        assert_eq!(r.evaluations, 30 + 30 * 40);
    }

    #[test]
    fn constrained_search_lands_on_the_boundary() {
        let r = optimize(
            &Constrained,
            &GaConfig {
                population: 16,
                generations: 30,
                ..Default::default()
            },
        );
        // Duplicates of the optimum may coexist on the front (equal
        // objective vectors do not dominate each other).
        assert!(r.front.iter().all(|i| i.genotype == 5));
        assert!(r.front.iter().all(|i| i.eval.feasible));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = GaConfig {
            population: 10,
            generations: 10,
            seed: 99,
            ..Default::default()
        };
        let a = optimize(&Tradeoff, &cfg);
        let b = optimize(&Tradeoff, &cfg);
        let xa: Vec<u8> = a.archive.iter().map(|i| i.genotype).collect();
        let xb: Vec<u8> = b.archive.iter().map(|i| i.genotype).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = GaConfig {
            population: 12,
            generations: 8,
            seed: 7,
            ..Default::default()
        };
        let serial = optimize(&Tradeoff, &base);
        let parallel = optimize(&Tradeoff, &GaConfig { threads: 4, ..base });
        let xs: Vec<u8> = serial.archive.iter().map(|i| i.genotype).collect();
        let xp: Vec<u8> = parallel.archive.iter().map(|i| i.genotype).collect();
        assert_eq!(xs, xp);
    }

    #[test]
    fn nsga2_selector_also_converges() {
        let r = optimize(
            &Constrained,
            &GaConfig {
                population: 16,
                generations: 30,
                selector: Selector::Nsga2,
                ..Default::default()
            },
        );
        assert_eq!(r.front[0].genotype, 5);
    }

    #[test]
    fn history_tracks_improvement() {
        let r = optimize(
            &Constrained,
            &GaConfig {
                population: 16,
                generations: 25,
                ..Default::default()
            },
        );
        assert_eq!(r.history.len(), 26);
        let first = r.history.first().unwrap().best[0];
        let last = r.history.last().unwrap().best[0];
        assert!(last <= first);
        assert_eq!(r.history.last().unwrap().generation, 25);
    }

    #[test]
    fn evaluation_runs_once_per_candidate() {
        struct Counting(AtomicUsize);
        impl Problem for Counting {
            type Genotype = u8;
            fn random(&self, _: &mut dyn RngCore) -> u8 {
                0
            }
            fn crossover(&self, a: &u8, _: &u8, _: &mut dyn RngCore) -> u8 {
                *a
            }
            fn mutate(&self, _: &mut u8, _: &mut dyn RngCore) {}
            fn evaluate(&self, _: &u8) -> Evaluation {
                self.0.fetch_add(1, Ordering::Relaxed);
                Evaluation::feasible(vec![0.0])
            }
            fn num_objectives(&self) -> usize {
                1
            }
        }
        let p = Counting(AtomicUsize::new(0));
        let r = optimize(
            &p,
            &GaConfig {
                population: 5,
                generations: 3,
                ..Default::default()
            },
        );
        assert_eq!(p.0.load(Ordering::Relaxed), r.evaluations);
        assert_eq!(r.evaluations, 5 + 5 * 3);
    }

    /// Captures every boundary state and stops after a chosen generation.
    struct StopAt {
        stop_after: usize,
        states: Vec<DriverState<u8>>,
    }
    impl GenerationObserver<u8> for StopAt {
        fn after_generation(&mut self, snap: &GenerationSnapshot<'_, u8>) -> LoopControl {
            self.states.push(snap.to_state());
            if snap.generation >= self.stop_after {
                LoopControl::Stop
            } else {
                LoopControl::Continue
            }
        }
    }

    #[test]
    fn observer_fires_at_every_boundary_including_gen_zero() {
        let cfg = GaConfig {
            population: 8,
            generations: 5,
            seed: 11,
            ..Default::default()
        };
        let mut obs = StopAt {
            stop_after: usize::MAX,
            states: Vec::new(),
        };
        let r = optimize_resumable(&Tradeoff, &cfg, None, &mut obs);
        assert!(!r.interrupted);
        let gens: Vec<usize> = obs.states.iter().map(|s| s.generation).collect();
        assert_eq!(gens, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(obs.states.last().unwrap().evaluations, r.evaluations);
    }

    #[test]
    fn resume_from_any_boundary_is_bit_identical() {
        let cfg = GaConfig {
            population: 12,
            generations: 9,
            seed: 4242,
            ..Default::default()
        };
        let reference = optimize(&Tradeoff, &cfg);
        let ref_xs: Vec<u8> = reference.archive.iter().map(|i| i.genotype).collect();

        for stop_after in [0usize, 1, 4, 8, 9] {
            let mut first = StopAt {
                stop_after,
                states: Vec::new(),
            };
            let part1 = optimize_resumable(&Tradeoff, &cfg, None, &mut first);
            assert_eq!(part1.interrupted, stop_after < cfg.generations);
            let state = first.states.last().unwrap().clone();
            assert_eq!(state.generation, stop_after);

            let part2 = optimize_resumable(&Tradeoff, &cfg, Some(state), &mut Unobserved);
            assert!(!part2.interrupted);
            let xs: Vec<u8> = part2.archive.iter().map(|i| i.genotype).collect();
            assert_eq!(xs, ref_xs, "stop at {stop_after} diverged");
            assert_eq!(part2.history, reference.history);
            assert_eq!(part2.evaluations, reference.evaluations);
            for (a, b) in part2.front.iter().zip(&reference.front) {
                assert_eq!(a.genotype, b.genotype);
                assert_eq!(a.eval, b.eval);
            }
        }
    }

    #[test]
    fn interrupted_result_reflects_the_last_completed_generation() {
        let cfg = GaConfig {
            population: 10,
            generations: 20,
            seed: 5,
            ..Default::default()
        };
        let mut obs = StopAt {
            stop_after: 3,
            states: Vec::new(),
        };
        let r = optimize_resumable(&Constrained, &cfg, None, &mut obs);
        assert!(r.interrupted);
        assert_eq!(r.history.len(), 4, "generations 0..=3");
        assert_eq!(r.evaluations, 10 + 10 * 3);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn driver_routes_evaluation_through_the_batch_hook() {
        /// Counts batch calls and serves evaluations itself, proving the
        /// driver never falls back to per-genotype evaluation.
        struct Batched(AtomicUsize);
        impl Problem for Batched {
            type Genotype = u8;
            fn random(&self, rng: &mut dyn RngCore) -> u8 {
                (rng.next_u32() % 11) as u8
            }
            fn crossover(&self, a: &u8, _: &u8, _: &mut dyn RngCore) -> u8 {
                *a
            }
            fn mutate(&self, _: &mut u8, _: &mut dyn RngCore) {}
            fn evaluate(&self, _: &u8) -> Evaluation {
                panic!("the driver must call evaluate_batch, not evaluate");
            }
            fn evaluate_batch(&self, genotypes: &[u8], _threads: usize) -> Vec<Evaluation> {
                self.0.fetch_add(1, Ordering::Relaxed);
                genotypes
                    .iter()
                    .map(|g| Evaluation::feasible(vec![*g as f64]))
                    .collect()
            }
            fn num_objectives(&self) -> usize {
                1
            }
        }
        let p = Batched(AtomicUsize::new(0));
        let r = optimize(
            &p,
            &GaConfig {
                population: 6,
                generations: 4,
                ..Default::default()
            },
        );
        // One batch for the initial population + one per generation.
        assert_eq!(p.0.load(Ordering::Relaxed), 5);
        assert_eq!(r.evaluations, 6 + 6 * 4);
    }
}
