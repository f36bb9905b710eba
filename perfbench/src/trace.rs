//! Outside-in tracing: wrappers that time the benchmark's calls into the
//! library's public layers without adding anything inside the program.
//!
//! * [`TracedProblem`] delegates every [`Problem`] method to a
//!   [`MappingProblem`] (so the genome-delta batch path is kept) and times
//!   variation and batch evaluation.
//! * [`GenClock`] timestamps every generation boundary.
//! * [`TimingBackend`] wraps a [`SchedBackend`] and times both `analyze`
//!   and `analyze_from` (so warm starts are kept).

use mcmap_core::{Genome, MappingProblem};
use mcmap_ga::{Evaluation, GenerationObserver, GenerationSnapshot, LoopControl, Problem};
use mcmap_model::ExecBounds;
use mcmap_sched::{SchedBackend, TaskWindows};
use rand::RngCore;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn add_since(counter: &AtomicU64, start: Instant) {
    counter.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// A timing [`Problem`] around a [`MappingProblem`].
#[derive(Debug)]
pub struct TracedProblem<'p, 'a> {
    inner: &'p MappingProblem<'a>,
    variation_nanos: AtomicU64,
    batch_nanos: AtomicU64,
    /// Distinct submitted genomes, in first-submission order: the
    /// candidates the memo cache could not have served.
    fresh: Mutex<(HashSet<Genome>, Vec<Genome>)>,
}

impl<'p, 'a> TracedProblem<'p, 'a> {
    pub fn new(inner: &'p MappingProblem<'a>) -> Self {
        TracedProblem {
            inner,
            variation_nanos: AtomicU64::new(0),
            batch_nanos: AtomicU64::new(0),
            fresh: Mutex::new((HashSet::new(), Vec::new())),
        }
    }

    fn note(&self, genomes: &[Genome]) {
        let mut fresh = self.fresh.lock().expect("fresh-genome log poisoned");
        let (seen, order) = &mut *fresh;
        for g in genomes {
            if seen.insert(g.clone()) {
                order.push(g.clone());
            }
        }
    }

    /// Seconds spent in `random`, `crossover` and `mutate`.
    pub fn variation_s(&self) -> f64 {
        self.variation_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Seconds spent in batch evaluation calls (caller-side wall time).
    pub fn batch_s(&self) -> f64 {
        self.batch_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The distinct genomes submitted, in first-submission order.
    pub fn into_fresh(self) -> Vec<Genome> {
        self.fresh
            .into_inner()
            .expect("fresh-genome log poisoned")
            .1
    }
}

impl Problem for TracedProblem<'_, '_> {
    type Genotype = Genome;

    fn random(&self, rng: &mut dyn RngCore) -> Genome {
        let t = Instant::now();
        let g = self.inner.random(rng);
        add_since(&self.variation_nanos, t);
        g
    }

    fn crossover(&self, a: &Genome, b: &Genome, rng: &mut dyn RngCore) -> Genome {
        let t = Instant::now();
        let g = self.inner.crossover(a, b, rng);
        add_since(&self.variation_nanos, t);
        g
    }

    fn mutate(&self, g: &mut Genome, rng: &mut dyn RngCore) {
        let t = Instant::now();
        self.inner.mutate(g, rng);
        add_since(&self.variation_nanos, t);
    }

    fn evaluate(&self, g: &Genome) -> Evaluation {
        self.note(std::slice::from_ref(g));
        let t = Instant::now();
        let e = self.inner.evaluate(g);
        add_since(&self.batch_nanos, t);
        e
    }

    fn evaluate_batch(&self, genotypes: &[Genome], threads: usize) -> Vec<Evaluation> {
        self.note(genotypes);
        let t = Instant::now();
        let e = self.inner.evaluate_batch(genotypes, threads);
        add_since(&self.batch_nanos, t);
        e
    }

    fn evaluate_batch_with_parents(
        &self,
        genotypes: &[Genome],
        parents: &[Option<&Genome>],
        threads: usize,
    ) -> Vec<Evaluation> {
        self.note(genotypes);
        let t = Instant::now();
        let e = self
            .inner
            .evaluate_batch_with_parents(genotypes, parents, threads);
        add_since(&self.batch_nanos, t);
        e
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }
}

/// Timestamps every generation boundary (generation 0 included).
#[derive(Debug, Default)]
pub struct GenClock {
    pub marks: Vec<Instant>,
}

impl GenerationObserver<Genome> for GenClock {
    fn after_generation(&mut self, _snapshot: &GenerationSnapshot<'_, Genome>) -> LoopControl {
        self.marks.push(Instant::now());
        LoopControl::Continue
    }
}

/// A [`SchedBackend`] that counts and times every fixed-point run of the
/// backend it wraps.
#[derive(Debug)]
pub struct TimingBackend<B> {
    inner: B,
    nanos: AtomicU64,
    runs: AtomicU64,
    iters: AtomicU64,
}

impl<B: SchedBackend> TimingBackend<B> {
    pub fn new(inner: B) -> Self {
        TimingBackend {
            inner,
            nanos: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            iters: AtomicU64::new(0),
        }
    }

    fn record(&self, start: Instant, w: &TaskWindows) {
        add_since(&self.nanos, start);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.iters
            .fetch_add(w.outer_iters as u64, Ordering::Relaxed);
    }

    /// `(seconds inside the backend, runs, fixed-point iterations)`.
    pub fn totals(&self) -> (f64, u64, u64) {
        (
            self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            self.runs.load(Ordering::Relaxed),
            self.iters.load(Ordering::Relaxed),
        )
    }
}

impl<B: SchedBackend> SchedBackend for TimingBackend<B> {
    fn analyze(&self, bounds: &[ExecBounds]) -> TaskWindows {
        let t = Instant::now();
        let w = self.inner.analyze(bounds);
        self.record(t, &w);
        w
    }

    fn analyze_from(&self, bounds: &[ExecBounds], seed: &TaskWindows) -> TaskWindows {
        let t = Instant::now();
        let w = self.inner.analyze_from(bounds, seed);
        self.record(t, &w);
        w
    }

    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }
}
