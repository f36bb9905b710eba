//! The optimization-problem abstraction.

use rand::RngCore;

/// The outcome of evaluating one candidate solution.
///
/// All objectives are **minimized**; maximization objectives must be negated
/// by the problem. Infeasible candidates carry a `penalty` (> 0) used for
/// constrained dominance: any feasible candidate beats any infeasible one,
/// and among infeasible candidates the smaller penalty wins.
///
/// # Examples
///
/// ```
/// use mcmap_ga::Evaluation;
/// let ok = Evaluation::feasible(vec![1.0, 2.0]);
/// let bad = Evaluation::infeasible(vec![0.0, 0.0], 3.5);
/// assert!(ok.feasible);
/// assert_eq!(bad.penalty, 3.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Objective values, all minimized.
    pub objectives: Vec<f64>,
    /// Whether every constraint is satisfied.
    pub feasible: bool,
    /// Constraint-violation magnitude (0 for feasible candidates).
    pub penalty: f64,
}

impl Evaluation {
    /// A feasible evaluation.
    pub fn feasible(objectives: Vec<f64>) -> Self {
        Evaluation {
            objectives,
            feasible: true,
            penalty: 0.0,
        }
    }

    /// An infeasible evaluation with the given violation magnitude.
    pub fn infeasible(objectives: Vec<f64>, penalty: f64) -> Self {
        Evaluation {
            objectives,
            feasible: false,
            penalty,
        }
    }
}

/// A multi-objective optimization problem over an arbitrary genotype.
///
/// The framework owns the population mechanics (selection, archives,
/// elitism); the problem supplies genotype construction, variation
/// operators, and evaluation. Evaluation must be a pure function of the
/// genotype (`&self`) so that the driver may evaluate candidates in
/// parallel — use interior mutability with atomics for statistics.
pub trait Problem: Sync {
    /// The genotype this problem optimizes.
    type Genotype: Clone + Send + Sync;

    /// Samples a random genotype.
    fn random(&self, rng: &mut dyn RngCore) -> Self::Genotype;

    /// Recombines two parents into one offspring.
    fn crossover(
        &self,
        a: &Self::Genotype,
        b: &Self::Genotype,
        rng: &mut dyn RngCore,
    ) -> Self::Genotype;

    /// Mutates a genotype in place.
    fn mutate(&self, g: &mut Self::Genotype, rng: &mut dyn RngCore);

    /// Evaluates a genotype.
    fn evaluate(&self, g: &Self::Genotype) -> Evaluation;

    /// Evaluates a whole population, returning one [`Evaluation`] per
    /// genotype **in input order**.
    ///
    /// This is the driver's batch hook: [`optimize`](crate::optimize) calls
    /// it once per generation with the configured thread count, so problems
    /// can plug in their own evaluation engine (memoization, a parallel
    /// map — see `mcmap-eval`). Because evaluation is required to be a
    /// pure function of the genotype, any override must keep the result
    /// independent of `threads`. The default implementation evaluates the
    /// batch sequentially on the calling thread and ignores `threads`.
    fn evaluate_batch(&self, genotypes: &[Self::Genotype], _threads: usize) -> Vec<Evaluation> {
        genotypes.iter().map(|g| self.evaluate(g)).collect()
    }

    /// Evaluates a whole population with a *designated parent* per genotype
    /// — the archive member the child was derived from by variation (the
    /// first tournament pick), or `None` for de-novo candidates.
    ///
    /// The parent is a **hint, never an input**: results must be bit-equal
    /// to [`Problem::evaluate_batch`] on the same genotypes for every
    /// parent vector, including all-`None`. A problem with an incremental
    /// fast path may override this to reuse work already computed for the
    /// parent; the default implementation ignores the hint and delegates.
    ///
    /// `parents.len()` must equal `genotypes.len()`.
    fn evaluate_batch_with_parents(
        &self,
        genotypes: &[Self::Genotype],
        parents: &[Option<&Self::Genotype>],
        threads: usize,
    ) -> Vec<Evaluation> {
        debug_assert_eq!(genotypes.len(), parents.len());
        let _ = parents;
        self.evaluate_batch(genotypes, threads)
    }

    /// Number of objective dimensions produced by [`Problem::evaluate`].
    fn num_objectives(&self) -> usize;
}

/// A genotype together with its evaluation.
#[derive(Debug, Clone)]
pub struct Individual<G> {
    /// The candidate solution.
    pub genotype: G,
    /// Its evaluation.
    pub eval: Evaluation,
}

impl<G> Individual<G> {
    /// Pairs a genotype with its evaluation.
    pub fn new(genotype: G, eval: Evaluation) -> Self {
        Individual { genotype, eval }
    }
}

/// Constrained Pareto dominance (Deb): feasible beats infeasible; two
/// infeasible candidates compare by penalty; two feasible candidates compare
/// by Pareto dominance over the objective vector.
///
/// Returns `true` when `a` dominates `b`.
///
/// # Examples
///
/// ```
/// use mcmap_ga::{constrained_dominates, Evaluation};
/// let a = Evaluation::feasible(vec![1.0, 1.0]);
/// let b = Evaluation::feasible(vec![2.0, 1.0]);
/// assert!(constrained_dominates(&a, &b));
/// assert!(!constrained_dominates(&b, &a));
/// ```
pub fn constrained_dominates(a: &Evaluation, b: &Evaluation) -> bool {
    match (a.feasible, b.feasible) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => a.penalty < b.penalty,
        (true, true) => dominates(&a.objectives, &b.objectives),
    }
}

/// Plain Pareto dominance over minimized objective vectors: `a` is no worse
/// in every dimension and strictly better in at least one.
///
/// # Panics
///
/// Panics (in debug builds) if the vectors have different lengths.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Extracts the non-dominated subset (the Pareto front) of a set of
/// individuals under constrained dominance. Duplicates (equal objective
/// vectors) are all kept.
pub fn pareto_front<G: Clone>(individuals: &[Individual<G>]) -> Vec<Individual<G>> {
    individuals
        .iter()
        .filter(|a| {
            !individuals
                .iter()
                .any(|b| constrained_dominates(&b.eval, &a.eval))
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal: no strict gain
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // incomparable
        assert!(!dominates(&[2.0, 2.0], &[1.0, 1.0]));
    }

    #[test]
    fn constrained_dominance_prefers_feasible() {
        let f = Evaluation::feasible(vec![100.0]);
        let i = Evaluation::infeasible(vec![0.0], 1.0);
        assert!(constrained_dominates(&f, &i));
        assert!(!constrained_dominates(&i, &f));
    }

    #[test]
    fn infeasible_compare_by_penalty() {
        let a = Evaluation::infeasible(vec![0.0], 1.0);
        let b = Evaluation::infeasible(vec![0.0], 2.0);
        assert!(constrained_dominates(&a, &b));
        assert!(!constrained_dominates(&b, &a));
        assert!(!constrained_dominates(&a, &a));
    }

    #[test]
    fn pareto_front_extraction() {
        let inds: Vec<Individual<u32>> = vec![
            Individual::new(0, Evaluation::feasible(vec![1.0, 4.0])),
            Individual::new(1, Evaluation::feasible(vec![2.0, 2.0])),
            Individual::new(2, Evaluation::feasible(vec![4.0, 1.0])),
            Individual::new(3, Evaluation::feasible(vec![3.0, 3.0])), // dominated by 1
            Individual::new(4, Evaluation::infeasible(vec![0.0, 0.0], 1.0)),
        ];
        let front = pareto_front(&inds);
        let ids: Vec<u32> = front.iter().map(|i| i.genotype).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn pareto_front_of_infeasible_only_keeps_least_violating() {
        let inds: Vec<Individual<u32>> = vec![
            Individual::new(0, Evaluation::infeasible(vec![0.0], 5.0)),
            Individual::new(1, Evaluation::infeasible(vec![0.0], 2.0)),
        ];
        let front = pareto_front(&inds);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].genotype, 1);
    }
}
