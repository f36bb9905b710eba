//! SPEA-II environmental selection (Zitzler, Laumanns, Thiele 2001), the
//! population selector used by the paper's DSE (§4, [19]).
//!
//! One selection over a pool of `n` computes one flat `n × n` matrix of
//! normalized objective distances and shares it between the density
//! estimate and the truncation. A generation costs `O(n²·d)` for the
//! matrix and the dominance pass (`d` objectives), `O(n²)` for the k-th
//! neighbours, `O(m² log m)` to sort the rows of the `m` non-dominated
//! members once, and `O(m²)` per truncation removal.

use crate::{constrained_dominates, Evaluation, Individual};
use std::cmp::Ordering;

/// SPEA-II fitness values for one pooled population (population ∪ archive).
///
/// Smaller is better; values `< 1` identify non-dominated individuals.
#[derive(Debug, Clone, PartialEq)]
pub struct Spea2Fitness {
    /// Final fitness `F(i) = R(i) + D(i)`.
    pub fitness: Vec<f64>,
    /// Raw dominance fitness `R(i)` (0 for non-dominated individuals).
    pub raw: Vec<f64>,
}

/// Computes SPEA-II fitness for a pooled set of evaluations.
///
/// * strength `S(i)` = number of individuals `i` dominates;
/// * raw fitness `R(i)` = Σ `S(j)` over all `j` dominating `i`;
/// * density `D(i) = 1 / (σᵢᵏ + 2)` with `σᵢᵏ` the distance to the `k`-th
///   nearest neighbour in normalized objective space, `k = ⌊√N⌋`.
pub fn spea2_fitness(evals: &[Evaluation]) -> Spea2Fitness {
    let evals: Vec<&Evaluation> = evals.iter().collect();
    fitness(&evals, &Distances::new(&evals))
}

fn fitness(evals: &[&Evaluation], dist: &Distances) -> Spea2Fitness {
    let n = evals.len();
    // One constrained-dominance test per ordered pair: row `i` of
    // `dominated_by` has bit `j` set when `j` dominates `i`.
    let words = n.div_ceil(64);
    let mut dominated_by = vec![0u64; n * words];
    let mut strength = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let (winner, loser) = if constrained_dominates(evals[i], evals[j]) {
                (i, j)
            } else if constrained_dominates(evals[j], evals[i]) {
                (j, i)
            } else {
                continue;
            };
            strength[winner] += 1;
            dominated_by[loser * words + winner / 64] |= 1 << (winner % 64);
        }
    }
    // Integer sums, so the order of summation cannot change a bit.
    let raw: Vec<f64> = (0..n)
        .map(|i| {
            let mut sum = 0usize;
            for (w, &word) in dominated_by[i * words..(i + 1) * words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    sum += strength[w * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                }
            }
            sum as f64
        })
        .collect();
    // Density from the k-th nearest neighbour, selected from a scratch row.
    let k = (n as f64).sqrt().floor() as usize;
    let k = k.clamp(1, n.saturating_sub(1).max(1));
    let mut others = Vec::with_capacity(n);
    let fitness = (0..n)
        .map(|i| {
            let row = dist.row(i);
            others.clear();
            others.extend_from_slice(&row[..i]);
            others.extend_from_slice(&row[i + 1..]);
            let sigma = if k <= others.len() {
                *others.select_nth_unstable_by(k - 1, by_distance).1
            } else {
                0.0
            };
            raw[i] + 1.0 / (sigma + 2.0)
        })
        .collect();
    Spea2Fitness { fitness, raw }
}

fn by_distance(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).expect("distances are finite")
}

/// Pairwise Euclidean distances in min-max-normalized objective space, as
/// one flat row-major `n × n` matrix.
struct Distances {
    n: usize,
    /// Per-objective normalization span (`max − min`, or 1 when flat).
    span: Vec<f64>,
    matrix: Vec<f64>,
}

impl Distances {
    fn new(evals: &[&Evaluation]) -> Self {
        let n = evals.len();
        let dims = evals.first().map_or(0, |e| e.objectives.len());
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        for e in evals {
            for (d, &v) in e.objectives.iter().enumerate() {
                lo[d] = lo[d].min(v);
                hi[d] = hi[d].max(v);
            }
        }
        let span: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| if h > l { h - l } else { 1.0 })
            .collect();
        let mut matrix = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = distance(evals[i], evals[j], &span);
                matrix[i * n + j] = d;
                matrix[j * n + i] = d;
            }
        }
        Distances { n, span, matrix }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.matrix[i * self.n..(i + 1) * self.n]
    }
}

/// The normalized distance behind every matrix entry. Symmetric bit for
/// bit: `a − b` and `b − a` differ only in sign, which squaring drops.
fn distance(a: &Evaluation, b: &Evaluation, span: &[f64]) -> f64 {
    let d2: f64 = a
        .objectives
        .iter()
        .zip(&b.objectives)
        .zip(span)
        .map(|((&x, &y), &s)| {
            let x = (x - y) / s;
            x * x
        })
        .sum();
    d2.sqrt()
}

/// SPEA-II environmental selection: picks `capacity` indices from the pooled
/// set.
///
/// Non-dominated individuals (`F < 1`) are kept; if they exceed the
/// capacity, the most crowded ones are truncated (iteratively removing the
/// individual with the smallest nearest-neighbour distance); if they fall
/// short, the best dominated individuals fill the remainder.
pub fn environmental_selection<G: Clone>(
    pool: &[Individual<G>],
    capacity: usize,
) -> Vec<Individual<G>> {
    let evals: Vec<&Evaluation> = pool.iter().map(|i| &i.eval).collect();
    let mut dist = Distances::new(&evals);
    let fit = fitness(&evals, &dist);
    let mut nondominated: Vec<usize> = (0..pool.len()).filter(|&i| fit.fitness[i] < 1.0).collect();

    if nondominated.len() > capacity {
        truncate(&evals, &mut dist, &mut nondominated, capacity);
        return nondominated.iter().map(|&i| pool[i].clone()).collect();
    }

    // Fill with the best dominated individuals.
    let mut rest: Vec<usize> = (0..pool.len()).filter(|&i| fit.fitness[i] >= 1.0).collect();
    rest.sort_by(|&a, &b| {
        fit.fitness[a]
            .partial_cmp(&fit.fitness[b])
            .expect("fitness is finite")
    });
    nondominated.extend(
        rest.into_iter()
            .take(capacity - nondominated.len().min(capacity)),
    );
    nondominated.truncate(capacity);
    nondominated.iter().map(|&i| pool[i].clone()).collect()
}

/// SPEA-II truncation of `survivors` (ascending pool indices) down to
/// `capacity`: iteratively remove the member whose sorted distance vector
/// to the other survivors is lexicographically smallest — ties on the
/// nearest neighbour are broken by the second-nearest and so on, which
/// preserves the extreme points of evenly spaced fronts. On a full tie the
/// first such member in `survivors` order goes, by `swap_remove`.
///
/// Each survivor's sorted vector is built once, in place in the prefix of
/// its own matrix row (entries the selection no longer reads). A removal
/// deletes the removed member's distance, recomputed by [`distance`], from
/// every remaining vector.
fn truncate(
    evals: &[&Evaluation],
    dist: &mut Distances,
    survivors: &mut Vec<usize>,
    capacity: usize,
) {
    debug_assert!(survivors.windows(2).all(|w| w[0] < w[1]));
    let n = dist.n;
    for &i in survivors.iter() {
        let row = &mut dist.matrix[i * n..(i + 1) * n];
        // Ascending survivors: the write position never passes the read.
        let mut len = 0;
        for &j in survivors.iter().filter(|&&j| j != i) {
            row[len] = row[j];
            len += 1;
        }
        row[..len].sort_unstable_by(by_distance);
    }
    let mut len = survivors.len() - 1;
    loop {
        let row = |i: usize| &dist.matrix[i * n..i * n + len];
        let mut worst = 0;
        for pos in 1..survivors.len() {
            if row(survivors[pos]) < row(survivors[worst]) {
                worst = pos;
            }
        }
        let removed = survivors.swap_remove(worst);
        if survivors.len() <= capacity {
            return;
        }
        for &i in survivors.iter() {
            let d = distance(evals[i], evals[removed], &dist.span);
            let row = &mut dist.matrix[i * n..i * n + len];
            let at = row.partition_point(|&x| x < d);
            debug_assert_eq!(row.get(at), Some(&d), "removed distance is in the row");
            row.copy_within(at + 1.., at);
        }
        len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluation;

    fn ind(objs: Vec<f64>) -> Individual<usize> {
        Individual::new(0, Evaluation::feasible(objs))
    }

    #[test]
    fn nondominated_have_fitness_below_one() {
        let evals = vec![
            Evaluation::feasible(vec![1.0, 4.0]),
            Evaluation::feasible(vec![4.0, 1.0]),
            Evaluation::feasible(vec![3.0, 3.0]),
            Evaluation::feasible(vec![5.0, 5.0]), // dominated by all? by (3,3) and others
        ];
        let fit = spea2_fitness(&evals);
        assert!(fit.fitness[0] < 1.0);
        assert!(fit.fitness[1] < 1.0);
        assert!(fit.fitness[2] < 1.0);
        assert!(fit.fitness[3] >= 1.0);
        assert_eq!(fit.raw[0], 0.0);
        assert!(fit.raw[3] > 0.0);
    }

    #[test]
    fn raw_fitness_accumulates_dominator_strength() {
        // Chain: a dominates b dominates c.
        let evals = vec![
            Evaluation::feasible(vec![1.0]),
            Evaluation::feasible(vec![2.0]),
            Evaluation::feasible(vec![3.0]),
        ];
        let fit = spea2_fitness(&evals);
        // S(a)=2, S(b)=1. R(c) = S(a)+S(b) = 3; R(b) = S(a) = 2.
        assert_eq!(fit.raw, vec![0.0, 2.0, 3.0]);
    }

    #[test]
    fn selection_keeps_nondominated_up_to_capacity() {
        let pool = vec![
            ind(vec![1.0, 4.0]),
            ind(vec![2.0, 2.0]),
            ind(vec![4.0, 1.0]),
            ind(vec![5.0, 5.0]),
        ];
        let sel = environmental_selection(&pool, 3);
        assert_eq!(sel.len(), 3);
        let objs: Vec<&[f64]> = sel.iter().map(|i| i.eval.objectives.as_slice()).collect();
        assert!(!objs.contains(&[5.0, 5.0].as_slice()));
    }

    #[test]
    fn selection_fills_with_best_dominated() {
        let pool = vec![
            ind(vec![1.0, 1.0]),
            ind(vec![2.0, 2.0]),
            ind(vec![9.0, 9.0]),
        ];
        let sel = environmental_selection(&pool, 2);
        assert_eq!(sel.len(), 2);
        // (1,1) non-dominated, (2,2) is the better dominated filler.
        assert!(sel.iter().any(|i| i.eval.objectives == vec![1.0, 1.0]));
        assert!(sel.iter().any(|i| i.eval.objectives == vec![2.0, 2.0]));
    }

    #[test]
    fn truncation_preserves_spread() {
        // Five points on a front; capacity 3 should keep the extremes.
        let pool = vec![
            ind(vec![0.0, 4.0]),
            ind(vec![1.0, 3.0]),
            ind(vec![2.0, 2.0]),
            ind(vec![3.0, 1.0]),
            ind(vec![4.0, 0.0]),
        ];
        let sel = environmental_selection(&pool, 3);
        assert_eq!(sel.len(), 3);
        let objs: Vec<Vec<f64>> = sel.iter().map(|i| i.eval.objectives.clone()).collect();
        assert!(objs.contains(&vec![0.0, 4.0]));
        assert!(objs.contains(&vec![4.0, 0.0]));
    }

    #[test]
    fn empty_pool_is_fine() {
        let fit = spea2_fitness(&[]);
        assert!(fit.fitness.is_empty());
        let sel: Vec<Individual<usize>> = environmental_selection(&[], 5);
        assert!(sel.is_empty());
    }
}
