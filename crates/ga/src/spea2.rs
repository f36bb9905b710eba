//! SPEA-II environmental selection (Zitzler, Laumanns, Thiele 2001), the
//! population selector used by the paper's DSE (§4, [19]).
//!
//! A selection works on *classes*: the groups of pool members whose
//! [`Evaluation`]s are bit-identical. A GA pool holds many copies of few
//! evaluations: at population 96 a 190-member pool holds about 83 classes,
//! and a truncation runs over about 147 non-dominated members in about 6.
//! Every SPEA-II quantity is a function of the class or a count weighted
//! by class sizes, so the results equal the member-level definition bit
//! for bit.
//!
//! For a pool of `n` members in `c` classes over `d` objectives, one
//! selection costs `O(n log n)` to group the members, `O(c²·d)` for the
//! class distance matrix and the dominance pass, and `O(c²)` for the k-th
//! neighbours. Truncating `m` non-dominated members costs `O(c²·log c)` to
//! build their run-length-encoded rows, then `O(m + c·r)` per removal,
//! with `c` here the non-dominated classes and `r ≤ c` runs per row.

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
    let classes = Classes::new(&evals);
    let (fitness, raw) = classes.fitness();
    let per_member = |v: &[f64]| classes.of.iter().map(|&u| v[u]).collect();
    Spea2Fitness {
        fitness: per_member(&fitness),
        raw: per_member(&raw),
    }
}

/// A pool grouped into classes of bit-identical evaluations, numbered in
/// key order, with the normalized distances between them.
struct Classes<'a> {
    /// One evaluation per class.
    evals: Vec<&'a Evaluation>,
    /// Members per class.
    count: Vec<usize>,
    /// Class of each member.
    of: Vec<usize>,
    /// Row-major `c × c` matrix of [`distance_bits`] between classes.
    dist: Vec<u64>,
}

impl<'a> Classes<'a> {
    fn new(members: &[&'a Evaluation]) -> Self {
        // Sorting member indices on the key puts each class in one run.
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_unstable_by(|&a, &b| key_order(members[a], members[b]));
        let mut of = vec![0; members.len()];
        let mut evals: Vec<&Evaluation> = Vec::new();
        let mut count: Vec<usize> = Vec::new();
        for i in order {
            if evals
                .last()
                .is_none_or(|&e| key_order(e, members[i]) != Ordering::Equal)
            {
                evals.push(members[i]);
                count.push(0);
            }
            of[i] = evals.len() - 1;
            *count.last_mut().expect("a class was pushed") += 1;
        }

        // Min-max normalization over the classes: the same value set as
        // over the members, so the same spans (a zero's sign cannot change
        // `max − min` or the flat test).
        let dims = evals.first().map_or(0, |e| e.objectives.len());
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        for e in &evals {
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
        let c = evals.len();
        let mut dist = vec![0; c * c];
        for u in 0..c {
            for v in (u + 1)..c {
                let d = distance_bits(evals[u], evals[v], &span);
                dist[u * c + v] = d;
                dist[v * c + u] = d;
            }
        }
        Classes {
            evals,
            count,
            of,
            dist,
        }
    }

    fn distance(&self, u: usize, v: usize) -> u64 {
        self.dist[u * self.count.len() + v]
    }

    /// Per-class SPEA-II fitness and raw fitness, in that order.
    fn fitness(&self) -> (Vec<f64>, Vec<f64>) {
        let (c, n) = (self.count.len(), self.of.len());
        // One constrained-dominance test per ordered pair of classes: row
        // `u` of `dominated_by` has bit `w` set when `w` dominates `u`.
        // Members of one class never dominate each other.
        let words = c.div_ceil(64);
        let mut dominated_by = vec![0u64; c * words];
        let mut strength = vec![0usize; c];
        for u in 0..c {
            for v in (u + 1)..c {
                let (winner, loser) = if constrained_dominates(self.evals[u], self.evals[v]) {
                    (u, v)
                } else if constrained_dominates(self.evals[v], self.evals[u]) {
                    (v, u)
                } else {
                    continue;
                };
                strength[winner] += self.count[loser];
                dominated_by[loser * words + winner / 64] |= 1 << (winner % 64);
            }
        }
        // Integer sums, so the order of summation cannot change a bit.
        let raw: Vec<f64> = (0..c)
            .map(|u| {
                let mut sum = 0usize;
                for (w, &word) in dominated_by[u * words..(u + 1) * words].iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let winner = w * 64 + bits.trailing_zeros() as usize;
                        sum += self.count[winner] * strength[winner];
                        bits &= bits - 1;
                    }
                }
                sum as f64
            })
            .collect();
        let k = (n as f64).sqrt().floor() as usize;
        let k = k.clamp(1, n.saturating_sub(1).max(1));
        let mut nearest = Vec::with_capacity(k + 1);
        let fitness = (0..c)
            .map(|u| raw[u] + 1.0 / (self.kth_distance(u, k, &mut nearest) + 2.0))
            .collect();
        (fitness, raw)
    }

    /// σᵏ of each member of class `u`: the `k`-th smallest of its distances
    /// to the other `n − 1` members, which are `count[u] − 1` zeros and
    /// `count[v]` copies of `d(u, v)` per other class `v`; 0 when there are
    /// fewer than `k` others.
    fn kth_distance(&self, u: usize, k: usize, nearest: &mut Vec<(u64, usize)>) -> f64 {
        if self.count[u] > k || k >= self.of.len() {
            return 0.0;
        }
        // The nearest classes seen so far as `(distance, members)`, sorted
        // and cut to the fewest that hold `k` members: the answer is always
        // among them, and a class at `far` or beyond cannot change it.
        nearest.clear();
        let (mut members, mut far) = (0, u64::MAX);
        let c = self.count.len();
        for (v, &d) in self.dist[u * c..(u + 1) * c].iter().enumerate() {
            if d >= far {
                continue;
            }
            let weight = self.count[v] - usize::from(v == u);
            nearest.insert(nearest.partition_point(|e| e.0 <= d), (d, weight));
            members += weight;
            while let Some(&(last, weight)) = nearest.last() {
                if members < k {
                    break;
                }
                far = last;
                if members - weight < k {
                    break;
                }
                members -= weight;
                nearest.pop();
            }
        }
        let mut seen = 0;
        for &(d, weight) in nearest.iter() {
            seen += weight;
            if seen >= k {
                return f64::from_bits(d);
            }
        }
        unreachable!("the other members number at least k")
    }

    /// SPEA-II truncation of `survivors` (ascending pool indices) down to
    /// `capacity`: iteratively remove the member whose sorted distance
    /// vector to the other survivors is lexicographically smallest — ties on
    /// the nearest neighbour are broken by the second-nearest and so on,
    /// which preserves the extreme points of evenly spaced fronts. On a
    /// full tie the first such member in `survivors` order goes, by
    /// `swap_remove`.
    ///
    /// Members of one class share their vector, so each live class keeps
    /// one, run-length encoded as `(distance, multiplicity)` runs with
    /// equal distances from different classes merged. A removal compares
    /// the rows run by run, scans `survivors` for the first member of a
    /// least class, and decrements one run per live class: `O(m + c·r)`
    /// for `m` survivors in `c` classes of `r` runs, against `O(m²)` for
    /// member rows.
    fn truncate(&self, survivors: &mut Vec<usize>, capacity: usize) {
        let c = self.count.len();
        let mut live = vec![0usize; c];
        for &i in survivors.iter() {
            live[self.of[i]] += 1;
        }
        let mut alive: Vec<usize> = (0..c).filter(|&u| live[u] > 0).collect();
        let mut rows: Vec<Vec<(u64, usize)>> = vec![Vec::new(); c];
        for &u in &alive {
            let row = &mut rows[u];
            // A member is not its own neighbour.
            row.extend(
                alive
                    .iter()
                    .map(|&v| (self.distance(u, v), live[v] - usize::from(v == u))),
            );
            row.sort_unstable();
            row.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
            row.retain(|r| r.1 > 0);
        }
        let mut minimal = vec![false; c];
        loop {
            let mut least = alive[0];
            for &u in &alive[1..] {
                if runs_order(&rows[u], &rows[least]) == Ordering::Less {
                    least = u;
                }
            }
            for &u in &alive {
                minimal[u] = runs_order(&rows[u], &rows[least]) == Ordering::Equal;
            }
            let worst = survivors
                .iter()
                .position(|&i| minimal[self.of[i]])
                .expect("the least class has a survivor");
            let removed = self.of[survivors.swap_remove(worst)];
            if survivors.len() <= capacity {
                return;
            }
            live[removed] -= 1;
            if live[removed] == 0 {
                alive.retain(|&u| u != removed);
            }
            for &u in &alive {
                let d = self.distance(u, removed);
                let row = &mut rows[u];
                let at = row.partition_point(|r| r.0 < d);
                debug_assert_eq!(row.get(at).map(|r| r.0), Some(d), "removed distance in row");
                row[at].1 -= 1;
                if row[at].1 == 0 {
                    row.remove(at);
                }
            }
        }
    }
}

/// The class key: feasibility, then the bit patterns of the penalty and of
/// the objectives.
fn key_order(a: &Evaluation, b: &Evaluation) -> Ordering {
    a.feasible
        .cmp(&b.feasible)
        .then(a.penalty.to_bits().cmp(&b.penalty.to_bits()))
        .then_with(|| {
            let bits = |x: &f64| x.to_bits();
            a.objectives
                .iter()
                .map(bits)
                .cmp(b.objectives.iter().map(bits))
        })
}

/// The normalized Euclidean distance between two evaluations, as the bits
/// of a non-negative finite `f64`, whose order they share. Symmetric bit
/// for bit: `a − b` and `b − a` differ only in sign, which squaring drops.
/// Adding `+0.0` turns the `-0.0` of a zero-objective sum into `+0.0`, so
/// equal distances have equal bits.
fn distance_bits(a: &Evaluation, b: &Evaluation, span: &[f64]) -> u64 {
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
    (d2.sqrt() + 0.0).to_bits()
}

/// Lexicographic order of the sorted sequences two run-length rows encode.
fn runs_order(a: &[(u64, usize)], b: &[(u64, usize)]) -> Ordering {
    let (mut a, mut b) = (a.iter().copied(), b.iter().copied());
    let (mut x, mut y) = (a.next(), b.next());
    loop {
        match (x, y) {
            (Some((dx, nx)), Some((dy, ny))) => {
                if dx != dy {
                    return dx.cmp(&dy);
                }
                // Consume the shorter run from both sides.
                match nx.cmp(&ny) {
                    Ordering::Less => (x, y) = (a.next(), Some((dy, ny - nx))),
                    Ordering::Greater => (x, y) = (Some((dx, nx - ny)), b.next()),
                    Ordering::Equal => (x, y) = (a.next(), b.next()),
                }
            }
            (x, y) => return x.is_some().cmp(&y.is_some()),
        }
    }
}

/// SPEA-II environmental selection: picks `capacity` indices from the pooled
/// set.
///
/// Non-dominated individuals (`F < 1`) are kept; if they exceed the
/// capacity, the most crowded ones are truncated (iteratively removing the
/// individual with the smallest nearest-neighbour distance); if they fall
/// short, the best dominated individuals fill the remainder.
///
/// Fitness and truncation run over the classes of bit-identical
/// evaluations (see the module docs): `O(c²·d)` for a pool of `c` classes,
/// plus `O(m + c·r)` per truncation removal.
pub fn environmental_selection<G: Clone>(
    pool: &[Individual<G>],
    capacity: usize,
) -> Vec<Individual<G>> {
    let evals: Vec<&Evaluation> = pool.iter().map(|i| &i.eval).collect();
    let classes = Classes::new(&evals);
    let (class_fitness, _) = classes.fitness();
    let fitness = |i: usize| class_fitness[classes.of[i]];
    let mut nondominated: Vec<usize> = (0..pool.len()).filter(|&i| fitness(i) < 1.0).collect();

    if nondominated.len() > capacity {
        classes.truncate(&mut nondominated, capacity);
        return nondominated.iter().map(|&i| pool[i].clone()).collect();
    }

    // Fill with the best dominated individuals.
    let mut rest: Vec<usize> = (0..pool.len()).filter(|&i| fitness(i) >= 1.0).collect();
    rest.sort_by(|&a, &b| {
        fitness(a)
            .partial_cmp(&fitness(b))
            .expect("fitness is finite")
    });
    nondominated.extend(
        rest.into_iter()
            .take(capacity - nondominated.len().min(capacity)),
    );
    nondominated.truncate(capacity);
    nondominated.iter().map(|&i| pool[i].clone()).collect()
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

    fn ids(sel: Vec<Individual<usize>>) -> Vec<usize> {
        sel.into_iter().map(|i| i.genotype).collect()
    }

    #[test]
    fn one_duplicate_class_removes_the_first_survivor_each_round() {
        // Every row is all zeros, so each round the member at position 0
        // goes and `swap_remove` moves the last one there.
        let pool: Vec<Individual<usize>> = (0..5)
            .map(|id| Individual::new(id, Evaluation::feasible(vec![1.0, 2.0])))
            .collect();
        assert_eq!(ids(environmental_selection(&pool, 2)), vec![2, 1]);
    }

    #[test]
    fn tied_classes_lose_their_first_survivor_not_their_lowest_class() {
        // (1, 0) and (0, 1) are distinct classes with identical rows; the
        // class key puts (0, 1) first, but (1, 0) comes first in the pool.
        let q = || Evaluation::feasible(vec![1.0, 0.0]);
        let p = || Evaluation::feasible(vec![0.0, 1.0]);
        let pool = vec![Individual::new(0, q()), Individual::new(1, p())];
        assert_eq!(ids(environmental_selection(&pool, 1)), vec![1]);

        // Both rows are [0, √2, √2]: member 0 goes and member 3 takes its
        // place. Then (1, 0) has one member left, so (0, 1)'s row
        // [0, √2] is the smaller and its first survivor, member 1, goes.
        let pool = vec![
            Individual::new(0, q()),
            Individual::new(1, p()),
            Individual::new(2, p()),
            Individual::new(3, q()),
        ];
        assert_eq!(ids(environmental_selection(&pool, 2)), vec![3, 2]);
    }

    #[test]
    fn distances_without_objectives_tie_with_own_class_zeros() {
        // With no objectives every distance is an empty sum, `-0.0`, and
        // penalties `0.0` and `-0.0` make two classes neither dominates.
        // All rows are zeros, so the first survivor goes each round.
        let at = |penalty: f64| Evaluation::infeasible(Vec::new(), penalty);
        let pool = vec![
            Individual::new(0, at(-0.0)),
            Individual::new(1, at(0.0)),
            Individual::new(2, at(0.0)),
        ];
        assert_eq!(ids(environmental_selection(&pool, 1)), vec![1]);
    }

    #[test]
    fn empty_pool_is_fine() {
        let fit = spea2_fitness(&[]);
        assert!(fit.fitness.is_empty());
        let sel: Vec<Individual<usize>> = environmental_selection(&[], 5);
        assert!(sel.is_empty());
    }
}
