//! Differential test of the SPEA-II selector against a test-only
//! transcription of the code it replaced: two dominance passes, a distance
//! matrix rebuilt for the truncation, a fully sorted row per k-th
//! neighbour, and every survivor's row rebuilt and re-sorted on every
//! truncation removal.

use crate::{constrained_dominates, environmental_selection, spea2_fitness};
use crate::{Evaluation, Individual, Spea2Fitness};
use proptest::prelude::*;

/// `spea2_fitness` as it was.
fn spea2_fitness_full(evals: &[Evaluation]) -> Spea2Fitness {
    let n = evals.len();
    if n == 0 {
        return Spea2Fitness {
            fitness: Vec::new(),
            raw: Vec::new(),
        };
    }
    let mut strength = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && constrained_dominates(&evals[i], &evals[j]) {
                strength[i] += 1;
            }
        }
    }
    let mut raw = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && constrained_dominates(&evals[j], &evals[i]) {
                raw[i] += strength[j] as f64;
            }
        }
    }
    let dist = normalized_distances_full(evals);
    let k = (n as f64).sqrt().floor() as usize;
    let k = k.clamp(1, n.saturating_sub(1).max(1));
    let mut fitness = vec![0.0f64; n];
    for i in 0..n {
        let mut row: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| dist[i][j]).collect();
        row.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
        let sigma = row.get(k - 1).copied().unwrap_or(0.0);
        fitness[i] = raw[i] + 1.0 / (sigma + 2.0);
    }
    Spea2Fitness { fitness, raw }
}

fn normalized_distances_full(evals: &[Evaluation]) -> Vec<Vec<f64>> {
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
    let mut dist = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d2: f64 = (0..dims)
                .map(|d| {
                    let x = (evals[i].objectives[d] - evals[j].objectives[d]) / span[d];
                    x * x
                })
                .sum();
            let d = d2.sqrt();
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    dist
}

/// `environmental_selection` as it was.
fn environmental_selection_full<G: Clone>(
    pool: &[Individual<G>],
    capacity: usize,
) -> Vec<Individual<G>> {
    let evals: Vec<Evaluation> = pool.iter().map(|i| i.eval.clone()).collect();
    let fit = spea2_fitness_full(&evals);
    let mut nondominated: Vec<usize> = (0..pool.len()).filter(|&i| fit.fitness[i] < 1.0).collect();

    if nondominated.len() > capacity {
        let dist = normalized_distances_full(&evals);
        while nondominated.len() > capacity {
            let mut worst = 0usize;
            let mut worst_key: Option<Vec<f64>> = None;
            for (pos, &i) in nondominated.iter().enumerate() {
                let mut row: Vec<f64> = nondominated
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| dist[i][j])
                    .collect();
                row.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
                let smaller = match &worst_key {
                    None => true,
                    Some(best) => row
                        .iter()
                        .zip(best.iter())
                        .find_map(|(a, b)| {
                            if a < b {
                                Some(true)
                            } else if a > b {
                                Some(false)
                            } else {
                                None
                            }
                        })
                        .unwrap_or(false),
                };
                if smaller {
                    worst_key = Some(row);
                    worst = pos;
                }
            }
            nondominated.swap_remove(worst);
        }
        return nondominated.iter().map(|&i| pool[i].clone()).collect();
    }

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

/// Largest pool drawn.
const MAX_POOL: usize = 70;

/// A pool whose objectives sit on a coarse grid (`⌊u·g⌋`), so duplicate
/// vectors and distance ties are common, with 1–3 objectives, about 20 %
/// infeasible members sharing three penalty levels, and a capacity from 0
/// to the pool size plus 2.
fn pool_and_capacity() -> impl Strategy<Value = (Vec<Individual<usize>>, usize)> {
    (
        1usize..=3,
        prop::sample::select(vec![2.0f64, 3.0, 5.0, 9.0, 40.0, 1000.0]),
        1usize..=MAX_POOL,
        0usize..=MAX_POOL + 2,
        // Per member: three unit draws, a feasibility draw (1 in 5
        // infeasible) and a penalty level.
        prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0u8..5, 1u8..=3),
            MAX_POOL,
        ),
    )
        .prop_map(|(dims, grid, n, capacity, members)| {
            let pool = members
                .into_iter()
                .take(n)
                .enumerate()
                .map(|(id, (u0, u1, u2, feasible, level))| {
                    let objectives = [u0, u1, u2][..dims]
                        .iter()
                        .map(|u| (u * grid).floor())
                        .collect();
                    let eval = if feasible == 0 {
                        Evaluation::infeasible(objectives, f64::from(level))
                    } else {
                        Evaluation::feasible(objectives)
                    };
                    Individual::new(id, eval)
                })
                .collect();
            (pool, capacity % (n + 3))
        })
}

/// Largest pool of the duplicate-heavy shape.
const DUP_POOL: usize = 200;
/// Duplicate-heavy cases run. The full rebuild costs `O(m³ log m)` per
/// case at these sizes: 24 cases take about 4 s in a debug build.
const CASES: u32 = 24;

/// The shape of a GA pool at the paper's population: 150–200 members over
/// 2–8 objective vectors with 2 or 3 objectives. The vectors sit on the
/// integer front `x + y = 6`, so two of them are often equidistant from a
/// third and rows of different classes tie; one in four is lifted off the
/// front, so it is dominated. Each vector draws the sign of its zeros, so
/// `0.0`/`-0.0` pairs are distinct classes at distance 0. One member in
/// six is infeasible at one of two shared penalty levels, and the capacity
/// is within 10 of half the pool.
fn duplicate_heavy_pool() -> impl Strategy<Value = (Vec<Individual<usize>>, usize)> {
    (
        2usize..=3,
        150usize..=DUP_POOL,
        0usize..=20,
        2usize..=8,
        // Per vector: position on the front, third objective, lift draw
        // and zero sign.
        prop::collection::vec((0u8..=6, 0u8..=1, 0u8..4, any::<bool>()), 8),
        // Per member: vector, feasibility draw and penalty level.
        prop::collection::vec((0usize..8, 0u8..6, 1u8..=2), DUP_POOL),
    )
        .prop_map(|(dims, n, offset, distinct, vectors, members)| {
            let vectors: Vec<Vec<f64>> = vectors
                .into_iter()
                .take(distinct)
                .map(|(x, z, lift, negative)| {
                    let lift = f64::from(u8::from(lift == 0));
                    let zero = if negative { -0.0 } else { 0.0 };
                    [f64::from(x) + lift, f64::from(6 - x) + lift, f64::from(z)][..dims]
                        .iter()
                        .map(|&v| if v == 0.0 { zero } else { v })
                        .collect()
                })
                .collect();
            let pool = members
                .into_iter()
                .take(n)
                .enumerate()
                .map(|(id, (pick, feasible, level))| {
                    let objectives = vectors[pick % distinct].clone();
                    let eval = if feasible == 0 {
                        Evaluation::infeasible(objectives, f64::from(level))
                    } else {
                        Evaluation::feasible(objectives)
                    };
                    Individual::new(id, eval)
                })
                .collect();
            (pool, n / 2 + offset - 10)
        })
}

/// Bit-equal fitness and raw fitness, and the same selected ids, as the
/// full rebuild.
fn assert_matches_full(pool: &[Individual<usize>], capacity: usize) -> Result<(), TestCaseError> {
    let evals: Vec<Evaluation> = pool.iter().map(|i| i.eval.clone()).collect();
    let (fast, full) = (spea2_fitness(&evals), spea2_fitness_full(&evals));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&fast.fitness), bits(&full.fitness));
    prop_assert_eq!(bits(&fast.raw), bits(&full.raw));

    let ids = |s: Vec<Individual<usize>>| s.into_iter().map(|i| i.genotype).collect::<Vec<_>>();
    prop_assert_eq!(
        ids(environmental_selection(pool, capacity)),
        ids(environmental_selection_full(pool, capacity))
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn selection_matches_the_full_rebuild((pool, capacity) in pool_and_capacity()) {
        assert_matches_full(&pool, capacity)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn duplicate_heavy_selection_matches_the_full_rebuild(
        (pool, capacity) in duplicate_heavy_pool()
    ) {
        assert_matches_full(&pool, capacity)?;
    }
}
