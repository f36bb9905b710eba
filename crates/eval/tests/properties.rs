//! Property-based tests of the evaluation engine's core guarantees:
//! thread-count invariance and cache transparency.

use mcmap_eval::{parallel_map, EvalCacheConfig, EvalEngine};
use proptest::prelude::*;

/// A fault-free batch of [`expensive`] evaluations, unwrapped.
fn batch(e: &EvalEngine<(u64, bool)>, items: &[u64], threads: usize) -> Vec<(u64, bool)> {
    e.evaluate_batch(items, threads, 0, |_| {}, |g, _| expensive(g))
        .into_iter()
        .map(|r| r.expect("fault-free"))
        .collect()
}

/// A deliberately collision-heavy "evaluation": maps many genomes to the
/// same value so the cache sees real hit traffic.
fn expensive(g: &u64) -> (u64, bool) {
    let mut acc = *g;
    for _ in 0..50 {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    (acc, acc.is_multiple_of(3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_map_matches_serial_map(
        items in proptest::collection::vec(any::<u64>(), 0..80),
        threads in 1usize..9,
    ) {
        let serial: Vec<(u64, bool)> = items.iter().map(expensive).collect();
        prop_assert_eq!(parallel_map(&items, threads, expensive), serial);
    }

    #[test]
    fn cache_on_and_cache_off_agree(
        items in proptest::collection::vec(0u64..32, 1..120),
        threads in 1usize..5,
        capacity in 0usize..64,
    ) {
        let cached: EvalEngine<(u64, bool)> =
            EvalEngine::new(EvalCacheConfig::with_capacity(capacity), &"prop");
        let bare: EvalEngine<(u64, bool)> =
            EvalEngine::new(EvalCacheConfig::disabled(), &"prop");
        let a = batch(&cached, &items, threads);
        let b = batch(&bare, &items, 1);
        prop_assert_eq!(a, b);
        // Both engines account every submitted genome exactly once.
        prop_assert_eq!(cached.stats().genomes, items.len() as u64);
        prop_assert_eq!(bare.stats().genomes, items.len() as u64);
        prop_assert_eq!(bare.stats().cache_misses, items.len() as u64);
    }

    #[test]
    fn repeated_batches_are_idempotent(
        items in proptest::collection::vec(0u64..16, 1..60),
    ) {
        let e: EvalEngine<(u64, bool)> =
            EvalEngine::new(EvalCacheConfig::default(), &"prop-idem");
        let first = batch(&e, &items, 2);
        let second = batch(&e, &items, 4);
        prop_assert_eq!(first, second);
        // The second pass is answered entirely from the cache.
        let s = e.stats();
        prop_assert!(s.cache_hits >= items.len() as u64);
    }
}
