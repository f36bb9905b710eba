//! The sharded, capacity-bounded memoization cache.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Lifetime traffic counters of one [`ShardedCache`].
///
/// Unlike the per-engine [`EvalStats`](crate::EvalStats), these accumulate
/// over every client of the cache — when several engines share one cache
/// (the server's cross-job store), this is the global view: how many
/// lookups any tenant resolved from work another tenant already did, and
/// how much the bounded capacity churned. Timing-free and monotone; purely
/// observational (never part of any determinism contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident across all shards.
    pub entries: u64,
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values inserted (including refreshes of an existing key).
    pub insertions: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shard count of every engine-built cache: enough independently locked
/// segments that parallel workers rarely contend on one lock.
pub const CACHE_SHARDS: usize = 16;

/// A concurrent map from 128-bit content keys to cached evaluations.
///
/// The key space is split across `shards` independently locked segments
/// (selected by the key's high bits, which the [engine](crate::EvalEngine)
/// derives from a different hash stream than the low bits), so parallel
/// workers rarely contend on the same lock. Each shard holds at most
/// `⌈capacity / shards⌉` entries and evicts in FIFO order — no recency
/// bookkeeping on the read path, which keeps hits lock-short and cheap.
///
/// Correctness never depends on cache *contents*: evaluation is a pure
/// function, so a hit returns exactly what re-evaluation would. Eviction
/// and sharding therefore only shape the hit *rate*, never the results.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

struct Shard<V> {
    map: HashMap<u128, V>,
    order: VecDeque<u128>,
}

impl<V: Clone> ShardedCache<V> {
    /// Builds a cache bounded to roughly `capacity` entries across `shards`
    /// segments (both forced to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let cap_per_shard = capacity.max(1).div_ceil(shards);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            cap_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        &self.shards[((key >> 64) as usize) % self.shards.len()]
    }

    /// Returns a clone of the cached value, if present.
    pub fn get(&self, key: u128) -> Option<V> {
        let shard = self.shard(key).lock().expect("cache shard poisoned");
        let hit = shard.map.get(&key).cloned();
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Inserts (or refreshes) a value and returns how many entries were
    /// evicted to respect the shard capacity.
    pub fn insert(&self, key: u128, value: V) -> usize {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if shard.map.insert(key, value).is_none() {
            shard.order.push_back(key);
        }
        let mut evicted = 0;
        while shard.map.len() > self.cap_per_shard {
            let Some(victim) = shard.order.pop_front() else {
                break;
            };
            if shard.map.remove(&victim).is_some() {
                evicted += 1;
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Total number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime traffic counters, aggregated over every client of this
    /// cache instance.
    pub fn global_stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl<V> std::fmt::Debug for ShardedCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("cap_per_shard", &self.cap_per_shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_returns_what_insert_stored() {
        let c: ShardedCache<String> = ShardedCache::new(64, 4);
        assert_eq!(c.get(42), None);
        assert_eq!(c.insert(42, "v".into()), 0);
        assert_eq!(c.get(42), Some("v".into()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_is_respected_per_shard() {
        // One shard, capacity 4: inserting 10 keys keeps only the last 4.
        let c: ShardedCache<u32> = ShardedCache::new(4, 1);
        let mut evicted = 0;
        for k in 0..10u128 {
            evicted += c.insert(k, k as u32);
        }
        assert_eq!(evicted, 6);
        assert_eq!(c.len(), 4);
        for k in 0..6u128 {
            assert_eq!(c.get(k), None, "oldest entries evicted first");
        }
        for k in 6..10u128 {
            assert_eq!(c.get(k), Some(k as u32));
        }
    }

    #[test]
    fn refreshing_a_key_does_not_grow_the_cache() {
        let c: ShardedCache<u8> = ShardedCache::new(8, 1);
        for _ in 0..20 {
            c.insert(1, 7);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1), Some(7));
    }

    #[test]
    fn global_stats_accumulate_across_clients() {
        let c: ShardedCache<u8> = ShardedCache::new(2, 1);
        assert_eq!(c.global_stats(), CacheStats::default());
        assert_eq!(c.get(1), None);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30); // evicts key 1
        assert_eq!(c.get(2), Some(20));
        assert_eq!(c.get(1), None);
        let s = c.global_stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.insertions, 3);
        assert_eq!(s.evictions, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn keys_spread_over_shards_by_high_bits() {
        let c: ShardedCache<u8> = ShardedCache::new(1024, 8);
        for hi in 0..8u128 {
            c.insert(hi << 64, 0);
        }
        // All eight land in distinct shards, so none evict each other even
        // with a tiny total... and the total is visible.
        assert_eq!(c.len(), 8);
        assert!(!c.is_empty());
    }
}
