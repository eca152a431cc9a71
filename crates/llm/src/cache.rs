//! Concurrent memoization for the hot retrieval/embedding paths.
//!
//! The parallel evaluation runner replays the same feedback texts,
//! questions, and routed-demo lookups across strategies, rounds, and
//! worker threads. Embedding a text and ranking a demonstration pool are
//! pure functions of their inputs, so this module memoizes them behind an
//! `RwLock`-guarded map shared across threads.
//!
//! **Determinism.** Cached values are computed by pure functions of the
//! key, so a cache hit returns bit-identical data to a recomputation; two
//! racing threads that both miss compute identical values and the first
//! insert wins. Results therefore never depend on thread count or
//! interleaving — only the hit/miss *counters* do, which is why the
//! runner reports them as volatile throughput metrics rather than as part
//! of the deterministic [`CorrectionReport`](../../fisql_core/experiment/struct.CorrectionReport.html).

use crate::embedding::Embedding;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Cumulative cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a recomputation.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter delta since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters aggregated over every [`ConcurrentCache`]
/// (embedding cache, routed-demo caches, …). Snapshot before and after a
/// run and diff with [`CacheStats::since`] to get per-run numbers.
pub fn global_stats() -> CacheStats {
    CacheStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
    }
}

/// A thread-safe memo map with hit/miss accounting.
///
/// Reads take a shared lock; only first-time computations take the write
/// lock. Values must be cheap to clone (wrap big payloads in [`Arc`]).
#[derive(Debug, Default)]
pub struct ConcurrentCache<K, V> {
    map: RwLock<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> ConcurrentCache<K, V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ConcurrentCache {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, recording a hit or miss.
    ///
    /// Poison-tolerant: cache entries are pure-function results, so a
    /// panic on another thread mid-insert cannot leave a torn value —
    /// at worst a key is missing, which is just a miss. Propagating the
    /// poison would instead cascade one worker's panic into every
    /// cache user.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let got = self
            .map
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(key)
            .cloned();
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Inserts a computed value. If another thread raced the computation
    /// the existing (identical, by purity of the compute function) value
    /// is kept.
    pub fn insert(&self, key: K, value: V) {
        self.map
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .entry(key)
            .or_insert(value);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This cache's own hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

fn embed_cache() -> &'static ConcurrentCache<String, Arc<Embedding>> {
    static CACHE: OnceLock<ConcurrentCache<String, Arc<Embedding>>> = OnceLock::new();
    CACHE.get_or_init(ConcurrentCache::new)
}

/// [`Embedding::embed`] memoized process-wide.
///
/// Questions and feedback texts recur heavily across strategies, rounds,
/// and repeated runs (every strategy re-embeds the same annotated
/// feedback set), so the embedding cache is shared by all stores and
/// pools in the process.
pub fn embed_cached(text: &str) -> Arc<Embedding> {
    let cache = embed_cache();
    if let Some(hit) = cache.get(text) {
        return hit;
    }
    let computed = Arc::new(Embedding::embed(text));
    cache.insert(text.to_string(), computed.clone());
    computed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_embedding_matches_direct_computation() {
        let direct = Embedding::embed("how many singers are there");
        let cached = embed_cached("how many singers are there");
        assert_eq!(*cached, direct);
        // Warm lookup returns the identical vector.
        let warm = embed_cached("how many singers are there");
        assert_eq!(*warm, direct);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache: ConcurrentCache<String, u64> = ConcurrentCache::new();
        assert_eq!(cache.get("a"), None);
        cache.insert("a".into(), 7);
        assert_eq!(cache.get("a"), Some(7));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn racing_inserts_keep_first_value() {
        let cache: ConcurrentCache<u32, u32> = ConcurrentCache::new();
        cache.insert(1, 10);
        cache.insert(1, 99); // late duplicate (identical in real use)
        assert_eq!(cache.get(&1), Some(10));
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let cache: Arc<ConcurrentCache<u64, u64>> = Arc::new(ConcurrentCache::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for k in 0..50u64 {
                        if cache.get(&k).is_none() {
                            cache.insert(k, k * k);
                        }
                        assert_eq!(cache.get(&k), Some(k * k));
                    }
                    t
                });
            }
        });
        assert_eq!(cache.len(), 50);
    }

    #[test]
    fn stats_since_subtracts_snapshots() {
        let before = CacheStats { hits: 3, misses: 5 };
        let after = CacheStats {
            hits: 10,
            misses: 6,
        };
        let delta = after.since(&before);
        assert_eq!(delta, CacheStats { hits: 7, misses: 1 });
    }
}
