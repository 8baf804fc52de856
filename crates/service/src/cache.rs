//! Content-addressed LRU cache of compilation results.
//!
//! Keyed by [`CacheKey`] — the stable circuit content hash plus the
//! (machine, config) fingerprint — so a hit is only possible when the
//! compilation would be bit-identical anyway (the whole pipeline is
//! deterministic per seed). Values are the canonical encoded result
//! payloads, served verbatim on repeat submissions without recompiling.
//!
//! The budget is **bytes of payload**, not entry count — a 4096-site
//! schedule and a 9-qubit toy differ by orders of magnitude in size, and
//! charging each one slot would let a handful of giants blow the memory
//! envelope while thousands of small results were evicted to make room.
//! Each entry is charged `payload.len()` (at least 1); an entry larger
//! than the whole budget warns once per process and is not cached (the
//! same discipline as the layout-cache family in `parallax-core`).
//!
//! Eviction is least-recently-used, on the shared size-aware LRU
//! ([`parallax_core::layout_cache::Lru`]): `get`, `insert` and eviction are all O(1)
//! (plus hashing), so the cache stays off the serving hot path's critical
//! cost.

use parallax_core::layout_cache::{Lru, Oversized};

/// Content address of one compilation: (circuit, machine+config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stable hash of the canonical QASM of the compiled circuit
    /// ([`crate::protocol::circuit_content_hash`]).
    pub circuit: u64,
    /// `ParallaxCompiler::fingerprint()` — machine and every config knob.
    pub compiler: u64,
}

/// Bounded LRU map from [`CacheKey`] to encoded result payloads, budgeted
/// in payload bytes.
pub type ResultCache = Lru<CacheKey, String>;

/// Cache `payload` under `key`, charged its length in bytes. A payload
/// outweighing the whole budget warns once per process and is not cached
/// (a refresh that outgrows the budget removes the stale entry rather
/// than keep serving it).
pub(crate) fn insert_result(cache: &mut ResultCache, key: CacheKey, payload: String) {
    let weight = payload.len();
    if let Err(Oversized { weight, capacity }) = cache.insert(key, payload, weight) {
        static OVERSIZED: std::sync::Once = std::sync::Once::new();
        OVERSIZED.call_once(|| {
            eprintln!(
                "warning: a {weight}-byte result payload exceeds the whole result-cache \
                 budget ({capacity} bytes) and will not be cached; raise the service \
                 cache capacity to at least the largest expected payload"
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey { circuit: n, compiler: 1 }
    }

    #[test]
    fn payloads_are_charged_their_bytes() {
        let mut c = ResultCache::new(8);
        insert_result(&mut c, key(1), "abc".into());
        insert_result(&mut c, key(2), String::new());
        assert_eq!(c.get(&key(1)).map(String::as_str), Some("abc"));
        assert_eq!((c.stats().len, c.stats().weight), (2, 3 + 1), "an empty payload costs 1");
        insert_result(&mut c, key(1), "way too large".into()); // outweighs the budget
        assert_eq!(c.get(&key(1)), None, "stale small value must not survive");
        let s = c.stats();
        assert_eq!((s.len, s.weight, s.evictions), (1, 1, 0));
    }

    #[test]
    fn distinct_compiler_fingerprints_do_not_collide() {
        let mut c = ResultCache::new(64);
        insert_result(&mut c, CacheKey { circuit: 1, compiler: 1 }, "m1".into());
        insert_result(&mut c, CacheKey { circuit: 1, compiler: 2 }, "m2".into());
        assert_eq!(c.get(&CacheKey { circuit: 1, compiler: 1 }).map(String::as_str), Some("m1"));
        assert_eq!(c.get(&CacheKey { circuit: 1, compiler: 2 }).map(String::as_str), Some("m2"));
    }
}
