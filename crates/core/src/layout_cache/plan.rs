//! The cross-compile **move-plan cache**: the sharded process-wide map
//! from ([`AtomArray::static_fingerprint`], [`AtomArray::aod_fingerprint`],
//! mover, target) to validated movement plans.
//!
//! The scheduler's movement planner is a pure function of the array state
//! and its `(mover, target, radius, recursion)` arguments, and under
//! home-return the effective AOD configuration repeats across *compiles*
//! of the same layout — exactly the repeat traffic a serving deployment
//! sees after a layout-cache hit. A hit is honoured only after an **exact**
//! state comparison ([`AtomArray::placed_state_matches`]), so a reused plan
//! is bit-identical to what a fresh cascade would produce — by planner
//! purity, not by trust in a 64-bit hash.
//!
//! The process-wide instance is split across [`PLAN_SHARDS`] independent
//! locks (the plan cache is probed once per *movement plan*, the hottest
//! probe rate of the cache layers); residual lock contention is counted
//! and exported. The shared `PARALLAX_LAYOUT_CACHE` budget governs this
//! layer too — see the parent module for the budget semantics.
//!
//! [`AtomArray::static_fingerprint`]: parallax_hardware::AtomArray::static_fingerprint
//! [`AtomArray::aod_fingerprint`]: parallax_hardware::AtomArray::aod_fingerprint
//! [`AtomArray::placed_state_matches`]: parallax_hardware::AtomArray::placed_state_matches

use super::{configured_capacity, CacheStats, Lru, Oversized};
use crate::movement::MovePlan;
use parallax_hardware::{AtomArray, Point, Trap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Content address of one successful movement plan: the immutable half of
/// the array state, the mobile half, and the planner's arguments. The
/// radius/recursion knobs are verified exactly on the entry rather than
/// hashed into the key — they change with the compiler config, and folding
/// them into `layout` would be redundant with that verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`AtomArray::static_fingerprint`] — machine + trap structure + SLM
    /// positions, fixed for the whole compile.
    pub layout: u64,
    /// [`AtomArray::aod_fingerprint`] — the current AOD configuration.
    pub aod_config: u64,
    /// The planned mover (AOD-trapped operand).
    pub mover: u32,
    /// The gate's stationary operand.
    pub target: u32,
}

/// One cached plan with everything its reuse is verified against.
struct PlanEntry {
    /// Complete placed-atom state the plan was computed against; reuse
    /// requires an exact match, so hash collisions degrade to misses.
    snapshot: Vec<(u32, Trap, Point)>,
    /// Interaction radius the plan was computed for (bit pattern).
    r_bits: u64,
    /// Recursion budget the plan was computed under.
    max_recursion: usize,
    plan: MovePlan,
}

/// One shard: an LRU from [`PlanKey`] to verified move plans. An entry is
/// charged one unit per snapshot position plus one per stored move, so
/// plans for big arrays displace proportionally more than plans for small
/// ones.
type PlanCache = Lru<PlanKey, PlanEntry>;

/// The recorded plan for `key`, honoured only when the entry's recorded
/// state and planner knobs match `array`/`r_um`/`max_recursion` exactly.
/// A rejected entry counts as a miss.
fn get_plan(
    cache: &mut PlanCache,
    key: &PlanKey,
    array: &AtomArray,
    r_um: f64,
    max_recursion: usize,
) -> Option<MovePlan> {
    cache
        .get_if(key, |e| {
            e.r_bits == r_um.to_bits()
                && e.max_recursion == max_recursion
                && array.placed_state_matches(&e.snapshot)
        })
        .map(|e| e.plan.clone())
}

/// Cache `plan` under `key`. `snapshot` is the complete placed-atom state
/// the plan was computed against ([`AtomArray::placed_snapshot`]), built
/// by the caller so the O(atoms) walk happens *outside* the shard lock.
/// An oversized plan warns once per process and is not cached.
///
/// [`AtomArray::placed_snapshot`]: parallax_hardware::AtomArray::placed_snapshot
fn insert_plan(
    cache: &mut PlanCache,
    key: PlanKey,
    snapshot: Vec<(u32, Trap, Point)>,
    r_um: f64,
    max_recursion: usize,
    plan: &MovePlan,
) {
    let weight = snapshot.len() + plan.moves.len();
    let entry = PlanEntry { snapshot, r_bits: r_um.to_bits(), max_recursion, plan: plan.clone() };
    if let Err(Oversized { weight, capacity }) = cache.insert(key, entry, weight) {
        static OVERSIZED: std::sync::Once = std::sync::Once::new();
        OVERSIZED.call_once(|| {
            eprintln!(
                "warning: a {weight}-position move plan exceeds the whole plan-cache \
                 budget ({capacity} position-units) and will not be cached; \
                 PARALLAX_LAYOUT_CACHE sizes the layout, plan and template caches — raise \
                 it to at least the largest circuit's qubit count"
            );
        });
    }
}

/// Number of independent locks the process-wide plan cache is split
/// across. The plan cache is the hottest of the three layers — it is
/// probed once per *movement plan* rather than once per compile — so under
/// concurrent serving traffic a single mutex serializes every scheduler
/// on one cache line. Eight shards keyed by a stable fold of [`PlanKey`]
/// cut that collision probability 8x while keeping each shard a plain
/// size-aware LRU.
pub const PLAN_SHARDS: usize = 8;

/// Stable shard selector: an FNV-1a fold of the key's four words. Not
/// `std::hash::Hash` — the shard of a key must not depend on hasher
/// randomization, or the per-shard LRU contents (and therefore eviction
/// traffic) would differ run to run.
fn plan_shard_index(key: &PlanKey) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in [key.layout, key.aod_config, u64::from(key.mover), u64::from(key.target)] {
        h ^= w;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // FNV's multiply only carries entropy upward; fold the high half back
    // down so keys differing in late-folded words spread across shards.
    ((h ^ (h >> 32)) as usize) % PLAN_SHARDS
}

/// Per-shard budget for a `total` position-unit budget: an even split,
/// rounded up so the shard sum never undercuts the configured total.
/// `0` (disabled) stays `0` for every shard.
fn plan_shard_capacity(total: usize) -> usize {
    if total == 0 {
        0
    } else {
        total.div_ceil(PLAN_SHARDS)
    }
}

/// The process-wide plan cache: [`PLAN_SHARDS`] independently locked
/// LRU shards plus a contention counter. A probe takes exactly one
/// shard lock, chosen by [`plan_shard_index`]; the counter records how
/// often `try_lock` found that shard held (the probe then blocks as
/// before — sharding narrows the window, the counter measures what's
/// left of it).
struct ShardedPlanCache {
    shards: [Mutex<PlanCache>; PLAN_SHARDS],
    /// The configured *total* budget — what [`plan_cache_stats`] reports
    /// as its capacity. Each shard holds `ceil(total / PLAN_SHARDS)`.
    capacity: AtomicUsize,
    contended: AtomicU64,
}

impl ShardedPlanCache {
    fn new(capacity: usize) -> Self {
        let per_shard = plan_shard_capacity(capacity);
        Self {
            shards: std::array::from_fn(|_| Mutex::new(PlanCache::new(per_shard))),
            capacity: AtomicUsize::new(capacity),
            contended: AtomicU64::new(0),
        }
    }

    /// Lock the shard owning `key`, counting the probe as contended when
    /// the lock was already held.
    fn shard(&self, key: &PlanKey) -> std::sync::MutexGuard<'_, PlanCache> {
        let i = plan_shard_index(key);
        match self.shards[i].try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.shards[i].lock().expect("plan cache shard lock")
            }
            Err(std::sync::TryLockError::Poisoned(e)) => panic!("plan cache shard lock: {e}"),
        }
    }

    /// Counters summed across every shard; `capacity` is the configured
    /// total rather than the per-shard sum (which rounds up).
    fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            capacity: self.capacity.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let s = shard.lock().expect("plan cache shard lock").stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.len += s.len;
            total.weight += s.weight;
        }
        total
    }

    fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let per_shard = plan_shard_capacity(capacity);
        for shard in &self.shards {
            shard.lock().expect("plan cache shard lock").set_capacity(per_shard);
        }
    }
}

fn plan_global() -> &'static ShardedPlanCache {
    static CACHE: OnceLock<ShardedPlanCache> = OnceLock::new();
    CACHE.get_or_init(|| ShardedPlanCache::new(configured_capacity()))
}

/// Look up a cross-compile move plan for `(mover, target)` against the
/// array's current exact state. `None` means the caller must run the probe
/// cascade (and should [`record_plan`] a success). Only the key's shard
/// is locked, so concurrent compiles collide on a probe only when their
/// keys fold to the same shard.
pub fn lookup_plan(
    key: &PlanKey,
    array: &AtomArray,
    r_um: f64,
    max_recursion: usize,
) -> Option<MovePlan> {
    get_plan(&mut plan_global().shard(key), key, array, r_um, max_recursion)
}

/// Publish a freshly planned success for cross-compile reuse. The
/// verification snapshot is taken before the lock, so concurrent compiles
/// contend only on the (single-shard) map insert itself.
pub fn record_plan(key: PlanKey, array: &AtomArray, r_um: f64, rec: usize, plan: &MovePlan) {
    let snapshot = array.placed_snapshot();
    insert_plan(&mut plan_global().shard(&key), key, snapshot, r_um, rec, plan);
}

/// Snapshot of the process-wide plan cache counters, summed across shards.
pub fn plan_cache_stats() -> CacheStats {
    plan_global().stats()
}

/// Apply the shared budget to the process-wide sharded instance (the
/// [`super::resize`] hook for this layer).
pub(super) fn set_global_capacity(capacity: usize) {
    plan_global().set_capacity(capacity);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_hardware::{AodMove, MachineSpec};

    fn plan_array() -> AtomArray {
        let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), 3);
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (10, 10));
        a.place_in_slm(2, (6, 2));
        a.transfer_to_aod(0, 0, 0).unwrap();
        a
    }

    fn plan_key(a: &AtomArray) -> PlanKey {
        PlanKey {
            layout: a.static_fingerprint(),
            aod_config: a.aod_fingerprint(),
            mover: 0,
            target: 1,
        }
    }

    fn a_plan() -> MovePlan {
        MovePlan {
            moves: vec![AodMove { q: 0, x: 35.0, y: 35.0 }],
            max_distance_um: 29.7,
            recursion_used: 2,
        }
    }

    #[test]
    fn plan_hit_requires_exact_state_and_knobs() {
        let a = plan_array();
        let key = plan_key(&a);
        let mut c = PlanCache::new(64);
        assert!(get_plan(&mut c, &key, &a, 7.0, 80).is_none());
        insert_plan(&mut c, key, a.placed_snapshot(), 7.0, 80, &a_plan());
        let hit = get_plan(&mut c, &key, &a, 7.0, 80).expect("exact repeat must hit");
        assert_eq!(hit.moves, a_plan().moves);
        assert_eq!(hit.max_distance_um.to_bits(), a_plan().max_distance_um.to_bits());
        assert_eq!(hit.recursion_used, 2);
        // Different planner knobs: same key, but verification fails.
        assert!(get_plan(&mut c, &key, &a, 7.5, 80).is_none(), "different radius must miss");
        assert!(get_plan(&mut c, &key, &a, 7.0, 79).is_none(), "different budget must miss");
        // A mutated array (same key supplied by a buggy/colliding caller)
        // fails the exact snapshot comparison.
        let mut moved = a.clone();
        moved.apply_aod_moves(&[AodMove { q: 0, x: 20.0, y: 20.0 }]).unwrap();
        assert!(get_plan(&mut c, &key, &moved, 7.0, 80).is_none(), "stale state must miss");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 4, 1));
        assert_eq!(s.weight, 3 + 1, "three placed atoms + one move");
    }

    #[test]
    fn plans_are_charged_their_snapshot_and_moves() {
        let a = plan_array();
        let base = plan_key(&a);
        // Each entry weighs 4 (3 placed atoms + 1 move): capacity 8 holds
        // exactly two.
        let mut c = PlanCache::new(8);
        for mover in 0..3u32 {
            insert_plan(&mut c, PlanKey { mover, ..base }, a.placed_snapshot(), 7.0, 80, &a_plan());
        }
        let s = c.stats();
        assert_eq!((s.len, s.weight, s.evictions), (2, 8, 1));
        assert!(get_plan(&mut c, &PlanKey { mover: 0, ..base }, &a, 7.0, 80).is_none());
        // An entry outweighing the whole budget is skipped, nothing evicted.
        let mut tiny = PlanCache::new(3);
        insert_plan(&mut tiny, base, a.placed_snapshot(), 7.0, 80, &a_plan());
        assert_eq!((tiny.stats().len, tiny.stats().evictions), (0, 0));
    }

    #[test]
    fn sharded_plan_cache_routes_sums_and_resizes() {
        let a = plan_array();
        let base = plan_key(&a);
        let c = ShardedPlanCache::new(PLAN_SHARDS * 8);
        assert_eq!(c.stats().capacity, PLAN_SHARDS * 8, "reports the configured total");
        // Shard choice is a pure function of the key, so a get after an
        // insert lands on the same shard regardless of hasher state.
        let mut hit_shards = std::collections::BTreeSet::new();
        for mover in 0..32u32 {
            let key = PlanKey { mover, ..base };
            hit_shards.insert(plan_shard_index(&key));
            insert_plan(&mut c.shard(&key), key, a.placed_snapshot(), 7.0, 80, &a_plan());
            assert!(get_plan(&mut c.shard(&key), &key, &a, 7.0, 80).is_some(), "mover {mover}");
        }
        assert!(hit_shards.len() > 1, "32 keys must spread over shards, got {hit_shards:?}");
        let s = c.stats();
        assert_eq!(s.hits, 32);
        assert_eq!(s.misses, 0);
        assert!(s.len <= 32, "per-shard LRU may evict under the split budget");
        assert_eq!(s.contended, 0, "single-threaded probes never contend");
        // Resize to zero disables and clears every shard.
        c.set_capacity(0);
        let s = c.stats();
        assert_eq!((s.len, s.weight, s.capacity), (0, 0, 0));
    }

    #[test]
    fn sharded_plan_cache_counts_lock_contention() {
        let a = plan_array();
        let key = plan_key(&a);
        let c = ShardedPlanCache::new(64);
        std::thread::scope(|s| {
            let held = c.shards[plan_shard_index(&key)].lock().unwrap();
            s.spawn(|| {
                // Blocks until the main thread releases the shard; the
                // try_lock miss is what the counter records.
                let _ = get_plan(&mut c.shard(&key), &key, &a, 7.0, 80);
            });
            while c.contended.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            drop(held);
        });
        let s = c.stats();
        assert_eq!(s.contended, 1);
        assert_eq!(s.misses, 1, "the blocked probe still completes");
    }

    #[test]
    fn plan_shard_capacity_split_rounds_up_and_zero_disables() {
        assert_eq!(plan_shard_capacity(0), 0);
        assert_eq!(plan_shard_capacity(1), 1);
        assert_eq!(plan_shard_capacity(PLAN_SHARDS), 1);
        assert_eq!(plan_shard_capacity(PLAN_SHARDS + 1), 2);
        assert_eq!(plan_shard_capacity(8192), 8192 / PLAN_SHARDS);
    }
}
