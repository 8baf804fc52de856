//! The one size-aware LRU map behind every cache layer: the layout, plan
//! and template caches here, and the compile service's result cache.
//!
//! The discipline is shared; what differs per layer is only the key, the
//! unit an entry is weighed in, the check a hit must pass, and the warning
//! an oversized entry prints. So:
//!
//! * the budget is a total **weight**, not an entry count. The caller
//!   passes each entry's weight to [`Lru::insert`] (at least 1 unit is
//!   charged), and least-recently-used entries are evicted until the new
//!   one fits;
//! * capacity `0` disables storage;
//! * an entry heavier than the whole budget is not cached, since it would
//!   wipe everything else for an entry that can never share. `insert`
//!   reports it as [`Oversized`] and each layer prints its own
//!   once-per-process warning (a `static Once` inside this generic code
//!   would be one static for every layer). An oversized *refresh* of a
//!   cached key drops the stale entry too, so the cache never serves a
//!   value older than the last one inserted for its key;
//! * [`Lru::get_if`] counts a hit only when a caller-supplied check accepts
//!   the entry (the plan cache's exact-state verification). A rejected
//!   entry counts as a miss and keeps its place in the recency order;
//! * [`Lru::set_capacity`] shrinks stalest-first, and `0` clears.
//!
//! Recency is an intrusive doubly-linked list over slab indices, so `get`,
//! `insert` and each eviction are O(1) plus hashing. The tick-scan LRU the
//! core layers used before is kept in the tests as the differential oracle:
//! a proptest drives both through random operation sequences and compares
//! every returned value and counter after each step.

use std::collections::HashMap;
use std::hash::Hash;

/// Counters and gauges of one cache layer (its `STATS` sub-object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing usable and had to recompute.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Probes that found their lock held and had to block. Only the
    /// sharded plan cache counts these; every other layer reports 0.
    pub contended: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum total weight (0 = disabled), in the layer's unit.
    pub capacity: usize,
    /// Total weight of the cached entries, in the layer's unit.
    pub weight: usize,
}

/// [`Lru::insert`] refused an entry heavier than the whole budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oversized {
    /// The refused entry's weight.
    pub weight: usize,
    /// The budget it exceeded.
    pub capacity: usize,
}

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    /// `None` only while the slot is on the free list.
    value: Option<V>,
    weight: usize,
    prev: usize,
    next: usize,
}

/// Bounded, weight-budgeted LRU map (see the module docs).
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most-recently-used slot index.
    head: usize,
    /// Least-recently-used slot index.
    tail: usize,
    capacity: usize,
    weight: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// Create a cache holding at most `capacity` units of weight
    /// (0 disables storage).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            weight: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, marking it most recently used and counting the
    /// hit/miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_if(key, |_| true)
    }

    /// Look up `key`, but count a hit (and refresh its recency) only when
    /// `accept` approves the entry. A rejected entry counts as a miss and
    /// keeps its place in the recency order.
    pub fn get_if(&mut self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
        let found = self.map.get(key).copied();
        match found {
            Some(i) if self.slots[i].value.as_ref().is_some_and(accept) => {
                self.hits += 1;
                self.unlink(i);
                self.push_front(i);
                self.slots[i].value.as_ref()
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `key` at `weight` units, evicting
    /// least-recently-used entries until it fits. Disabled at capacity 0.
    /// An entry heavier than the whole budget is not cached (and drops a
    /// stale entry under the same key); the caller decides how to warn.
    pub fn insert(&mut self, key: K, value: V, weight: usize) -> Result<(), Oversized> {
        if self.capacity == 0 {
            return Ok(());
        }
        let weight = weight.max(1);
        if weight > self.capacity {
            if let Some(i) = self.map.remove(&key) {
                self.release(i);
            }
            return Err(Oversized { weight, capacity: self.capacity });
        }
        if let Some(i) = self.map.get(&key).copied() {
            self.weight = self.weight - self.slots[i].weight + weight;
            self.slots[i].value = Some(value);
            self.slots[i].weight = weight;
            self.unlink(i);
            self.push_front(i);
            // The refreshed entry is at the head, so eviction takes the
            // others first, in the order the tick scan would.
            while self.weight > self.capacity {
                self.evict_lru();
            }
            return Ok(());
        }
        while self.weight + weight > self.capacity {
            self.evict_lru();
        }
        let slot = Slot { key, value: Some(value), weight, prev: NIL, next: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.weight += weight;
        self.map.insert(key, i);
        self.push_front(i);
        Ok(())
    }

    /// Change the budget at runtime: shrinking evicts least-recently-used
    /// entries down to the new capacity, `0` disables and clears.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity == 0 {
            self.clear();
            return;
        }
        while self.weight > capacity {
            self.evict_lru();
        }
    }

    /// Drop every entry. Counters survive, and cleared entries are not
    /// counted as evictions: nothing displaced them.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.weight = 0;
    }

    /// Visit every cached entry, most-recently-used first.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let mut i = self.head;
        while i != NIL {
            let slot = &self.slots[i];
            if let Some(value) = &slot.value {
                f(&slot.key, value);
            }
            i = slot.next;
        }
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            contended: 0,
            len: self.map.len(),
            capacity: self.capacity,
            weight: self.weight,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Unlink slot `i` (already removed from the map), free its value and
    /// return its weight to the budget.
    fn release(&mut self, i: usize) {
        self.unlink(i);
        self.weight -= self.slots[i].weight;
        self.slots[i].value = None;
        self.free.push(i);
    }

    /// Drop the least-recently-used entry (callers guarantee non-empty).
    fn evict_lru(&mut self) {
        let lru = self.tail;
        debug_assert_ne!(lru, NIL, "nonzero weight implies an entry to evict");
        self.map.remove(&self.slots[lru].key);
        self.release(lru);
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tick-scan LRU the layout, plan and template caches used before
    /// the shared implementation: every touch stamps a global tick and
    /// eviction scans for the smallest. Kept as the differential oracle;
    /// it models the chosen oversized-refresh behaviour (the stale entry
    /// is dropped).
    struct TickLru<K, V> {
        map: HashMap<K, (V, u64, usize)>,
        tick: u64,
        capacity: usize,
        weight: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl<K: Copy + Eq + Hash, V> TickLru<K, V> {
        fn new(capacity: usize) -> Self {
            Self {
                map: HashMap::new(),
                tick: 0,
                capacity,
                weight: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn get_if(&mut self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
            self.tick += 1;
            match self.map.get_mut(key) {
                Some(e) if accept(&e.0) => {
                    e.1 = self.tick;
                    self.hits += 1;
                    Some(&e.0)
                }
                _ => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: K, value: V, weight: usize) -> Result<(), Oversized> {
            if self.capacity == 0 {
                return Ok(());
            }
            let weight = weight.max(1);
            if weight > self.capacity {
                if let Some(old) = self.map.remove(&key) {
                    self.weight -= old.2;
                }
                return Err(Oversized { weight, capacity: self.capacity });
            }
            self.tick += 1;
            if let Some(old) = self.map.remove(&key) {
                self.weight -= old.2;
            }
            while self.weight + weight > self.capacity {
                self.evict_stalest();
            }
            self.weight += weight;
            self.map.insert(key, (value, self.tick, weight));
            Ok(())
        }

        fn evict_stalest(&mut self) {
            let stalest = *self.map.iter().min_by_key(|(_, e)| e.1).expect("an entry to evict").0;
            self.weight -= self.map.remove(&stalest).expect("stalest key present").2;
            self.evictions += 1;
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity;
            if capacity == 0 {
                self.weight = 0;
                self.map.clear();
                return;
            }
            while self.weight > capacity {
                self.evict_stalest();
            }
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                hits: self.hits,
                misses: self.misses,
                evictions: self.evictions,
                contended: 0,
                len: self.map.len(),
                capacity: self.capacity,
                weight: self.weight,
            }
        }

        /// Keys most-recently-used first, the order [`Lru::for_each`] walks.
        fn recency_order(&self) -> Vec<K> {
            let mut keys: Vec<(u64, K)> = self.map.iter().map(|(k, e)| (e.1, *k)).collect();
            keys.sort_by_key(|e| std::cmp::Reverse(e.0));
            keys.into_iter().map(|(_, k)| k).collect()
        }
    }

    fn keys<V>(c: &Lru<u64, V>) -> Vec<u64> {
        let mut out = Vec::new();
        c.for_each(|k, _| out.push(*k));
        out
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut c = Lru::new(2);
        assert_eq!(c.get(&1), None);
        c.insert(1, "a", 1).unwrap();
        c.insert(2, "b", 1).unwrap();
        assert_eq!(c.get(&1), Some(&"a")); // 1 now MRU
        c.insert(3, "c", 1).unwrap(); // evicts 2
        assert_eq!(c.get(&2), None);
        assert!(c.get(&1).is_some() && c.get(&3).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len, s.weight), (3, 2, 1, 2, 2));
    }

    #[test]
    fn eviction_is_weighted() {
        // A 256-unit entry plus one 20-unit entry fit in 280; the next
        // 20-unit entry displaces the stale large one, not a small one.
        let mut c = Lru::new(280);
        c.insert(1, (), 256).unwrap();
        c.insert(2, (), 20).unwrap();
        assert_eq!(c.stats().weight, 276);
        c.insert(3, (), 20).unwrap();
        assert_eq!(c.get(&1), None, "the large entry must be evicted first");
        assert!(c.get(&2).is_some() && c.get(&3).is_some());
        let s = c.stats();
        assert_eq!((s.evictions, s.len, s.weight), (1, 2, 40));
        // One large entry displaces several small ones.
        let mut c = Lru::new(8);
        for k in 1..=4 {
            c.insert(k, (), 2).unwrap();
        }
        c.insert(9, (), 6).unwrap();
        assert_eq!((c.stats().evictions, c.stats().len), (3, 2));
        assert_eq!(keys(&c), vec![9, 4]);
    }

    #[test]
    fn zero_weight_is_charged_one_unit() {
        let mut c = Lru::new(2);
        c.insert(1, (), 0).unwrap();
        assert_eq!(c.stats().weight, 1);
    }

    #[test]
    fn reinsert_refreshes_value_recency_and_weight() {
        let mut c = Lru::new(8);
        c.insert(1, "aa", 2).unwrap();
        c.insert(2, "bb", 2).unwrap();
        c.insert(1, "aaaa", 4).unwrap(); // weight 2 -> 4, and 2 becomes LRU
        assert_eq!((c.stats().weight, c.stats().evictions), (6, 0));
        c.insert(3, "cccc", 4).unwrap(); // 6 + 4 > 8: evicts 2
        assert_eq!(c.get(&1), Some(&"aaaa"));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.stats().weight, 8);
    }

    #[test]
    fn oversized_entry_is_refused_and_drops_its_stale_key() {
        let mut c = Lru::new(4);
        c.insert(1, "ok", 2).unwrap();
        c.insert(2, "ok", 2).unwrap();
        assert_eq!(c.insert(3, "big", 5), Err(Oversized { weight: 5, capacity: 4 }));
        assert_eq!((c.stats().len, c.stats().evictions), (2, 0), "existing entries survive");
        assert_eq!(c.insert(1, "big", 5), Err(Oversized { weight: 5, capacity: 4 }));
        assert_eq!(c.get(&1), None, "a stale value must not survive its oversized refresh");
        let s = c.stats();
        assert_eq!((s.len, s.weight, s.evictions), (1, 2, 0));
    }

    #[test]
    fn zero_capacity_disables_and_set_capacity_resizes() {
        let mut off = Lru::new(0);
        assert_eq!(off.insert(1, (), 1_000), Ok(()), "disabled is not oversized");
        assert_eq!(off.get(&1), None);
        assert_eq!(off.stats().len, 0);

        let mut c = Lru::new(64);
        for k in 0..4 {
            c.insert(k, (), 4).unwrap();
        }
        let _ = c.get(&0); // 0 becomes MRU
        c.set_capacity(8); // keeps the two most recent: 0 and 3
        let s = c.stats();
        assert_eq!((s.len, s.weight, s.capacity, s.evictions), (2, 8, 8, 2));
        assert_eq!(keys(&c), vec![0, 3]);
        c.set_capacity(0);
        assert_eq!((c.stats().len, c.stats().weight), (0, 0));
        assert_eq!(c.stats().evictions, 2, "clearing is not evicting");
        c.set_capacity(16);
        c.insert(7, (), 4).unwrap();
        assert!(c.get(&7).is_some());
    }

    #[test]
    fn rejected_get_is_a_miss_that_keeps_recency() {
        let mut c = Lru::new(2);
        c.insert(1, 10, 1).unwrap();
        c.insert(2, 20, 1).unwrap();
        assert_eq!(c.get_if(&1, |v| *v == 11), None, "the check rejects the entry");
        c.insert(3, 30, 1).unwrap(); // 1 is still the LRU entry
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get_if(&2, |v| *v == 20), Some(&20));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 1));
    }

    #[test]
    fn clear_and_for_each_walk_mru_to_lru() {
        let mut c = Lru::new(64);
        for k in 1..=3 {
            c.insert(k, k * 10, 1).unwrap();
        }
        let _ = c.get(&1);
        let mut seen = Vec::new();
        c.for_each(|k, v| seen.push((*k, *v)));
        assert_eq!(seen, vec![(1, 10), (3, 30), (2, 20)], "MRU first, LRU last");
        c.clear();
        assert_eq!(keys(&c), Vec::<u64>::new());
        assert_eq!((c.stats().len, c.stats().weight, c.stats().hits), (0, 0, 1));
    }

    #[test]
    fn churn_preserves_budget_and_list_integrity() {
        let mut c = Lru::new(64);
        for i in 0..1000u64 {
            c.insert(i, i, 1 + (i % 13) as usize).unwrap();
            if i % 3 == 0 {
                let _ = c.get(&i.saturating_sub(4));
            }
            assert!(c.stats().weight <= 64, "budget respected at i={i}");
            assert_eq!(keys(&c).len(), c.stats().len, "list consistent at i={i}");
        }
        assert_eq!(c.get(&999), Some(&999), "the newest entry always survives");
        assert!(c.stats().evictions > 0);
    }

    mod matches_the_tick_scan_oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random sequences of gets, check-rejected gets, inserts
            /// (mixed weights, refreshes, oversized entries) and resizes
            /// (including 0): after every operation the slab LRU returns
            /// what the tick-scan oracle returns, its counters are equal,
            /// and its MRU-to-LRU walk is the oracle's tick order.
            #[test]
            fn on_random_operation_sequences(
                capacity in 0usize..48,
                ops in proptest::collection::vec((0u8..10, 0u64..12, 0usize..40), 1..160),
            ) {
                let mut lru: Lru<u64, u64> = Lru::new(capacity);
                let mut oracle: TickLru<u64, u64> = TickLru::new(capacity);
                let mut last_inserted = 0u64;
                for (step, &(op, key, n)) in ops.iter().enumerate() {
                    let value = step as u64;
                    match op {
                        0..=2 => {
                            let got = lru.get(&key).copied();
                            prop_assert_eq!(got, oracle.get_if(&key, |_| true).copied());
                        }
                        3 => {
                            // Accept only even values: about half the
                            // present entries fail their check.
                            let got = lru.get_if(&key, |v| v % 2 == 0).copied();
                            prop_assert_eq!(got, oracle.get_if(&key, |v| v % 2 == 0).copied());
                        }
                        4..=7 => {
                            // Mostly small weights; n >= 32 can exceed the budget.
                            let weight = if n < 32 { n % 9 } else { n };
                            let got = lru.insert(key, value, weight);
                            prop_assert_eq!(got, oracle.insert(key, value, weight));
                            last_inserted = key;
                        }
                        8 => {
                            // A refresh of the last inserted key, at a new weight.
                            let got = lru.insert(last_inserted, value, n);
                            prop_assert_eq!(got, oracle.insert(last_inserted, value, n));
                        }
                        _ => {
                            let capacity = if n % 5 == 0 { 0 } else { n };
                            lru.set_capacity(capacity);
                            oracle.set_capacity(capacity);
                        }
                    }
                    let (got, want) = (lru.stats(), oracle.stats());
                    prop_assert_eq!(got, want, "step {}: {:?} != {:?}", step, got, want);
                    let (got, want) = (keys(&lru), oracle.recency_order());
                    prop_assert_eq!(got, want, "step {}: {:?} != {:?}", step, got, want);
                }
            }
        }
    }
}
