//! The daemon's resident caches.
//!
//! Two LRUs, both hand-rolled over `HashMap` (no dependencies):
//!
//! * [`PlanCache`] holds compiled plans — the bound
//!   [`WorkflowPlan`], its lowered physical plan, the parsed input
//!   configuration, the derived schema, and the static-analysis
//!   warnings — keyed by the *plan fingerprint*
//!   ([`papar_core::exec::plan_fingerprint_with`]): the FNV-1a hash of
//!   everything plan-side that decides output bytes. A same-fingerprint
//!   resubmit skips parsing, binding, verification, and lowering
//!   entirely. Because computing the fingerprint itself requires
//!   planning, the cache carries a second *spec-hash* index (hash of
//!   the raw request: document bytes, effective arguments, cluster
//!   size, toggles) that maps a repeated request to its fingerprint
//!   without touching the planner.
//! * [`DataCache`] holds decoded input files, already split into one
//!   shared fragment per node, keyed by path, file size, mtime, the
//!   record bound, the input-config hash and the node count, so a
//!   changed or truncated file can never serve stale records.
//!
//! Neither cache is consulted for correctness — a miss just runs the
//! stage it wraps ([`crate::job::compile`], [`crate::job::load`]), which
//! is what `papar run` always does. Hit/miss counters feed the daemon
//! stats so the bench harness and CI can prove work was elided.

use papar_config::InputConfig;
use papar_core::physplan::PhysicalPlan;
use papar_core::plan::WorkflowPlan;
use papar_record::batch::Dataset;
use papar_record::Schema;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A minimal LRU: a map from key to (last-use tick, value), evicting
/// the smallest tick at capacity. O(n) eviction is fine at daemon cache
/// sizes (single digits to low hundreds).
#[derive(Debug)]
pub struct Lru<K: Eq + Hash + Clone, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `cap` entries (min 1).
    pub fn new(cap: usize) -> Self {
        Lru {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up and mark as most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.0 = tick;
                Some(&slot.1)
            }
            None => None,
        }
    }

    /// Insert, evicting the least recently used entry at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Whether a key is resident (without touching recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Everything [`crate::job::compile`] produced, ready to execute: the
/// daemon keeps it resident by fingerprint, `papar run` uses it once.
/// The plan is cloned out per run (`WorkflowRunner` takes it by value);
/// everything else is shared.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The bound logical plan.
    pub plan: WorkflowPlan,
    /// Its lowered physical plan (same nodes/fuse as the request).
    pub phys: PhysicalPlan,
    /// The parsed input configuration (decides the output file codec).
    pub input_cfg: InputConfig,
    /// Schema derived from the input configuration.
    pub schema: Arc<Schema>,
    /// Warning-severity diagnostics from the static-analysis gate.
    pub warnings: Vec<String>,
    /// The dataset name of the plan's single external input.
    pub input_name: String,
    /// Logical job count (sizes `papar run`'s fault schedule).
    pub num_jobs: usize,
    /// The plan fingerprint this entry is keyed by.
    pub fingerprint: u64,
}

/// Compiled plans by fingerprint, with the spec-hash side index.
#[derive(Debug)]
pub struct PlanCache {
    lru: Lru<u64, Arc<CachedPlan>>,
    /// spec hash → fingerprint. May point at an evicted fingerprint;
    /// that lookup falls through to a miss and recompiles.
    index: HashMap<u64, u64>,
    /// Lifetime hits (lookups that skipped the planner).
    pub hits: u64,
    /// Lifetime misses (plans compiled fresh).
    pub misses: u64,
}

impl PlanCache {
    /// An empty cache holding at most `cap` compiled plans.
    pub fn new(cap: usize) -> Self {
        PlanCache {
            lru: Lru::new(cap),
            index: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up by the raw request's spec hash. A hit means "this exact
    /// request was planned before and the plan is still resident".
    pub fn get_by_spec(&mut self, spec_hash: u64) -> Option<Arc<CachedPlan>> {
        let fp = *self.index.get(&spec_hash)?;
        let cached = self.lru.get(&fp).cloned();
        if cached.is_some() {
            self.hits += 1;
        }
        cached
    }

    /// Insert a freshly compiled plan under its fingerprint and index
    /// the spec hash that produced it. Counts as a miss.
    pub fn insert(&mut self, spec_hash: u64, plan: Arc<CachedPlan>) {
        self.misses += 1;
        self.index.insert(spec_hash, plan.fingerprint);
        self.lru.insert(plan.fingerprint, plan);
        // The index is tiny (8+8 bytes per entry) but unbounded in
        // principle; prune entries whose plan was evicted once it
        // outgrows the cache by a wide margin.
        if self.index.len() > self.lru.cap * 8 + 64 {
            let lru = &self.lru;
            self.index.retain(|_, fp| lru.contains(fp));
        }
    }

    /// Compiled plans currently resident.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

/// Cache key for one decoded input file. Size and mtime make a changed
/// file a guaranteed miss; the config hash covers schema changes that
/// would decode the same bytes differently; the record bound is part of
/// the identity because `--records 100` and `--records 200` decode
/// different prefixes; the node count because it decides the split.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataKey {
    /// The data file path as submitted.
    pub path: String,
    /// File size in bytes at load time.
    pub len: u64,
    /// Modification time (nanoseconds since the epoch) at load time.
    pub mtime_ns: u128,
    /// The `--records` bound, part of the decode identity.
    pub records: Option<u64>,
    /// FNV-1a of the input-config document text.
    pub config_hash: u64,
    /// Nodes the input is split for (one fragment each).
    pub nodes: u32,
}

/// Decoded input files as per-node fragments in ordinal order. The
/// fragments are `Arc`ed so a hit shares them: compilation samples them
/// by reference and the cluster stores the same `Arc`s, so a request
/// copies no input record.
#[derive(Debug)]
pub struct DataCache {
    lru: Lru<DataKey, Vec<Arc<Dataset>>>,
    /// Lifetime hits (files *not* re-read and re-decoded).
    pub hits: u64,
    /// Lifetime misses.
    pub misses: u64,
}

impl DataCache {
    /// An empty cache holding at most `cap` decoded files.
    pub fn new(cap: usize) -> Self {
        DataCache {
            lru: Lru::new(cap),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a decoded file's fragments (the handles are cloned, the
    /// records shared).
    pub fn get(&mut self, key: &DataKey) -> Option<Vec<Arc<Dataset>>> {
        let hit = self.lru.get(key).cloned();
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Insert a freshly decoded file's fragments. Counts as a miss.
    pub fn insert(&mut self, key: DataKey, fragments: Vec<Arc<Dataset>>) {
        self.misses += 1;
        self.lru.insert(key, fragments);
    }

    /// Decoded files currently resident.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether no files are resident.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(&1), Some(&"a")); // 1 is now fresher than 2
        lru.insert(3, "c"); // evicts 2
        assert_eq!(lru.len(), 2);
        assert!(lru.contains(&1));
        assert!(!lru.contains(&2));
        assert!(lru.contains(&3));
    }

    #[test]
    fn lru_reinsert_updates_in_place() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.insert(1, "a2"); // update, no eviction
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(&"a2"));
        assert!(lru.contains(&2));
    }

    #[test]
    fn data_key_distinguishes_mtime_record_bound_and_nodes() {
        let key = |mtime_ns: u128, records: Option<u64>, nodes: u32| DataKey {
            path: "/d/x.db".into(),
            len: 4096,
            mtime_ns,
            records,
            config_hash: 99,
            nodes,
        };
        let mut cache = DataCache::new(4);
        cache.insert(key(1, None, 4), Vec::new());
        assert!(cache.get(&key(1, None, 4)).is_some());
        assert!(
            cache.get(&key(2, None, 4)).is_none(),
            "newer mtime must miss"
        );
        assert!(
            cache.get(&key(1, Some(10), 4)).is_none(),
            "different --records must miss"
        );
        assert!(
            cache.get(&key(1, None, 2)).is_none(),
            "a different split must miss"
        );
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }
}
