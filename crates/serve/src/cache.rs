//! The catalog's one LRU cache of prepared mitigations, keyed by
//! `(device, version, method, measured set)`.
//!
//! The expensive part of answering a calibrate request is not the apply but
//! re-deriving the method's calibration data for the request's measured set
//! ([`qufem_core::Mitigator::prepare`] — for QuFEM, the per-iteration
//! sub-noise matrices and execution plans, paper Algorithm 2 line 3). The
//! serving [`crate::Catalog`] keeps the most recently used prepared objects
//! of *every* device, version and method in this one cache under one cap,
//! so the number of live plans is bounded however many versions are
//! admitted. Preparation is deterministic per key, so serving from the
//! cache cannot change any response bit.

use qufem_core::{PreparedMitigator, VersionedSnapshot};
use qufem_types::{QubitSet, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: device id, snapshot version, method id, measured qubit set.
type PlanKey = (Arc<str>, u64, String, QubitSet);

/// Thread-safe LRU map from `(device, version, method, measured)` to a
/// shared prepared mitigation.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Lru>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Lru {
    plans: HashMap<PlanKey, Slot>,
    /// Last tick handed out; every hit or insert stamps its entry with the
    /// next one, so the smallest stamp marks the least recently used entry.
    tick: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct Slot {
    plan: Arc<dyn PreparedMitigator>,
    last_use: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` prepared mitigations
    /// (`capacity` of 0 behaves like 1: the current entry is always kept).
    pub fn new(capacity: usize) -> Self {
        PlanCache { inner: Mutex::new(Lru::default()), capacity: capacity.max(1) }
    }

    /// Maximum number of cached entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(len, hits, misses)`, read under one lock.
    pub fn totals(&self) -> (usize, u64, u64) {
        let lru = self.inner.lock().expect("plan cache lock");
        (lru.plans.len(), lru.hits, lru.misses)
    }

    /// Number of cached entries belonging to `device` (any version).
    pub(crate) fn device_len(&self, device: &str) -> usize {
        let lru = self.inner.lock().expect("plan cache lock");
        lru.plans.keys().filter(|(d, _, _, _)| &**d == device).count()
    }

    /// Returns the cached preparation of `method` for `measured` on
    /// `snapshot`'s `(device, version)`, building and inserting it with
    /// `build` on a miss. An insert past the capacity evicts the least
    /// recently used entry, whichever device or version it belongs to.
    ///
    /// `build` runs outside the cache lock, so a slow preparation does not
    /// stall requests for already-cached keys; if two workers race on the
    /// same missing key the loser's build is discarded in favour of the
    /// winner's (both are bit-identical by construction).
    ///
    /// # Errors
    ///
    /// Propagates `build` errors without caching anything.
    pub fn get_or_build(
        &self,
        snapshot: &VersionedSnapshot,
        method: &str,
        measured: &QubitSet,
        build: impl FnOnce() -> Result<Arc<dyn PreparedMitigator>>,
    ) -> Result<Arc<dyn PreparedMitigator>> {
        let key: PlanKey =
            (snapshot.device_id_arc(), snapshot.version(), method.to_string(), measured.clone());
        {
            let mut lru = self.inner.lock().expect("plan cache lock");
            if let Some(plan) = lru.touch(&key) {
                lru.hits += 1;
                return Ok(plan);
            }
            lru.misses += 1;
        }
        let built = build()?;
        let mut lru = self.inner.lock().expect("plan cache lock");
        if let Some(existing) = lru.touch(&key) {
            return Ok(existing); // lost a race; keep the first insert
        }
        if lru.plans.len() >= self.capacity {
            // Stamps are unique, so this removes exactly the oldest entry.
            let oldest = lru.plans.values().map(|s| s.last_use).min().expect("cache is full");
            lru.plans.retain(|_, s| s.last_use != oldest);
        }
        lru.tick += 1;
        let last_use = lru.tick;
        lru.plans.insert(key, Slot { plan: Arc::clone(&built), last_use });
        Ok(built)
    }
}

impl Lru {
    /// The cached plan for `key`, stamped as just used.
    fn touch(&mut self, key: &PlanKey) -> Option<Arc<dyn PreparedMitigator>> {
        let slot = self.plans.get_mut(key)?;
        self.tick += 1;
        slot.last_use = self.tick;
        Some(Arc::clone(&slot.plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_core::{Mitigator, QuFem, QuFemConfig};
    use qufem_device::presets;

    fn qufem() -> QuFem {
        let config = QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(300)
            .seed(11)
            .build()
            .unwrap();
        QuFem::characterize(&presets::ibmq_7(11), config).unwrap()
    }

    fn root(qufem: &QuFem) -> VersionedSnapshot {
        VersionedSnapshot::root("ibmq-7", qufem.iterations()[0].snapshot_arc())
    }

    fn set(qubits: [usize; 2]) -> QubitSet {
        qubits.into_iter().collect()
    }

    #[test]
    fn caches_and_evicts_in_lru_order() {
        let qufem = qufem();
        let v0 = root(&qufem);
        let cache = PlanCache::new(2);
        let sets = [set([0, 1]), set([2, 3]), set([4, 5])];
        for s in &sets {
            cache.get_or_build(&v0, "qufem", s, || Mitigator::prepare(&qufem, s)).unwrap();
        }
        assert_eq!(cache.totals().0, 2, "capacity bound");
        // sets[0] was least recently used and must have been evicted:
        // rebuilding it counts a miss, sets[2] a hit.
        let (_, _, misses_before) = cache.totals();
        cache
            .get_or_build(&v0, "qufem", &sets[2], || Mitigator::prepare(&qufem, &sets[2]))
            .unwrap();
        cache
            .get_or_build(&v0, "qufem", &sets[0], || Mitigator::prepare(&qufem, &sets[0]))
            .unwrap();
        let (len, hits, misses) = cache.totals();
        assert_eq!(len, 2);
        assert_eq!(misses, misses_before + 1, "evicted set rebuilt");
        assert_eq!(hits, 1, "cached set served without rebuild");
    }

    #[test]
    fn hit_protects_recently_used_entries() {
        let qufem = qufem();
        let v0 = root(&qufem);
        let cache = PlanCache::new(2);
        let (a, b, c) = (set([0, 1]), set([2, 3]), set([4, 5]));
        cache.get_or_build(&v0, "qufem", &a, || Mitigator::prepare(&qufem, &a)).unwrap();
        cache.get_or_build(&v0, "qufem", &b, || Mitigator::prepare(&qufem, &b)).unwrap();
        // Hit `a`, then insert `c`: `b` is now the LRU victim.
        cache.get_or_build(&v0, "qufem", &a, || Mitigator::prepare(&qufem, &a)).unwrap();
        cache.get_or_build(&v0, "qufem", &c, || Mitigator::prepare(&qufem, &c)).unwrap();
        let mut rebuilt_b = false;
        cache
            .get_or_build(&v0, "qufem", &b, || {
                rebuilt_b = true;
                Mitigator::prepare(&qufem, &b)
            })
            .unwrap();
        assert!(rebuilt_b, "b should have been evicted after a was hit");
        let mut rebuilt_c = false;
        cache
            .get_or_build(&v0, "qufem", &c, || {
                rebuilt_c = true;
                Mitigator::prepare(&qufem, &c)
            })
            .unwrap();
        assert!(!rebuilt_c, "c must still be cached");
    }

    #[test]
    fn method_device_and_version_are_part_of_the_key() {
        let qufem = qufem();
        let v0 = root(&qufem);
        let v1 = v0.child(qufem.iterations()[0].snapshot_arc(), 1);
        let other = VersionedSnapshot::root("other", qufem.iterations()[0].snapshot_arc());
        let cache = PlanCache::new(8);
        let s = set([0, 1]);
        let mut builds = 0;
        for (snapshot, method) in
            [(&v0, "qufem"), (&v0, "other"), (&v1, "qufem"), (&other, "qufem")]
        {
            cache
                .get_or_build(snapshot, method, &s, || {
                    builds += 1;
                    Mitigator::prepare(&qufem, &s)
                })
                .unwrap();
        }
        assert_eq!(builds, 4, "each (device, version, method) coordinate misses on its own");
        assert_eq!(cache.totals(), (4, 0, 4));
        assert_eq!(cache.device_len("ibmq-7"), 3);
        assert_eq!(cache.device_len("other"), 1);
    }

    #[test]
    fn one_cap_binds_every_version() {
        let qufem = qufem();
        let v0 = root(&qufem);
        let v1 = v0.child(qufem.iterations()[0].snapshot_arc(), 1);
        let cache = PlanCache::new(2);
        let (a, b) = (set([0, 1]), set([2, 3]));
        for snapshot in [&v0, &v1] {
            for s in [&a, &b] {
                cache.get_or_build(snapshot, "qufem", s, || Mitigator::prepare(&qufem, s)).unwrap();
                assert!(cache.totals().0 <= 2, "the cap bounds the whole cache");
            }
        }
        // The new version's plans pushed out the old version's.
        let mut rebuilt = false;
        cache
            .get_or_build(&v1, "qufem", &a, || {
                rebuilt = true;
                Mitigator::prepare(&qufem, &a)
            })
            .unwrap();
        assert!(!rebuilt);
        assert_eq!(cache.totals(), (2, 1, 4));
    }

    #[test]
    fn build_errors_are_not_cached() {
        let qufem = qufem();
        let v0 = root(&qufem);
        let cache = PlanCache::new(2);
        let out_of_range = set([0, 99]);
        assert!(cache
            .get_or_build(&v0, "qufem", &out_of_range, || Mitigator::prepare(&qufem, &out_of_range))
            .is_err());
        assert_eq!(cache.totals(), (0, 0, 1));
    }
}
