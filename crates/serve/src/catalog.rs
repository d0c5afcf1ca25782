//! Device catalog: device id → version lineage → per-version method
//! instances, plus one prepared-plan cache for the whole catalog, with
//! atomic hot-swap of recalibrated snapshots under live traffic.
//!
//! The paper treats a characterization as a device-level artifact with a
//! validity window — readout noise drifts, so a fleet recalibrates
//! continuously. The [`Catalog`] is the serving-side model of that: every
//! device carries a monotone version lineage of [`VersionedSnapshot`]s, and
//! **admitting** a recalibration publishes it as the device's new head
//! without pausing traffic. Resolution clones an `Arc` under a read lock,
//! so in-flight requests keep the entry they resolved, and the prepared
//! plan they hold stays alive until their apply finishes.
//!
//! Superseded versions are **not** drained: every admitted version stays in
//! its device's lineage, resolvable by version-pinned clients, together
//! with the method instances built for it (including the admitted `QuFem`),
//! until the catalog is dropped at shutdown. Only their prepared plans are
//! bounded: all devices and versions share the one [`PlanCache`] and its
//! single cap, so an unused version's plans age out of it.
//!
//! Determinism is preserved across swaps: a request pinned to
//! `(device, version)` is served from that exact snapshot's prepared plans
//! — bit-identical before, during, and after any number of admissions.

use crate::cache::PlanCache;
use qufem_core::{
    MethodOptions, MethodRegistry, Mitigator, PreparedMitigator, QuFem, VersionedSnapshot,
    DEFAULT_DEVICE_ID,
};
use qufem_types::{Error, QubitSet, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One published calibration of one device: the versioned snapshot plus the
/// method instances built from it.
///
/// Entries are immutable once published (the method map fills lazily but
/// its contents are deterministic functions of the snapshot), so an `Arc`
/// held across a hot-swap keeps serving exactly the bits it resolved.
#[derive(Debug)]
pub struct VersionEntry {
    snapshot: VersionedSnapshot,
    full_register: QubitSet,
    /// Method instances for this version by method id, seeded with the
    /// exact `"qufem"` instance the entry was created from.
    methods: Mutex<HashMap<String, Arc<dyn Mitigator>>>,
    /// Characterization iterations in the underlying calibrator (surfaced
    /// by the `status` command).
    iterations: usize,
}

impl VersionEntry {
    /// Seeds the `"qufem"` method with `qufem` itself — never a registry
    /// rebuild — so its responses match the instance bit for bit. The seed
    /// happens here, before the entry can be published, so a racing
    /// request at this version can never build `"qufem"` itself.
    fn new(snapshot: VersionedSnapshot, qufem: QuFem) -> Self {
        let full_register = QubitSet::full(snapshot.n_qubits());
        let iterations = qufem.iterations().len();
        let seeded: Arc<dyn Mitigator> = Arc::new(qufem);
        VersionEntry {
            snapshot,
            full_register,
            methods: Mutex::new(HashMap::from([("qufem".to_string(), seeded)])),
            iterations,
        }
    }

    /// The versioned snapshot this entry serves.
    pub fn snapshot(&self) -> &VersionedSnapshot {
        &self.snapshot
    }

    /// Device id of the snapshot.
    pub fn device_id(&self) -> &str {
        self.snapshot.device_id()
    }

    /// Version number of the snapshot within its device lineage.
    pub fn version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Every qubit of the device (the default measured set).
    pub fn full_register(&self) -> &QubitSet {
        &self.full_register
    }

    /// Characterization iterations in the underlying calibrator.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The instance serving `method` at this version, built through
    /// `registry` (default options) on first use.
    ///
    /// Construction is deterministic, so concurrent first uses may race:
    /// the build happens outside the lock and the first insert wins, which
    /// keeps every request on one shared instance per method.
    ///
    /// # Errors
    ///
    /// Propagates [`MethodRegistry::build`] failures (unknown id,
    /// constructor errors); failures are not cached.
    pub(crate) fn mitigator(
        &self,
        method: &str,
        registry: &MethodRegistry,
    ) -> Result<Arc<dyn Mitigator>> {
        if let Some(hit) = self.methods.lock().expect("method map lock").get(method) {
            return Ok(Arc::clone(hit));
        }
        let fresh = registry.build(method, self.snapshot.snapshot(), &MethodOptions::new())?;
        let mut methods = self.methods.lock().expect("method map lock");
        Ok(Arc::clone(methods.entry(method.to_string()).or_insert(fresh)))
    }

    /// Number of method instances built for this version.
    pub(crate) fn method_count(&self) -> usize {
        self.methods.lock().expect("method map lock").len()
    }
}

/// One device's lineage: the head (what unpinned requests resolve to) plus
/// every retained version, ascending.
#[derive(Debug)]
struct DeviceState {
    head: u64,
    versions: BTreeMap<u64, Arc<VersionEntry>>,
}

/// A point-in-time description of one device in the catalog (the transport
/// layer decorates it into `DeviceStatusInfo`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSummary {
    /// Device id.
    pub device: String,
    /// Version new unpinned requests resolve to.
    pub head_version: u64,
    /// Retained (pinnable) versions, ascending.
    pub versions: Vec<u64>,
    /// Prepared plans of this device (any version) in the catalog's cache.
    pub plan_cache_len: usize,
    /// Instantiated `(version, method)` mitigators, summed over versions.
    pub method_cache_len: usize,
}

/// Why a `(device, version)` coordinate failed to resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No device with this id is in the catalog.
    UnknownDevice(String),
    /// The device exists but has no such version.
    UnknownVersion {
        /// The device that was found.
        device: String,
        /// The version that was not.
        version: u64,
    },
}

impl ResolveError {
    /// Human-readable error-frame message.
    pub fn message(&self) -> String {
        match self {
            ResolveError::UnknownDevice(d) => format!("unknown device {d:?}"),
            ResolveError::UnknownVersion { device, version } => {
                format!("device {device:?} has no version {version}")
            }
        }
    }
}

/// The serving catalog: every device's version lineage, plus the one
/// [`PlanCache`] of prepared plans keyed `(device, version, method,
/// measured set)` under a single cap.
///
/// Reads (request routing) take a shared lock and clone an `Arc`;
/// admissions take the exclusive lock only to assign a version number and
/// link the new entry. Version numbers within a device are therefore
/// strictly monotone: any observer who sees version `v` echoed can never
/// later resolve the head to a version below `v`.
#[derive(Debug)]
pub struct Catalog {
    devices: RwLock<BTreeMap<Arc<str>, DeviceState>>,
    /// Builds the non-seeded methods of each version.
    registry: Arc<MethodRegistry>,
    plans: PlanCache,
    default_device: Arc<str>,
    /// Next global admission sequence number (the root entry takes 0).
    next_seq: AtomicU64,
    /// Serializes admissions end-to-end (seed + publish) without blocking
    /// readers longer than the `devices` write itself.
    admit_lock: Mutex<()>,
}

impl Catalog {
    /// A catalog whose only entry is `qufem` published as version 0 of
    /// `device_id` (empty ⇒ [`DEFAULT_DEVICE_ID`]). The instance itself is
    /// pinned as method `"qufem"` for that entry, so responses are
    /// bit-identical to calling it in process.
    pub fn new(
        qufem: QuFem,
        device_id: &str,
        registry: Arc<MethodRegistry>,
        plan_cache_capacity: usize,
    ) -> Self {
        let device_id = if device_id.is_empty() { DEFAULT_DEVICE_ID } else { device_id };
        let snapshot = qufem
            .iterations()
            .first()
            .map(|it| it.snapshot_arc())
            .unwrap_or_else(|| Arc::new(qufem_core::BenchmarkSnapshot::new(qufem.n_qubits())));
        let root = VersionedSnapshot::root(device_id, snapshot);
        let default_device = root.device_id_arc();
        let entry = Arc::new(VersionEntry::new(root, qufem));
        let mut versions = BTreeMap::new();
        versions.insert(0, entry);
        let mut devices = BTreeMap::new();
        devices.insert(Arc::clone(&default_device), DeviceState { head: 0, versions });
        Catalog {
            devices: RwLock::new(devices),
            registry,
            plans: PlanCache::new(plan_cache_capacity),
            default_device,
            next_seq: AtomicU64::new(1),
            admit_lock: Mutex::new(()),
        }
    }

    /// The device unaddressed requests resolve to.
    pub fn default_device(&self) -> Arc<str> {
        Arc::clone(&self.default_device)
    }

    /// Maximum prepared plans the whole catalog keeps hot.
    pub fn plan_cache_capacity(&self) -> usize {
        self.plans.capacity()
    }

    /// The prepared `method` for `measured` on `entry`, from the plan cache
    /// or built on a miss; the flag is `true` when this call ran the build.
    ///
    /// # Errors
    ///
    /// Propagates [`VersionEntry::mitigator`] and `prepare` failures.
    pub(crate) fn prepared(
        &self,
        entry: &VersionEntry,
        method: &str,
        measured: &QubitSet,
    ) -> Result<(Arc<dyn PreparedMitigator>, bool)> {
        let mitigator = entry.mitigator(method, &self.registry)?;
        let mut built = false;
        let plan = self.plans.get_or_build(entry.snapshot(), method, measured, || {
            built = true;
            mitigator.prepare(measured)
        })?;
        Ok((plan, built))
    }

    /// Resolves a request's `(device, version)` coordinate to the entry
    /// that serves it: `device` `None`/empty ⇒ the default device,
    /// `version` `None` ⇒ the device's head.
    ///
    /// # Errors
    ///
    /// [`ResolveError`] distinguishing an unknown device from an unretained
    /// version.
    pub fn resolve(
        &self,
        device: Option<&str>,
        version: Option<u64>,
    ) -> std::result::Result<Arc<VersionEntry>, ResolveError> {
        let id = match device {
            Some(d) if !d.is_empty() => d,
            _ => &self.default_device,
        };
        let devices = self.devices.read().expect("catalog read lock");
        let state = devices.get(id).ok_or_else(|| ResolveError::UnknownDevice(id.to_string()))?;
        let v = version.unwrap_or(state.head);
        state
            .versions
            .get(&v)
            .cloned()
            .ok_or_else(|| ResolveError::UnknownVersion { device: id.to_string(), version: v })
    }

    /// Admits a recalibrated instance: publishes it as the next version of
    /// its device (or version 0 of a device new to the catalog) and pins it
    /// as that entry's `"qufem"` method. `device_override` (non-empty)
    /// wins over the device id stamped in `imported`'s lineage.
    ///
    /// The new head is visible to unpinned requests the moment this
    /// returns; already-resolved entries are untouched, so concurrent
    /// traffic never observes a torn swap.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the admitted instance's qubit count
    /// does not match the device it targets.
    pub fn admit(
        &self,
        qufem: QuFem,
        imported: &VersionedSnapshot,
        device_override: Option<&str>,
    ) -> Result<Arc<VersionEntry>> {
        let target = match device_override {
            Some(d) if !d.is_empty() => d,
            _ => imported.device_id(),
        };
        let _admitting = self.admit_lock.lock().expect("catalog admit lock");
        // Width check against the existing lineage (under the admit lock so
        // a concurrent admit cannot invalidate it before we publish).
        let existing_head = {
            let devices = self.devices.read().expect("catalog read lock");
            devices.get(target).map(|state| {
                let head = state.versions.get(&state.head).expect("head version present").clone();
                head
            })
        };
        if let Some(head) = &existing_head {
            if head.snapshot().n_qubits() != qufem.n_qubits() {
                return Err(Error::InvalidConfig(format!(
                    "admitted snapshot has {} qubits but device {:?} has {}",
                    qufem.n_qubits(),
                    target,
                    head.snapshot().n_qubits()
                )));
            }
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let snapshot = qufem
            .iterations()
            .first()
            .map(|it| it.snapshot_arc())
            .unwrap_or_else(|| Arc::new(qufem_core::BenchmarkSnapshot::new(qufem.n_qubits())));
        let versioned = match &existing_head {
            Some(head) => head.snapshot().child(snapshot, seq),
            None => {
                let mut lineage = imported.lineage();
                lineage.device_id = target.to_string();
                lineage.version = 0;
                lineage.parent_version = None;
                lineage.created_seq = seq;
                VersionedSnapshot::with_lineage(&lineage, snapshot)
            }
        };
        // The entry carries the exact admitted instance as "qufem" before
        // it becomes resolvable.
        let entry = Arc::new(VersionEntry::new(versioned, qufem));
        let mut devices = self.devices.write().expect("catalog write lock");
        let state = devices
            .entry(entry.snapshot().device_id_arc())
            .or_insert_with(|| DeviceState { head: 0, versions: BTreeMap::new() });
        state.head = entry.version();
        state.versions.insert(entry.version(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Per-device summaries, sorted by device id.
    pub fn summaries(&self) -> Vec<DeviceSummary> {
        let devices = self.devices.read().expect("catalog read lock");
        devices
            .iter()
            .map(|(id, state)| DeviceSummary {
                device: id.to_string(),
                head_version: state.head,
                versions: state.versions.keys().copied().collect(),
                plan_cache_len: self.plans.device_len(id),
                method_cache_len: state.versions.values().map(|e| e.method_count()).sum(),
            })
            .collect()
    }

    /// Number of devices in the catalog.
    pub fn device_count(&self) -> usize {
        self.devices.read().expect("catalog read lock").len()
    }

    /// Plan-cache `(len, hits, misses)` across every device and version.
    pub fn plan_cache_totals(&self) -> (usize, u64, u64) {
        self.plans.totals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_core::QuFemConfig;
    use qufem_device::presets;

    fn characterized(seed: u64) -> QuFem {
        let config = QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(300)
            .seed(seed)
            .build()
            .unwrap();
        QuFem::characterize(&presets::ibmq_7(seed), config).unwrap()
    }

    #[test]
    fn new_catalog_serves_version_zero_of_the_named_device() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        assert_eq!(&*catalog.default_device(), "ibmq-7");
        let entry = catalog.resolve(None, None).unwrap();
        assert_eq!(entry.device_id(), "ibmq-7");
        assert_eq!(entry.version(), 0);
        assert_eq!(entry.full_register().len(), 7);
        // Explicit coordinates resolve to the same entry.
        let pinned = catalog.resolve(Some("ibmq-7"), Some(0)).unwrap();
        assert!(Arc::ptr_eq(&entry, &pinned));
        // Empty device id falls back to the default device.
        assert!(catalog.resolve(Some(""), None).is_ok());
    }

    #[test]
    fn resolve_distinguishes_unknown_device_from_unknown_version() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        assert_eq!(
            catalog.resolve(Some("nope"), None).unwrap_err(),
            ResolveError::UnknownDevice("nope".to_string())
        );
        assert_eq!(
            catalog.resolve(Some("ibmq-7"), Some(3)).unwrap_err(),
            ResolveError::UnknownVersion { device: "ibmq-7".to_string(), version: 3 }
        );
    }

    #[test]
    fn admit_advances_the_head_and_retains_old_versions() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let v0 = catalog.resolve(None, None).unwrap();
        let recal = characterized(2);
        let imported = VersionedSnapshot::root("ibmq-7", recal.iterations()[0].snapshot_arc());
        let entry = catalog.admit(recal, &imported, None).unwrap();
        assert_eq!(entry.version(), 1);
        assert_eq!(entry.snapshot().parent_version(), Some(0));
        // Unpinned resolution now hits the new head …
        let head = catalog.resolve(Some("ibmq-7"), None).unwrap();
        assert!(Arc::ptr_eq(&head, &entry));
        // … while the old version stays pinned-resolvable, same entry.
        let pinned = catalog.resolve(Some("ibmq-7"), Some(0)).unwrap();
        assert!(Arc::ptr_eq(&pinned, &v0));
        let summary = &catalog.summaries()[0];
        assert_eq!(summary.head_version, 1);
        assert_eq!(summary.versions, vec![0, 1]);
    }

    #[test]
    fn admit_creates_new_devices_at_version_zero() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let other = characterized(3);
        let imported = VersionedSnapshot::root("ibmq-7-b", other.iterations()[0].snapshot_arc());
        let entry = catalog.admit(other, &imported, None).unwrap();
        assert_eq!(entry.device_id(), "ibmq-7-b");
        assert_eq!(entry.version(), 0);
        assert_eq!(catalog.device_count(), 2);
        // Device override beats the lineage stamp.
        let third = characterized(4);
        let imported = VersionedSnapshot::root("ignored", third.iterations()[0].snapshot_arc());
        let entry = catalog.admit(third, &imported, Some("ibmq-7")).unwrap();
        assert_eq!(entry.device_id(), "ibmq-7");
        assert_eq!(entry.version(), 1);
    }

    #[test]
    fn admit_rejects_width_mismatch() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let config = QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(300)
            .seed(9)
            .build()
            .unwrap();
        let narrow = QuFem::characterize(&presets::for_qubits(3, 9), config).unwrap();
        let imported = VersionedSnapshot::root("ibmq-7", narrow.iterations()[0].snapshot_arc());
        let err = catalog.admit(narrow, &imported, None).unwrap_err();
        assert!(err.to_string().contains("qubits"), "{err}");
        // Nothing was published.
        assert_eq!(catalog.summaries()[0].versions, vec![0]);
    }

    #[test]
    fn admitted_instance_is_served_as_the_qufem_method() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let recal = characterized(2);
        let imported = VersionedSnapshot::root("ibmq-7", recal.iterations()[0].snapshot_arc());
        let entry = catalog.admit(recal, &imported, None).unwrap();
        // The registry is empty, so only the seeded instance can satisfy
        // "qufem": the lookup must return it rather than erroring.
        let empty = MethodRegistry::new();
        let m = entry.mitigator("qufem", &empty).unwrap();
        assert!(Arc::ptr_eq(&m, &entry.mitigator("qufem", &empty).unwrap()));
        let v0 = catalog.resolve(None, Some(0)).unwrap();
        assert!(!Arc::ptr_eq(&m, &v0.mitigator("qufem", &empty).unwrap()), "one per version");
        assert!(entry.mitigator("m3", &empty).is_err(), "unknown methods are not cached");
        assert_eq!(catalog.summaries()[0].method_cache_len, 2, "one seeded instance per version");
    }

    #[test]
    fn each_version_and_method_shares_one_instance() {
        let builds = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut registry = MethodRegistry::new();
        let counter = Arc::clone(&builds);
        registry.register("counted", move |snapshot, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            let config = QuFemConfig::builder().characterization_threshold(5e-4).build()?;
            Ok(Arc::new(QuFem::from_snapshot(snapshot.clone(), config)?) as Arc<dyn Mitigator>)
        });
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(registry), 4);
        let recal = characterized(2);
        let imported = VersionedSnapshot::root("ibmq-7", recal.iterations()[0].snapshot_arc());
        let v1 = catalog.admit(recal, &imported, None).unwrap();
        let v0 = catalog.resolve(None, Some(0)).unwrap();
        let full = QubitSet::full(7);
        let (a, built_a) = catalog.prepared(&v0, "counted", &full).unwrap();
        let (b, built_b) = catalog.prepared(&v0, "counted", &full).unwrap();
        assert!(built_a && !built_b, "the second request hits the plan cache");
        assert!(Arc::ptr_eq(&a, &b));
        let m = v0.mitigator("counted", &MethodRegistry::new()).unwrap();
        assert!(Arc::ptr_eq(&m, &v0.mitigator("counted", &MethodRegistry::new()).unwrap()));
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one instance per (version, method)");
        // Another version is a distinct instance and a distinct plan.
        let (c, built_c) = catalog.prepared(&v1, "counted", &full).unwrap();
        assert!(built_c && !Arc::ptr_eq(&a, &c));
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        let summary = &catalog.summaries()[0];
        assert_eq!(summary.method_cache_len, 4, "qufem + counted at each of two versions");
        assert_eq!(summary.plan_cache_len, 2);
        assert_eq!(catalog.plan_cache_totals(), (2, 1, 2));
    }
}
