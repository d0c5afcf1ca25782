//! The characterization flow (Algorithm 1) and calibration flow
//! (Algorithm 2) of the paper, packaged as the [`QuFem`] type.

use crate::arena::{ArenaPool, ExecArena};
use crate::benchgen::{self, BenchGenReport};
use crate::config::QuFemConfig;
use crate::engine::{self, EngineStats, IterationPlan};
use crate::interaction::InteractionTable;
use crate::noisematrix::{group_noise_matrix_with, GroupMatrix};
use crate::parallel;
use crate::partition::{self, grouped_pairs, Grouping};
use crate::snapshot::{BenchmarkRecord, BenchmarkSnapshot};
use qufem_device::Device;
use qufem_linalg::Matrix;
use qufem_types::{BitString, Error, ProbDist, QubitSet, Result, SupportIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pruning floor applied while self-calibrating the benchmarking
/// distributions inside the characterization flow (see
/// [`QuFem::from_snapshot`]). The self-calibration only needs the BP
/// marginals (mesh-adaption weights, residual matrices), for which
/// first-order flip corrections suffice; a β floor of `10⁻³` (relative, see
/// the engine's pruning convention) keeps characterization at `O(N)` work
/// per benchmark string even when the user requests an effectively unpruned
/// *calibration* flow.
const MIN_CHARACTERIZATION_BETA: f64 = 1e-3;

/// Default cap on the number of measured sets whose prepared calibrations a
/// [`QuFem`] memoizes (see [`QuFem::prepared`]). When a workload cycles
/// through more distinct sets than this, the memo is cleared rather than
/// grown without bound. Tunable per instance via
/// [`QuFem::set_prepared_memo_cap`].
pub const DEFAULT_PREPARED_MEMO_CAP: usize = 32;

/// The static calibration parameters of one iteration: the grouping scheme
/// `G_i` and the benchmarking distributions `BP_i` (paper Algorithm 1's
/// output `CP`).
///
/// The snapshot sits behind an [`Arc`]: the characterization loop's working
/// snapshot and the recorded `BP_i` are the same allocation, and cloning a
/// [`QuFem`] shares every stored snapshot instead of deep-copying them.
#[derive(Debug, Clone)]
pub struct IterationParams {
    grouping: Grouping,
    snapshot: Arc<BenchmarkSnapshot>,
}

impl IterationParams {
    /// Reassembles iteration parameters from their parts (used by the
    /// persistence layer).
    pub(crate) fn from_parts(grouping: Grouping, snapshot: BenchmarkSnapshot) -> Self {
        IterationParams { grouping, snapshot: Arc::new(snapshot) }
    }

    /// The grouping scheme `G_i`.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// The benchmarking snapshot `BP_i` this iteration draws conditional
    /// probabilities from.
    pub fn snapshot(&self) -> &BenchmarkSnapshot {
        &self.snapshot
    }

    /// A shared handle to the snapshot. Cheap to clone; memory-accounting
    /// tests use the pointer identity to verify that [`QuFem::clone`]
    /// shares rather than duplicates the stored `BP_i`.
    pub fn snapshot_arc(&self) -> Arc<BenchmarkSnapshot> {
        Arc::clone(&self.snapshot)
    }
}

/// A calibrated QuFEM instance: the output of the characterization flow,
/// ready to calibrate arbitrarily many measured distributions.
///
/// # Example
///
/// ```no_run
/// use qufem_core::{QuFem, QuFemConfig};
/// use qufem_device::presets;
/// use qufem_types::QubitSet;
///
/// let device = presets::ibmq_7(1);
/// let qufem = QuFem::characterize(&device, QuFemConfig::default())?;
/// # let measured_dist = qufem_types::ProbDist::point_mass(qufem_types::BitString::zeros(7));
/// let calibrated = qufem.calibrate(&measured_dist, &QubitSet::full(7))?;
/// # Ok::<(), qufem_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuFem {
    config: QuFemConfig,
    n_qubits: usize,
    iterations: Vec<IterationParams>,
    benchgen_report: Option<BenchGenReport>,
    characterization_engine_stats: EngineStats,
    /// Prepared calibrations per measured set, built on first use and
    /// shared across clones (plan construction is deterministic, so
    /// serving a memoized plan cannot change any output bit).
    prepared_memo: Arc<Mutex<HashMap<QubitSet, Arc<PreparedCalibration>>>>,
    /// Memo size cap, shared across clones like the memo itself so a tune
    /// on one handle governs every holder of the same memo.
    prepared_memo_cap: Arc<std::sync::atomic::AtomicUsize>,
}

impl QuFem {
    /// Reassembles a calibrator from previously exported parts (used by the
    /// persistence layer; see [`QuFem::import`]).
    pub(crate) fn from_parts(
        config: QuFemConfig,
        n_qubits: usize,
        iterations: Vec<IterationParams>,
        benchgen_report: Option<crate::benchgen::BenchGenReport>,
    ) -> Self {
        QuFem {
            config,
            n_qubits,
            iterations,
            benchgen_report,
            characterization_engine_stats: EngineStats::default(),
            prepared_memo: Arc::new(Mutex::new(HashMap::new())),
            prepared_memo_cap: Arc::new(std::sync::atomic::AtomicUsize::new(
                DEFAULT_PREPARED_MEMO_CAP,
            )),
        }
    }

    /// Runs the full characterization flow (paper Algorithm 1) against a
    /// device: adaptive benchmark generation, then `L` rounds of
    /// interaction-graph partitioning and benchmark self-calibration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation, benchmark-generation budget
    /// exhaustion, and matrix-generation failures.
    pub fn characterize(device: &Device, config: QuFemConfig) -> Result<Self> {
        Self::characterize_with_threads(device, config, parallel::configured_threads())
    }

    /// [`QuFem::characterize`] with an explicit worker count for both the
    /// benchmark sampling and the self-calibration fan-out. The result is
    /// **bit-identical at any `threads`**; `characterize` delegates here
    /// with [`parallel::configured_threads`].
    ///
    /// # Errors
    ///
    /// Propagates configuration validation, benchmark-generation budget
    /// exhaustion, and matrix-generation failures.
    pub fn characterize_with_threads(
        device: &Device,
        config: QuFemConfig,
        threads: usize,
    ) -> Result<Self> {
        let _span = qufem_telemetry::span!("characterize");
        config.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let (snapshot, report) =
            benchgen::generate_with_threads(device, &config, &mut rng, threads)?;
        let mut qufem = Self::from_snapshot_with_threads(snapshot, config, threads)?;
        qufem.benchgen_report = Some(report);
        Ok(qufem)
    }

    /// Runs Algorithm 1 lines 2–13 on an already-collected benchmarking
    /// snapshot (`BP_1`). Useful for ablations that substitute their own
    /// benchmark generation (paper Figure 13a) and for replaying stored
    /// hardware data.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and matrix-generation failures.
    pub fn from_snapshot(snapshot: BenchmarkSnapshot, config: QuFemConfig) -> Result<Self> {
        Self::from_snapshot_with_threads(snapshot, config, parallel::configured_threads())
    }

    /// [`QuFem::from_snapshot`] with an explicit worker count.
    ///
    /// Each iteration fans out three times: one sub-noise matrix per
    /// distinct (group, g∩) pair, one plan per distinct measured set (built
    /// from references into those matrices), and the per-record Eq. 7
    /// self-calibration, whose workers also rebuild the updated records.
    /// All are pure per-item maps whose results merge in submission order,
    /// and [`EngineStats::merge`] is a sum of integer counters — so the
    /// iterations, the merged stats, and the exported JSON are
    /// **bit-identical at any `threads`**, including the sequential path.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and matrix-generation failures.
    pub fn from_snapshot_with_threads(
        snapshot: BenchmarkSnapshot,
        config: QuFemConfig,
        threads: usize,
    ) -> Result<Self> {
        config.validate()?;
        let threads = threads.max(1);
        let n = snapshot.n_qubits();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let mut iterations = Vec::with_capacity(config.iterations);
        let mut stats = EngineStats::default();
        let mut penalized: HashSet<(usize, usize)> = HashSet::new();
        let mut current = Arc::new(snapshot);

        for i in 0..config.iterations {
            let _iteration_span = qufem_telemetry::span!("iteration", i);
            let mut phases = qufem_telemetry::PhaseSet::new();
            let mut iter_stats = EngineStats::default();

            // Line 3: partition a weighted qubit graph based on BP_i.
            let grouping = {
                let _phase = phases.enter("partition");
                if config.random_grouping {
                    partition::partition_random(n, config.max_group_size, &mut rng)
                } else {
                    let table = InteractionTable::build(&current);
                    partition::partition_weighted(
                        n,
                        &|a, b| table.weight(a, b),
                        config.max_group_size,
                        &penalized,
                        config.regroup_penalty,
                    )
                }
            };
            penalized.extend(grouped_pairs(&grouping));

            // Line 4: record G_i and BP_i (shared, not deep-copied).
            let params =
                IterationParams { grouping: grouping.clone(), snapshot: Arc::clone(&current) };

            // Lines 5–10: update every benchmarking distribution with Eq. 7.
            // Self-calibration always prunes at least at
            // MIN_CHARACTERIZATION_BETA: a literal β = 0 here would expand
            // every benchmarking distribution over the full product space
            // (4^groups outputs per string). The β under study still applies
            // unmodified in the calibration flow.
            let char_beta = config.beta.max(MIN_CHARACTERIZATION_BETA);

            // Matrix generation (Eq. 10–11) sees a record's measured set
            // only through each group's intersection g∩: the matrix is a
            // pure function of (BP_i, group, g∩). Every distinct
            // (group index, g∩) pair of this iteration is built once, then
            // each distinct measured set's plan resolves references into
            // that memo, and records sharing a measured set share the plan.
            let mut set_index: HashMap<QubitSet, usize> = HashMap::new();
            let mut sets: Vec<QubitSet> = Vec::new();
            let record_set: Vec<usize> = current
                .records()
                .iter()
                .map(|record| {
                    let measured = record.measured_set();
                    *set_index.entry(measured.clone()).or_insert_with(|| {
                        sets.push(measured);
                        sets.len() - 1
                    })
                })
                .collect();
            // Keys in first-use order (set by set, group by group), so the
            // first failing key is the one the per-set loop would hit first.
            let mut key_index: HashMap<(usize, QubitSet), usize> = HashMap::new();
            let mut keys: Vec<(usize, QubitSet)> = Vec::new();
            let set_keys: Vec<Vec<usize>> = sets
                .iter()
                .map(|measured| {
                    let mut ids = Vec::new();
                    for (g, group) in grouping.iter().enumerate() {
                        let g_cap = group.intersection(measured);
                        if g_cap.is_empty() {
                            continue;
                        }
                        ids.push(*key_index.entry((g, g_cap.clone())).or_insert_with(|| {
                            keys.push((g, g_cap));
                            keys.len() - 1
                        }));
                    }
                    ids
                })
                .collect();
            let (matrices, matrix_us): (Vec<GroupMatrix>, Vec<u64>) =
                parallel::try_map_in_order(&keys, threads, |_, (g, g_cap)| {
                    let start = phase_clock();
                    let matrix = group_noise_matrix_with(
                        &current,
                        &grouping[*g],
                        g_cap,
                        config.joint_group_estimation,
                    )?
                    .expect("memo keys have a non-empty g∩");
                    Ok((matrix, phase_micros(start)))
                })?
                .into_iter()
                .unzip();
            let (plans, plan_us): (Vec<IterationPlan>, Vec<u64>) =
                parallel::map_in_order(&sets, threads, |si, measured| {
                    let start = phase_clock();
                    let positions: Vec<usize> = measured.iter().collect();
                    let groups = set_keys[si].iter().map(|&k| &matrices[k]);
                    (IterationPlan::build(&positions, groups, char_beta), phase_micros(start))
                })
                .into_iter()
                .unzip();
            // Plans own copies of their inverse columns; free the memo
            // before the engine's working sets grow.
            drop(matrices);
            qufem_telemetry::counter_add("characterize.plan_builds", plans.len() as u64);
            let matrix_gen_us = matrix_us.iter().chain(&plan_us).sum();
            phases.add_micros("matrix-gen", matrix_gen_us, plans.len() as u64);

            // Each worker rebuilds its finished record (distribution and
            // marginals) straight from the engine output; the serial tail
            // only merges stats and pushes. The last iteration's output
            // snapshot is never stored, so it is not rebuilt — the engine
            // still runs for its stats.
            let keep_output = i + 1 < config.iterations;
            let record_results: Vec<(Option<BenchmarkRecord>, EngineStats, u64)> =
                parallel::map_in_order(current.records(), threads, |ri, record| {
                    let start = phase_clock();
                    let mut local = EngineStats::default();
                    let input = SupportIndex::from_dist(record.dist());
                    let updated = engine::execute(&plans[record_set[ri]], &input, &mut local);
                    let rebuilt = keep_output
                        .then(|| BenchmarkRecord::from_support(record.circuit().clone(), &updated));
                    (rebuilt, local, phase_micros(start))
                });
            qufem_telemetry::counter_add("characterize.records", record_results.len() as u64);
            let mut next = BenchmarkSnapshot::new(n);
            let mut engine_us = 0u64;
            for (rebuilt, local, us) in record_results {
                // Record-order merge: EngineStats::merge sums integer
                // counters, so this equals the sequential accumulation.
                iter_stats.merge(&local);
                engine_us += us;
                if let Some(record) = rebuilt {
                    next.push(record);
                }
            }
            phases.add_micros("engine", engine_us, current.len() as u64);

            iter_stats.publish_to(&qufem_telemetry::GlobalSink);
            stats.merge(&iter_stats);
            phases.emit();
            iterations.push(params);
            current = Arc::new(next);
        }

        Ok(QuFem {
            config,
            n_qubits: n,
            iterations,
            benchgen_report: None,
            characterization_engine_stats: stats,
            prepared_memo: Arc::new(Mutex::new(HashMap::new())),
            prepared_memo_cap: Arc::new(std::sync::atomic::AtomicUsize::new(
                DEFAULT_PREPARED_MEMO_CAP,
            )),
        })
    }

    /// Number of device qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The configuration used for characterization.
    pub fn config(&self) -> &QuFemConfig {
        &self.config
    }

    /// Per-iteration calibration parameters `CP = [G_i], [BP_i]`.
    pub fn iterations(&self) -> &[IterationParams] {
        &self.iterations
    }

    /// The benchmark-generation report, if this instance was characterized
    /// against a device (absent for [`QuFem::from_snapshot`]).
    pub fn benchgen_report(&self) -> Option<&BenchGenReport> {
        self.benchgen_report.as_ref()
    }

    /// Engine counters accumulated while self-calibrating the benchmarking
    /// distributions during characterization.
    pub fn characterization_engine_stats(&self) -> &EngineStats {
        &self.characterization_engine_stats
    }

    /// Pre-generates the per-iteration sub-noise matrices for a measured
    /// qubit set and resolves them into execution plans (paper Algorithm 2,
    /// line 3). The result can calibrate any number of distributions over
    /// the same measured qubits without regenerating matrices or plans.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QubitOutOfRange`] if `measured` references a qubit
    /// beyond the device and propagates matrix-generation failures.
    pub fn prepare(&self, measured: &QubitSet) -> Result<PreparedCalibration> {
        self.prepare_with_threads(measured, parallel::configured_threads())
    }

    /// [`QuFem::prepare`] with an explicit worker count: the `L` iterations
    /// fan out (each builds its group matrices and plan independently), and
    /// each iteration's per-group matrix generation fans out over whatever
    /// the iteration-level split leaves. The prepared plans are
    /// **bit-identical at any `threads`**.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QubitOutOfRange`] if `measured` references a qubit
    /// beyond the device and propagates matrix-generation failures.
    pub fn prepare_with_threads(
        &self,
        measured: &QubitSet,
        threads: usize,
    ) -> Result<PreparedCalibration> {
        let _span = qufem_telemetry::span!("prepare");
        if let Some(&max) = measured.as_slice().last() {
            if max >= self.n_qubits {
                return Err(Error::QubitOutOfRange { index: max, width: self.n_qubits });
            }
        }
        let positions: Vec<usize> = measured.iter().collect();
        let (outer, inner) = parallel::split_threads(threads, self.iterations.len());
        let plans = parallel::try_map_in_order(&self.iterations, outer, |_, params| {
            let groups = build_group_matrices_threaded(
                params.snapshot(),
                &params.grouping,
                measured,
                self.config.joint_group_estimation,
                inner,
            )?;
            Ok(Arc::new(IterationPlan::build(&positions, &groups, self.config.beta)))
        })?;
        // Seed the arena pool at prepare time so the first apply starts from
        // a sized arena (and `engine.arena_bytes` lands in the prepare-phase
        // telemetry manifest, not mid-serving).
        let arenas = Arc::new(ArenaPool::default());
        arenas.put_back(ExecArena::with_shards(parallel::configured_threads()));
        Ok(PreparedCalibration { width: positions.len(), plans, arenas })
    }

    /// The memo cap currently in force for [`QuFem::prepared`].
    pub fn prepared_memo_cap(&self) -> usize {
        self.prepared_memo_cap.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Tunes the [`QuFem::prepared`] memo cap (clamped to at least 1). The
    /// cap is shared across clones, so tuning a served instance takes effect
    /// on every handle. Sizing: each entry holds one full prepared plan set,
    /// so budget roughly `distinct measured sets per tenant × tenants
    /// sharing this instance`.
    pub fn set_prepared_memo_cap(&self, cap: usize) {
        self.prepared_memo_cap.store(cap.max(1), std::sync::atomic::Ordering::Relaxed);
    }

    /// A shared prepared calibration for `measured`, built on first use and
    /// memoized (capped at [`QuFem::prepared_memo_cap`] distinct sets,
    /// shared across clones). Repeat callers of [`QuFem::calibrate`] over
    /// the same measured set skip the redundant matrix generation and plan
    /// builds; because plan construction is deterministic, the memoized
    /// plans calibrate to the exact bits a fresh [`QuFem::prepare`] would.
    ///
    /// # Errors
    ///
    /// Propagates [`QuFem::prepare`] failures.
    pub fn prepared(&self, measured: &QubitSet) -> Result<Arc<PreparedCalibration>> {
        if let Some(hit) = self.prepared_memo.lock().expect("prepared memo lock").get(measured) {
            return Ok(Arc::clone(hit));
        }
        // Build outside the lock: preparation can take seconds at scale and
        // other measured sets should not serialize behind it. If two threads
        // race on the same set, both build identical plans and the loser's
        // copy is simply dropped.
        let built = Arc::new(self.prepare(measured)?);
        let mut memo = self.prepared_memo.lock().expect("prepared memo lock");
        if memo.len() >= self.prepared_memo_cap() && !memo.contains_key(measured) {
            memo.clear();
        }
        Ok(Arc::clone(memo.entry(measured.clone()).or_insert(built)))
    }

    /// Calibrates one measured distribution (paper Algorithm 2).
    ///
    /// The result is a quasi-probability distribution; apply
    /// [`ProbDist::project_to_probabilities`] before fidelity computations.
    ///
    /// # Errors
    ///
    /// Propagates [`QuFem::prepare`] failures and width mismatches.
    pub fn calibrate(&self, dist: &ProbDist, measured: &QubitSet) -> Result<ProbDist> {
        let mut stats = EngineStats::default();
        self.calibrate_with_stats(dist, measured, &mut stats)
    }

    /// [`QuFem::calibrate`] with engine instrumentation.
    ///
    /// # Errors
    ///
    /// Propagates [`QuFem::prepare`] failures and width mismatches.
    pub fn calibrate_with_stats(
        &self,
        dist: &ProbDist,
        measured: &QubitSet,
        stats: &mut EngineStats,
    ) -> Result<ProbDist> {
        let prepared = self.prepared(measured)?;
        prepared.apply_with_stats(dist, stats)
    }

    /// The effective full noise matrix `M_eff = M_1 · M_2 · … · M_L` that
    /// this instance's calibration inverts, over a small measured set —
    /// used for the Hilbert–Schmidt accuracy comparison of paper Table 1.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`] if `measured.len() > max_qubits`.
    pub fn effective_noise_matrix(&self, measured: &QubitSet, max_qubits: usize) -> Result<Matrix> {
        let m = measured.len();
        if m > max_qubits {
            return Err(Error::ResourceExhausted(format!(
                "effective noise matrix for {m} qubits exceeds the {max_qubits}-qubit bound"
            )));
        }
        let positions: Vec<usize> = measured.iter().collect();
        let dim = 1usize << m;
        let mut effective: Option<Matrix> = None;
        for params in &self.iterations {
            let groups = build_group_matrices_with(
                &params.snapshot,
                &params.grouping,
                measured,
                self.config.joint_group_estimation,
            )?;
            let mut full = Matrix::zeros(dim, dim);
            for x in 0..dim {
                let xb = BitString::from_index(x, m).expect("x < 2^m");
                for y in 0..dim {
                    let yb = BitString::from_index(y, m).expect("y < 2^m");
                    let mut p = 1.0;
                    for g in &groups {
                        let (xg, yg) = sub_indices(g, &positions, &xb, &yb);
                        p *= g.matrix().get(xg, yg);
                        if p == 0.0 {
                            break;
                        }
                    }
                    full.set(x, y, p);
                }
            }
            effective = Some(match effective {
                None => full,
                Some(acc) => acc.matmul(&full)?,
            });
        }
        effective.ok_or_else(|| Error::InvalidConfig("no iterations configured".into()))
    }

    /// Approximate heap usage of the stored calibration parameters, in
    /// bytes (Table 5 memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.iterations
            .iter()
            .map(|p| {
                p.snapshot.heap_bytes()
                    + p.grouping
                        .iter()
                        .map(|g| g.len() * std::mem::size_of::<usize>())
                        .sum::<usize>()
            })
            .sum()
    }
}

fn sub_indices(
    group: &GroupMatrix,
    positions: &[usize],
    x: &BitString,
    y: &BitString,
) -> (usize, usize) {
    let mut xg = 0usize;
    let mut yg = 0usize;
    for (k, q) in group.qubits().iter().enumerate() {
        let pos = positions.binary_search(q).expect("group qubit must be measured");
        xg |= (x.get(pos) as usize) << k;
        yg |= (y.get(pos) as usize) << k;
    }
    (xg, yg)
}

/// Generates the sub-noise matrices of all groups intersecting `measured`
/// (paper Eq. 10–11), in deterministic group order.
pub fn build_group_matrices(
    snapshot: &BenchmarkSnapshot,
    grouping: &Grouping,
    measured: &QubitSet,
) -> Result<Vec<GroupMatrix>> {
    build_group_matrices_with(snapshot, grouping, measured, false)
}

/// [`build_group_matrices`] with selectable estimation (`joint = true`
/// additionally captures correlated readout inside each group).
pub fn build_group_matrices_with(
    snapshot: &BenchmarkSnapshot,
    grouping: &Grouping,
    measured: &QubitSet,
    joint: bool,
) -> Result<Vec<GroupMatrix>> {
    build_group_matrices_threaded(snapshot, grouping, measured, joint, 1)
}

/// [`build_group_matrices_with`] fanned out over the groups across up to
/// `threads` scoped workers. Each group's matrix is a pure function of the
/// snapshot and the group, and the results keep group order, so the output
/// is bit-identical at any thread count.
pub fn build_group_matrices_threaded(
    snapshot: &BenchmarkSnapshot,
    grouping: &Grouping,
    measured: &QubitSet,
    joint: bool,
    threads: usize,
) -> Result<Vec<GroupMatrix>> {
    let maybe = parallel::try_map_in_order(grouping, threads, |_, group| {
        group_noise_matrix_with(snapshot, group, measured, joint)
    })?;
    Ok(maybe.into_iter().flatten().collect())
}

/// Starts a phase stopwatch on a parallel worker — `None` (free) when the
/// telemetry collector is disabled.
fn phase_clock() -> Option<Instant> {
    qufem_telemetry::enabled().then(Instant::now)
}

/// Elapsed microseconds of a [`phase_clock`] stopwatch.
fn phase_micros(start: Option<Instant>) -> u64 {
    start.map_or(0, |s| s.elapsed().as_micros() as u64)
}

/// Convenience wrapper: characterize and calibrate in one call for
/// full-register measurements.
///
/// # Errors
///
/// Propagates characterization and calibration failures.
pub fn calibrate_once(device: &Device, config: QuFemConfig, dist: &ProbDist) -> Result<ProbDist> {
    let qufem = QuFem::characterize(device, config)?;
    qufem.calibrate(dist, &QubitSet::full(device.n_qubits()))
}

/// Per-iteration execution plans pre-resolved for one measured qubit set
/// (see [`QuFem::prepare`]): group matrices, bit extraction masks, and
/// pruning thresholds, shared read-only across every distribution
/// calibrated against them.
///
/// Every apply entry point runs through a pool of warmed [`ExecArena`]s
/// (shared across clones), so steady-state calibration performs no engine
/// heap allocations — only the `ProbDist` boundary conversions allocate.
/// Callers that keep their data indexed can use
/// [`PreparedCalibration::apply_arena`] and skip those too.
#[derive(Debug, Clone)]
pub struct PreparedCalibration {
    width: usize,
    plans: Vec<Arc<IterationPlan>>,
    arenas: Arc<ArenaPool>,
}

impl PreparedCalibration {
    /// Number of measured qubits the plans were prepared for (the required
    /// input distribution width).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Calibrates one distribution over the prepared measured set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the distribution width differs
    /// from the measured set size.
    pub fn apply(&self, dist: &ProbDist) -> Result<ProbDist> {
        let mut stats = EngineStats::default();
        self.apply_with_stats(dist, &mut stats)
    }

    /// [`PreparedCalibration::apply`] with engine instrumentation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the distribution width differs
    /// from the measured set size.
    pub fn apply_with_stats(&self, dist: &ProbDist, stats: &mut EngineStats) -> Result<ProbDist> {
        self.apply_indexed(dist, 1, stats)
    }

    /// [`PreparedCalibration::apply_with_stats`] with deterministic
    /// intra-distribution parallelism: the support of each iteration's
    /// input is sharded over `threads` scoped workers (see
    /// [`engine::execute_sharded`]). The output is **bit-identical** to the
    /// sequential path for any thread count, as are the merged stats.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the distribution width differs
    /// from the measured set size.
    pub fn apply_sharded(
        &self,
        dist: &ProbDist,
        threads: usize,
        stats: &mut EngineStats,
    ) -> Result<ProbDist> {
        self.apply_indexed(dist, threads, stats)
    }

    /// Shared implementation: index once, run the plan chain on a pooled
    /// [`ExecArena`] (re-canonicalizing between iterations so each execute
    /// consumes sorted input — the float-reproducibility contract), convert
    /// back once. All engine buffers come from the arena pool, so repeat
    /// calls allocate only at the `ProbDist` boundary.
    fn apply_indexed(
        &self,
        dist: &ProbDist,
        threads: usize,
        stats: &mut EngineStats,
    ) -> Result<ProbDist> {
        dist.check_width(self.width)?;
        let _span = qufem_telemetry::span!("calibrate", "QuFEM");
        let input = SupportIndex::from_dist(dist);
        let mut arena = self.arenas.checkout(threads.max(1));
        arena.run_chain(&self.plans, &input, threads);
        arena.local_stats().publish_to(&qufem_telemetry::GlobalSink);
        stats.merge(arena.local_stats());
        let out = arena.out().to_dist();
        self.arenas.put_back(arena);
        Ok(out)
    }

    /// The fully zero-allocation apply path: calibrates an already-indexed
    /// support (canonical sorted order, as produced by
    /// [`SupportIndex::from_dist`]) through a caller-held [`ExecArena`],
    /// returning a borrow of the arena's output index. After a warm-up call
    /// with a representative input, repeat calls perform **zero heap
    /// allocations** — `crates/core/tests/apply_zero_alloc.rs` pins this.
    ///
    /// Bit-identical to [`PreparedCalibration::apply_sharded`] at the same
    /// `threads` (which is itself bit-identical to the sequential path).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the input width differs from the
    /// measured set size.
    pub fn apply_arena<'a>(
        &self,
        input: &SupportIndex,
        threads: usize,
        stats: &mut EngineStats,
        arena: &'a mut ExecArena,
    ) -> Result<&'a SupportIndex> {
        if input.width() != self.width {
            return Err(Error::WidthMismatch { expected: self.width, actual: input.width() });
        }
        let _span = qufem_telemetry::span!("calibrate", "QuFEM");
        arena.run_chain(&self.plans, input, threads);
        arena.local_stats().publish_to(&qufem_telemetry::GlobalSink);
        stats.merge(arena.local_stats());
        Ok(arena.out())
    }

    /// Creates an arena sized for this calibration's configured parallelism,
    /// for use with [`PreparedCalibration::apply_arena`].
    pub fn new_arena(&self) -> ExecArena {
        ExecArena::with_shards(parallel::configured_threads())
    }

    /// Calibrates a batch of distributions in parallel with scoped threads.
    ///
    /// The prepared matrices are shared read-only across workers; results
    /// come back in input order. `threads` of 0 or 1 degrades to the
    /// sequential path. Engine statistics from all workers are merged into
    /// `stats`.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered (width mismatches).
    pub fn apply_batch(
        &self,
        dists: &[ProbDist],
        threads: usize,
        stats: &mut EngineStats,
    ) -> Result<Vec<ProbDist>> {
        if threads <= 1 || dists.len() <= 1 {
            return dists.iter().map(|d| self.apply_with_stats(d, stats)).collect();
        }
        let chunk_size = dists.len().div_ceil(threads);
        let chunk_results: Vec<Result<(Vec<ProbDist>, EngineStats)>> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = dists
                    .chunks(chunk_size)
                    .map(|chunk| {
                        scope.spawn(move |_| {
                            let mut local_stats = EngineStats::default();
                            let outs: Result<Vec<ProbDist>> = chunk
                                .iter()
                                .map(|d| self.apply_with_stats(d, &mut local_stats))
                                .collect();
                            outs.map(|o| (o, local_stats))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            })
            .expect("calibration workers never panic");

        let mut results = Vec::with_capacity(dists.len());
        for chunk in chunk_results {
            let (outs, local_stats) = chunk?;
            stats.merge(&local_stats);
            results.extend(outs);
        }
        Ok(results)
    }

    /// Number of calibration iterations.
    pub fn n_iterations(&self) -> usize {
        self.plans.len()
    }

    /// Total number of group matrices across iterations.
    pub fn n_matrices(&self) -> usize {
        self.plans.iter().map(|p| p.n_groups()).sum()
    }

    /// Approximate heap usage in bytes (Table 5 memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.plans.iter().map(|p| p.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_device::presets;
    use qufem_metrics::hellinger_fidelity;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fast_config() -> QuFemConfig {
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).seed(3).build().unwrap()
    }

    #[test]
    fn characterize_produces_requested_iterations() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        assert_eq!(qufem.iterations().len(), 2);
        assert_eq!(qufem.n_qubits(), 7);
        assert!(qufem.benchgen_report().is_some());
        for params in qufem.iterations() {
            assert!(partition::is_valid_partition(params.grouping(), 7, 2));
        }
    }

    #[test]
    fn calibration_improves_ghz_fidelity() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let ideal = qufem_circuits::ghz(7);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let noisy = device.measure_distribution(&ideal, &measured, 4000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap().clip_to_probabilities();
        let before = hellinger_fidelity(&noisy, &ideal);
        let after = hellinger_fidelity(&calibrated, &ideal);
        assert!(
            after > before,
            "calibration should improve fidelity: before {before:.4}, after {after:.4}"
        );
    }

    #[test]
    fn calibration_approximately_preserves_mass() {
        let device = presets::ibmq_7(2);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let ideal = qufem_circuits::ghz(7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap();
        assert!((calibrated.total_mass() - 1.0).abs() < 0.05);
    }

    #[test]
    fn batch_calibration_matches_sequential() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let prepared = qufem.prepare(&measured).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let dists: Vec<ProbDist> = (0..6u64)
            .map(|seed| {
                let ideal = qufem_circuits::Algorithm::Qsvm.ideal_distribution(7, seed);
                device.measure_distribution(&ideal, &measured, 500, &mut rng)
            })
            .collect();

        let mut seq_stats = EngineStats::default();
        let sequential: Vec<ProbDist> =
            dists.iter().map(|d| prepared.apply_with_stats(d, &mut seq_stats).unwrap()).collect();
        let mut par_stats = EngineStats::default();
        let parallel = prepared.apply_batch(&dists, 3, &mut par_stats).unwrap();

        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.sorted_pairs(), b.sorted_pairs());
        }
        // The crossbeam path merges one EngineStats per worker; every field
        // (counters, per-level census, peak support) must equal the
        // sequential accumulation exactly — merge order must not matter.
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn sharded_apply_matches_sequential_bit_for_bit() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let prepared = qufem.prepare(&measured).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let ideal = qufem_circuits::ghz(7);
        let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);

        let mut seq_stats = EngineStats::default();
        let sequential = prepared.apply_with_stats(&noisy, &mut seq_stats).unwrap();
        for threads in [2, 4, engine::configured_threads()] {
            let mut par_stats = EngineStats::default();
            let parallel = prepared.apply_sharded(&noisy, threads, &mut par_stats).unwrap();
            assert_eq!(seq_stats, par_stats, "stats diverge at {threads} threads");
            let (a, b) = (sequential.sorted_pairs(), parallel.sorted_pairs());
            assert_eq!(a.len(), b.len(), "support diverges at {threads} threads");
            for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
                assert_eq!(ka, kb, "key order diverges at {threads} threads");
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "value at {ka} diverges at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn batch_with_single_thread_degrades_gracefully() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let prepared = qufem.prepare(&measured).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ideal = qufem_circuits::ghz(7);
        let noisy = device.measure_distribution(&ideal, &measured, 500, &mut rng);
        let mut stats = EngineStats::default();
        let out = prepared.apply_batch(std::slice::from_ref(&noisy), 0, &mut stats).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sorted_pairs(), prepared.apply(&noisy).unwrap().sorted_pairs());
    }

    #[test]
    fn batch_propagates_width_errors() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let prepared = qufem.prepare(&measured).unwrap();
        let wrong = ProbDist::point_mass(BitString::zeros(3));
        let mut stats = EngineStats::default();
        assert!(prepared.apply_batch(&[wrong], 4, &mut stats).is_err());
    }

    #[test]
    fn prepared_calibration_reusable_across_distributions() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let prepared = qufem.prepare(&measured).unwrap();
        assert_eq!(prepared.n_iterations(), 2);
        assert!(prepared.n_matrices() > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for seed in 0..3u64 {
            let ideal = qufem_circuits::Algorithm::Vqc.ideal_distribution(7, seed);
            let noisy = device.measure_distribution(&ideal, &measured, 1000, &mut rng);
            let a = prepared.apply(&noisy).unwrap();
            let b = qufem.calibrate(&noisy, &measured).unwrap();
            assert_eq!(a.sorted_pairs(), b.sorted_pairs());
        }
    }

    #[test]
    fn prepared_memo_cap_is_tunable_and_shared_across_clones() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        assert_eq!(qufem.prepared_memo_cap(), DEFAULT_PREPARED_MEMO_CAP);
        let clone = qufem.clone();
        qufem.set_prepared_memo_cap(2);
        assert_eq!(clone.prepared_memo_cap(), 2);
        // Clamped: a zero cap would make the memo useless.
        qufem.set_prepared_memo_cap(0);
        assert_eq!(qufem.prepared_memo_cap(), 1);
        // Cap 1: a second distinct set clears the memo, so re-preparing the
        // first set yields a fresh (different) Arc.
        let a: QubitSet = [0usize, 1].into_iter().collect();
        let b: QubitSet = [2usize, 3].into_iter().collect();
        let first = qufem.prepared(&a).unwrap();
        assert!(Arc::ptr_eq(&first, &qufem.prepared(&a).unwrap()));
        let _ = qufem.prepared(&b).unwrap();
        assert!(!Arc::ptr_eq(&first, &qufem.prepared(&a).unwrap()));
    }

    #[test]
    fn partial_measurement_calibration() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured: QubitSet = [1usize, 3, 5].into_iter().collect();
        let ideal = qufem_circuits::ghz(3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let noisy = device.measure_distribution(&ideal, &measured, 4000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap().clip_to_probabilities();
        let before = hellinger_fidelity(&noisy, &ideal);
        let after = hellinger_fidelity(&calibrated, &ideal);
        assert!(after >= before - 1e-6, "partial calibration must not hurt: {before} → {after}");
    }

    #[test]
    fn width_mismatch_is_reported() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let wrong = ProbDist::point_mass(BitString::zeros(3));
        assert!(matches!(qufem.calibrate(&wrong, &measured), Err(Error::WidthMismatch { .. })));
    }

    #[test]
    fn out_of_range_measured_set_is_reported() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured: QubitSet = [0usize, 9].into_iter().collect();
        assert!(matches!(
            qufem.prepare(&measured),
            Err(Error::QubitOutOfRange { index: 9, width: 7 })
        ));
    }

    #[test]
    fn effective_matrix_close_to_golden() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured: QubitSet = [0usize, 1, 2].into_iter().collect();
        let effective = qufem.effective_noise_matrix(&measured, 6).unwrap();
        let golden = device.golden_noise_matrix(&measured, 6).unwrap();
        let d = qufem_metrics::hilbert_schmidt_distance(&golden, &effective);
        assert!(d < 0.05, "HS distance to golden should be small, got {d}");
        assert!(effective.is_column_stochastic(0.05));
    }

    #[test]
    fn random_grouping_ablation_still_calibrates() {
        let device = presets::ibmq_7(4);
        let config = QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(500)
            .random_grouping(true)
            .seed(4)
            .build()
            .unwrap();
        let qufem = QuFem::characterize(&device, config).unwrap();
        let measured = QubitSet::full(7);
        let ideal = qufem_circuits::ghz(7);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let noisy = device.measure_distribution(&ideal, &measured, 4000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap().clip_to_probabilities();
        assert!(hellinger_fidelity(&calibrated, &ideal) > 0.5);
    }

    #[test]
    fn characterization_is_deterministic_in_seed() {
        let device_a = presets::ibmq_7(1);
        let device_b = presets::ibmq_7(1);
        let a = QuFem::characterize(&device_a, fast_config()).unwrap();
        let b = QuFem::characterize(&device_b, fast_config()).unwrap();
        for (pa, pb) in a.iterations().iter().zip(b.iterations()) {
            assert_eq!(pa.grouping(), pb.grouping());
        }
    }
}
