//! Quantifying qubit interactions from benchmarking data (paper Eq. 8–9, 12).

use crate::snapshot::{BenchmarkSnapshot, IdealCondition};

/// Accumulator of readout-error statistics conditioned on one qubit's state.
#[derive(Debug, Clone, Copy, Default)]
struct ErrorStat {
    sum: f64,
    count: usize,
}

impl ErrorStat {
    fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// One interaction exceeding the characterization threshold: the benchmark
/// generator must pin `source` to `source_state` and prepare `target` in
/// `target_state` in its next circuits (paper §4.1, Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotInteraction {
    /// The qubit whose operation perturbs the target.
    pub source: usize,
    /// The source condition (`0`, `1`, or unmeasured).
    pub source_state: IdealCondition,
    /// The qubit whose readout error is perturbed.
    pub target: usize,
    /// The target's prepared state.
    pub target_state: bool,
    /// The metric `θ = interact / num` (paper Eq. 12).
    pub theta: f64,
}

/// The interaction table of one characterization iteration.
///
/// For every ordered qubit pair and operation combination it tracks
///
/// ```text
/// interact(q_i.ideal = x → q_j.ideal = y) =
///     | P(q_j.ef = 1 | q_i.ideal = x, q_j.ideal = y) − P(q_j.ef = 1 | q_j.ideal = y) |
/// ```
///
/// (paper Eq. 8) together with `num`, the number of benchmarking circuits
/// that observed the combination, from which `θ = interact / num` (Eq. 12)
/// and the pairwise graph weights (Eq. 9) are derived.
///
/// Both accumulator sets are dense arrays indexed by qubit and condition
/// (`2·n` base cells, `6·n²` conditional cells — 1.8 MB at 136 qubits), so
/// folding a record is plain indexed arithmetic and every read, including
/// [`InteractionTable::average_interact`], walks a fixed index order.
#[derive(Debug, Clone)]
pub struct InteractionTable {
    n_qubits: usize,
    /// `P(q.ef = 1 | q.ideal = y)` accumulators at [`base_index`]`(q, y)`.
    base: Vec<ErrorStat>,
    /// Conditional accumulators at
    /// [`cond_index`]`(n, source, source_state, target, target_state)`.
    cond: Vec<ErrorStat>,
}

/// The three source conditions, in their dense-index order.
const STATES: [IdealCondition; 3] =
    [IdealCondition::Zero, IdealCondition::One, IdealCondition::Unmeasured];

fn state_index(x: IdealCondition) -> usize {
    match x {
        IdealCondition::Zero => 0,
        IdealCondition::One => 1,
        IdealCondition::Unmeasured => 2,
    }
}

fn base_index(target: usize, target_state: bool) -> usize {
    2 * target + target_state as usize
}

/// Conditional cells are laid out `[target][target_state][source][x]`, so
/// the per-target source sweep of [`InteractionTable::add_record`] touches
/// one contiguous `3·n` row.
fn cond_index(
    n: usize,
    source: usize,
    source_state: IdealCondition,
    target: usize,
    target_state: bool,
) -> usize {
    (base_index(target, target_state) * n + source) * 3 + state_index(source_state)
}

impl InteractionTable {
    /// Creates an empty table for an `n_qubits` device. Feed it records
    /// incrementally with [`InteractionTable::add_record`] — the adaptive
    /// benchmark generator relies on this to avoid rescanning the whole
    /// snapshot every round.
    pub fn new(n_qubits: usize) -> Self {
        InteractionTable {
            n_qubits,
            base: vec![ErrorStat::default(); 2 * n_qubits],
            cond: vec![ErrorStat::default(); 6 * n_qubits * n_qubits],
        }
    }

    /// Builds the table by scanning every record in the snapshot once.
    pub fn build(snapshot: &BenchmarkSnapshot) -> Self {
        let mut table = Self::new(snapshot.n_qubits());
        for record in snapshot.records() {
            table.add_record(record);
        }
        qufem_telemetry::gauge_max("interaction.table_entries", table.observed_cells() as f64);
        table
    }

    /// Number of accumulator cells that have observed at least one circuit.
    fn observed_cells(&self) -> usize {
        self.base.iter().chain(&self.cond).filter(|s| s.count > 0).count()
    }

    /// Folds one benchmarking record into the accumulators.
    ///
    /// # Panics
    ///
    /// Panics if the record's circuit width differs from the table's.
    pub fn add_record(&mut self, record: &crate::snapshot::BenchmarkRecord) {
        let n = self.n_qubits;
        assert_eq!(record.circuit().width(), n, "record width must match the table");
        // Per-record source conditions, computed once.
        let source_states: Vec<usize> = (0..n)
            .map(|q| {
                let op = record.circuit().op(q);
                state_index(if op.is_measured() {
                    IdealCondition::measured(op.ideal_bit())
                } else {
                    IdealCondition::Unmeasured
                })
            })
            .collect();

        for &target in record.positions() {
            let ef = record.error_prob_of(target).expect("positions() only lists measured qubits");
            let y = record.circuit().op(target).ideal_bit();
            let b = &mut self.base[base_index(target, y)];
            b.sum += ef;
            b.count += 1;
            let row_start = cond_index(n, 0, IdealCondition::Zero, target, y);
            let row = &mut self.cond[row_start..row_start + 3 * n];
            for (source, &x) in source_states.iter().enumerate() {
                if source == target {
                    continue;
                }
                let c = &mut row[3 * source + x];
                c.sum += ef;
                c.count += 1;
            }
        }
    }

    /// Number of device qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn cond_stat(
        &self,
        source: usize,
        source_state: IdealCondition,
        target: usize,
        target_state: bool,
    ) -> &ErrorStat {
        // An out-of-range source would alias a neighbouring row, not fail.
        assert!(source < self.n_qubits && target < self.n_qubits, "qubit index out of range");
        &self.cond[cond_index(self.n_qubits, source, source_state, target, target_state)]
    }

    /// The interaction strength of paper Eq. 8, or `None` if the combination
    /// was never observed.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` is not a device qubit.
    pub fn interact(
        &self,
        source: usize,
        source_state: IdealCondition,
        target: usize,
        target_state: bool,
    ) -> Option<f64> {
        let cond = self.cond_stat(source, source_state, target, target_state).mean()?;
        let base = self.base[base_index(target, target_state)].mean()?;
        Some((cond - base).abs())
    }

    /// The number of circuits observing the combination (`num` of Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` is not a device qubit.
    pub fn num(
        &self,
        source: usize,
        source_state: IdealCondition,
        target: usize,
        target_state: bool,
    ) -> usize {
        self.cond_stat(source, source_state, target, target_state).count
    }

    /// The pairwise graph weight of paper Eq. 9: the sum of all interaction
    /// strengths in both directions over `x ∈ {0, 1, ∅}`, `y ∈ {0, 1}`.
    pub fn weight(&self, a: usize, b: usize) -> f64 {
        let mut w = 0.0;
        for &(src, dst) in &[(a, b), (b, a)] {
            for &x in &STATES {
                for &y in &[false, true] {
                    if let Some(i) = self.interact(src, x, dst, y) {
                        w += i;
                    }
                }
            }
        }
        w
    }

    /// All interactions whose `θ = interact / num` exceeds `alpha`, sorted
    /// by descending `θ` (the work list of the adaptive benchmark generator,
    /// paper §4.1). Combinations never observed (`num = 0`) are reported
    /// with `θ = ∞` so they are always sampled first.
    pub fn hot_interactions(&self, alpha: f64) -> Vec<HotInteraction> {
        let mut hot = Vec::new();
        for source in 0..self.n_qubits {
            for target in 0..self.n_qubits {
                if source == target {
                    continue;
                }
                for &x in &STATES {
                    for &y in &[false, true] {
                        let n = self.num(source, x, target, y);
                        let theta = if n == 0 {
                            f64::INFINITY
                        } else {
                            match self.interact(source, x, target, y) {
                                Some(i) => i / n as f64,
                                None => continue,
                            }
                        };
                        if theta > alpha {
                            hot.push(HotInteraction {
                                source,
                                source_state: x,
                                target,
                                target_state: y,
                                theta,
                            });
                        }
                    }
                }
            }
        }
        hot.sort_by(|a, b| {
            b.theta
                .partial_cmp(&a.theta)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.source, a.target).cmp(&(b.source, b.target)))
        });
        hot
    }

    /// Average interaction strength across all observed combinations — the
    /// `interact` scale parameter of the paper's complexity analysis (§5).
    /// Sums in dense-index order, so the value is bit-reproducible.
    pub fn average_interact(&self) -> f64 {
        let n = self.n_qubits;
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, stat) in self.cond.iter().enumerate() {
            // Row `i / (3n)` is the (target, target_state) base cell.
            if let (Some(c), Some(b)) = (stat.mean(), self.base[i / (3 * n)].mean()) {
                sum += (c - b).abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::BenchmarkRecord;
    use qufem_device::{BenchmarkCircuit, QubitOp};
    use qufem_types::{BitString, ProbDist};

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    /// Two-qubit snapshot where q1's state visibly perturbs q0's error:
    /// when q1 = |1⟩, q0's error rate is 0.10; when q1 = |0⟩ it is 0.02.
    fn crosstalk_snapshot() -> BenchmarkSnapshot {
        let mut snap = BenchmarkSnapshot::new(2);
        // Circuit A: both prepared 0, measured. q0 error 0.02.
        let a = BenchmarkCircuit::new(vec![QubitOp::Prepare0Measured, QubitOp::Prepare0Measured]);
        let da = ProbDist::from_pairs(2, [(bs("00"), 0.98), (bs("10"), 0.02)]).unwrap();
        snap.push(BenchmarkRecord::new(a, da));
        // Circuit B: q0 prepared 0, q1 prepared 1. q0 error 0.10.
        let b = BenchmarkCircuit::new(vec![QubitOp::Prepare0Measured, QubitOp::Prepare1Measured]);
        let db = ProbDist::from_pairs(2, [(bs("01"), 0.90), (bs("11"), 0.10)]).unwrap();
        snap.push(BenchmarkRecord::new(b, db));
        snap
    }

    #[test]
    fn interact_detects_state_dependence() {
        let table = InteractionTable::build(&crosstalk_snapshot());
        // Base error of q0 with ideal 0: mean(0.02, 0.10) = 0.06.
        // Conditional on q1 = 1: 0.10 → interact = |0.10 − 0.06| = 0.04.
        let i = table.interact(1, IdealCondition::One, 0, false).unwrap();
        assert!((i - 0.04).abs() < 1e-12);
        let i0 = table.interact(1, IdealCondition::Zero, 0, false).unwrap();
        assert!((i0 - 0.04).abs() < 1e-12);
    }

    #[test]
    fn num_counts_observations() {
        let table = InteractionTable::build(&crosstalk_snapshot());
        assert_eq!(table.num(1, IdealCondition::One, 0, false), 1);
        assert_eq!(table.num(1, IdealCondition::Zero, 0, false), 1);
        assert_eq!(table.num(1, IdealCondition::Unmeasured, 0, false), 0);
    }

    #[test]
    fn weight_is_symmetric_and_positive_under_crosstalk() {
        let table = InteractionTable::build(&crosstalk_snapshot());
        let w = table.weight(0, 1);
        assert!(w > 0.0);
        assert_eq!(w, table.weight(1, 0));
    }

    #[test]
    fn unobserved_combinations_are_hot() {
        let table = InteractionTable::build(&crosstalk_snapshot());
        let hot = table.hot_interactions(1e-9);
        // The unmeasured source conditions were never observed → θ = ∞ first.
        assert!(hot[0].theta.is_infinite());
        assert!(hot.iter().any(|h| h.source_state == IdealCondition::Unmeasured));
    }

    #[test]
    fn theta_shrinks_with_more_circuits() {
        let mut snap = crosstalk_snapshot();
        let table1 = InteractionTable::build(&snap);
        let theta1 = {
            let i = table1.interact(1, IdealCondition::One, 0, false).unwrap();
            i / table1.num(1, IdealCondition::One, 0, false) as f64
        };
        // Duplicate the records: num doubles, interact stays, θ halves.
        for r in crosstalk_snapshot().records().to_vec() {
            snap.push(r);
        }
        let table2 = InteractionTable::build(&snap);
        let theta2 = {
            let i = table2.interact(1, IdealCondition::One, 0, false).unwrap();
            i / table2.num(1, IdealCondition::One, 0, false) as f64
        };
        assert!((theta2 - theta1 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn hot_interactions_respect_threshold() {
        let table = InteractionTable::build(&crosstalk_snapshot());
        // With a huge alpha nothing observed qualifies, but never-observed
        // combinations (θ = ∞) always do.
        let hot = table.hot_interactions(1e9);
        assert!(hot.iter().all(|h| h.theta.is_infinite()));
    }

    #[test]
    fn average_interact_nonnegative() {
        let table = InteractionTable::build(&crosstalk_snapshot());
        assert!(table.average_interact() >= 0.0);
    }

    #[test]
    fn average_interact_is_bit_reproducible() {
        // Thousands of observed cells: a sum over hash-map iteration order
        // would differ between two builds in the last bits.
        let device = qufem_device::presets::quafu_18(0);
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(2);
        let snap = crate::benchgen::generate_random_budget(&device, 40, 200, &mut rng);
        let a = InteractionTable::build(&snap);
        let b = InteractionTable::build(&snap);
        assert!(a.observed_cells() > 1000);
        assert_eq!(a.average_interact().to_bits(), b.average_interact().to_bits());
    }

    #[test]
    fn observed_cells_count_only_seen_combinations() {
        let table = InteractionTable::build(&crosstalk_snapshot());
        // Three base cells (q0 prepared |0⟩; q1 prepared |0⟩ and |1⟩) and
        // four conditional cells, one per (record, target): all distinct.
        assert_eq!(table.observed_cells(), 3 + 4);
        assert_eq!(InteractionTable::new(3).observed_cells(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let table = InteractionTable::build(&crosstalk_snapshot());
        let _ = table.num(2, IdealCondition::Zero, 0, false);
    }

    #[test]
    fn empty_snapshot_gives_empty_table() {
        let table = InteractionTable::build(&BenchmarkSnapshot::new(3));
        assert_eq!(table.interact(0, IdealCondition::One, 1, false), None);
        assert_eq!(table.weight(0, 1), 0.0);
        assert_eq!(table.average_interact(), 0.0);
    }
}
