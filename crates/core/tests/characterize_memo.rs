//! Counts the matrix work of the characterization flow through the global
//! telemetry collector. The collector is process-global, so this suite is
//! its own test binary with a single test.
//!
//! Within one iteration a group's sub-noise matrix depends on a record's
//! measured set only through `g∩ = group ∩ measured` (paper Eq. 10–11), so
//! `QuFem::from_snapshot` builds one matrix per distinct `(group, g∩)`
//! pair, not one per (measured set, group). Plans stay one per distinct
//! measured set.

use qufem_core::{benchgen, QuFem, QuFemConfig};
use qufem_device::presets;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

#[test]
fn one_matrix_per_distinct_group_intersection_per_iteration() {
    let device = presets::quafu_18(0);
    let config = QuFemConfig::builder().shots(300).seed(11).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let snapshot = benchgen::generate_random_budget(&device, 40, 300, &mut rng);

    qufem_telemetry::reset();
    qufem_telemetry::enable();
    let qufem = QuFem::from_snapshot_with_threads(snapshot, config, 2).unwrap();
    let counters = qufem_telemetry::snapshot();
    qufem_telemetry::disable();

    let mut distinct_pairs = 0u64;
    let mut per_set_matrices = 0u64;
    let mut distinct_sets = 0u64;
    for params in qufem.iterations() {
        let sets: HashSet<_> =
            params.snapshot().records().iter().map(|r| r.measured_set()).collect();
        let mut pairs = HashSet::new();
        for measured in &sets {
            for (g, group) in params.grouping().iter().enumerate() {
                let g_cap = group.intersection(measured);
                if !g_cap.is_empty() {
                    per_set_matrices += 1;
                    pairs.insert((g, g_cap));
                }
            }
        }
        distinct_pairs += pairs.len() as u64;
        distinct_sets += sets.len() as u64;
    }

    assert_eq!(counters.counter("noisematrix.submatrices"), distinct_pairs);
    assert!(
        distinct_pairs < per_set_matrices,
        "the input must share pairs across measured sets for the memo to show \
         ({distinct_pairs} distinct of {per_set_matrices})"
    );
    assert_eq!(counters.counter("characterize.plan_builds"), distinct_sets);
    assert_eq!(counters.counter("characterize.records"), 2 * 40);
}
