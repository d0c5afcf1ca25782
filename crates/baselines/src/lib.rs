//! Readout-calibration baselines used in the QuFEM evaluation (paper §6.1).
//!
//! Five comparison methods, all behind the method-generic
//! [`qufem_core::Mitigator`] trait (re-exported here):
//!
//! | Type | Paper reference | Character |
//! |---|---|---|
//! | [`Golden`] | Eq. 3–4 baseline | exact full `2^n` noise matrix; exponential |
//! | [`Ibu`] | \[50\] | qubit-independent matrices + iterative Bayesian unfolding |
//! | [`M3`] | \[37\] | observed-subspace matrix, Hamming-distance pruning, GMRES |
//! | [`Ctmp`] | \[9\] | qubit-independent tensor-product inversion |
//! | [`QBeep`] | \[53\] | Bayesian reallocation over the Hamming spectrum |
//!
//! The qubit-independent methods cannot represent crosstalk by construction;
//! the Hamming-spectrum methods blow up combinatorially — exactly the foils
//! the paper's evaluation needs. Implementation notes for where these
//! reimplementations simplify the originals live in `DESIGN.md`.
//!
//! [`standard_registry`] wires every snapshot-constructible method (QuFEM
//! plus the four qubit-independent baselines) into one
//! [`MethodRegistry`], so consumers — the serve daemon, the bench drivers —
//! can instantiate any of them by string id from a persisted
//! [`qufem_core::BenchmarkSnapshot`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ctmp;
mod golden;
mod ibu;
mod m3;
mod qbeep;
mod tensor;

pub use ctmp::Ctmp;
pub use golden::Golden;
pub use ibu::Ibu;
pub use m3::M3;
pub use qbeep::QBeep;
pub use tensor::QubitMatrices;

pub use qufem_core::{MethodOptions, MethodRegistry, Mitigator, PreparedMitigator};

use qufem_core::{EngineStats, QuFemConfig};
use qufem_types::{Error, ProbDist, Result};
use std::fmt;
use std::sync::Arc;

/// The boxed apply closure a [`PreparedStateless`] wraps.
type ApplyFn = Box<dyn Fn(&ProbDist) -> Result<ProbDist> + Send + Sync>;

/// [`PreparedMitigator`] adapter for the stateless baselines: a boxed apply
/// closure (a method clone bound to one measured set) plus the metadata the
/// trait exposes. All four qubit-independent baselines prepare into this —
/// their "preparation" is just pinning the measured positions; the real
/// work happens per apply.
pub(crate) struct PreparedStateless {
    name: &'static str,
    width: usize,
    heap: usize,
    apply: ApplyFn,
}

impl PreparedStateless {
    pub(crate) fn boxed(
        name: &'static str,
        width: usize,
        heap: usize,
        apply: impl Fn(&ProbDist) -> Result<ProbDist> + Send + Sync + 'static,
    ) -> Arc<dyn PreparedMitigator> {
        Arc::new(PreparedStateless { name, width, heap, apply: Box::new(apply) })
    }
}

impl fmt::Debug for PreparedStateless {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedStateless")
            .field("name", &self.name)
            .field("width", &self.width)
            .finish()
    }
}

impl PreparedMitigator for PreparedStateless {
    fn width(&self) -> usize {
        self.width
    }

    fn apply_with_stats(&self, dist: &ProbDist, _stats: &mut EngineStats) -> Result<ProbDist> {
        let _span = qufem_telemetry::span!("calibrate", self.name);
        (self.apply)(dist)
    }

    fn heap_bytes(&self) -> usize {
        self.heap
    }
}

fn unknown_option(method: &str, key: &str) -> Error {
    Error::InvalidConfig(format!("unknown {method} option '{key}'"))
}

/// The standard method registry: QuFEM (id `"qufem"`) plus every
/// snapshot-constructible baseline — `"ibu"`, `"m3"`, `"ctmp"`, `"qbeep"`.
/// `base` seeds the QuFEM configuration (overridable per build via
/// [`MethodOptions`]); the baselines estimate their per-qubit matrices from
/// the same snapshot via [`QubitMatrices::from_snapshot`].
///
/// [`Golden`] is deliberately absent: it needs exhaustive per-measured-set
/// device characterization (`2^m` circuits) and cannot be built from a
/// snapshot alone.
///
/// Baseline options (all numeric): `ibu` takes `max_iterations`,
/// `tolerance`, `domain_radius`, `max_domain`; `m3` takes
/// `hamming_threshold`, `max_subspace`; `ctmp` takes `cutoff`; `qbeep`
/// takes `iterations`, `max_nodes`. Unknown keys are rejected with
/// [`Error::InvalidConfig`].
pub fn standard_registry(base: QuFemConfig) -> MethodRegistry {
    let mut registry = MethodRegistry::with_qufem(base);
    registry.register("ibu", |snapshot, options| {
        let mut ibu = Ibu::from_benchmarks(snapshot)?;
        for (key, &value) in options {
            match key.as_str() {
                "max_iterations" => ibu.max_iterations = value as usize,
                "tolerance" => ibu.tolerance = value,
                "domain_radius" => ibu.domain_radius = value as usize,
                "max_domain" => ibu.max_domain = value as usize,
                _ => return Err(unknown_option("ibu", key)),
            }
        }
        Ok(Arc::new(ibu) as Arc<dyn Mitigator>)
    });
    registry.register("m3", |snapshot, options| {
        let mut m3 = M3::from_benchmarks(snapshot)?;
        for (key, &value) in options {
            match key.as_str() {
                "hamming_threshold" => m3.hamming_threshold = value as usize,
                "max_subspace" => m3.max_subspace = value as usize,
                _ => return Err(unknown_option("m3", key)),
            }
        }
        Ok(Arc::new(m3) as Arc<dyn Mitigator>)
    });
    registry.register("ctmp", |snapshot, options| {
        let mut ctmp = Ctmp::from_benchmarks(snapshot)?;
        for (key, &value) in options {
            match key.as_str() {
                "cutoff" => ctmp.cutoff = value,
                _ => return Err(unknown_option("ctmp", key)),
            }
        }
        Ok(Arc::new(ctmp) as Arc<dyn Mitigator>)
    });
    registry.register("qbeep", |snapshot, options| {
        let mut qbeep = QBeep::from_benchmarks(snapshot)?;
        for (key, &value) in options {
            match key.as_str() {
                "iterations" => qbeep.iterations = value as usize,
                "max_nodes" => qbeep.max_nodes = value as usize,
                _ => return Err(unknown_option("qbeep", key)),
            }
        }
        Ok(Arc::new(qbeep) as Arc<dyn Mitigator>)
    });
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_core::QuFem;
    use qufem_device::presets;
    use qufem_types::{BitString, QubitSet};

    fn fast_config() -> QuFemConfig {
        QuFemConfig::builder().characterization_threshold(5e-4).shots(300).seed(3).build().unwrap()
    }

    #[test]
    fn qufem_implements_mitigator() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let m: &dyn Mitigator = &qufem;
        assert_eq!(m.name(), "QuFEM");
        assert!(m.n_benchmark_circuits() >= 28);
        assert!(m.heap_bytes() > 0);
    }

    #[test]
    fn standard_registry_registers_all_snapshot_methods() {
        let registry = standard_registry(fast_config());
        assert_eq!(registry.ids(), vec!["ctmp", "ibu", "m3", "qbeep", "qufem"]);
        assert!(!registry.contains("golden"));
    }

    #[test]
    fn every_registered_method_calibrates_from_one_snapshot() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let snapshot = qufem.iterations()[0].snapshot().clone();
        let registry = standard_registry(fast_config());
        let measured = QubitSet::full(7);
        let noisy = ProbDist::from_pairs(
            7,
            [
                (BitString::from_binary_str("0000000").unwrap(), 0.55),
                (BitString::from_binary_str("1111111").unwrap(), 0.35),
                (BitString::from_binary_str("0000001").unwrap(), 0.10),
            ],
        )
        .unwrap();
        for id in registry.ids() {
            let method = registry.build(&id, &snapshot, &MethodOptions::new()).unwrap();
            if id != "qufem" {
                // Snapshot-built baselines report the snapshot's circuit
                // count; a replayed QuFem reports 0 (no device execution).
                assert!(method.n_benchmark_circuits() > 0, "{id} should report snapshot circuits");
            }
            let prepared = method.prepare(&measured).unwrap();
            assert_eq!(prepared.width(), 7, "{id} prepared width");
            let out = prepared.apply(&noisy).unwrap();
            assert!(out.support_len() > 0, "{id} must produce output");
            // Trait-default calibrate must agree with explicit prepare+apply.
            let direct = method.calibrate(&noisy, &measured).unwrap();
            assert_eq!(out.sorted_pairs(), direct.sorted_pairs(), "{id} prepare/apply split");
        }
    }

    #[test]
    fn registry_per_method_options_are_validated() {
        let registry = standard_registry(fast_config());
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let snapshot = qufem.iterations()[0].snapshot().clone();
        let mut options = MethodOptions::new();
        options.insert("hamming_threshold".into(), 2.0);
        assert!(registry.build("m3", &snapshot, &options).is_ok());
        assert!(
            registry.build("ibu", &snapshot, &options).is_err(),
            "m3-only option must be rejected by ibu"
        );
    }
}
