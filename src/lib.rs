//! # qufem — quantum readout calibration with the finite element method
//!
//! Facade crate for the QuFEM workspace, a Rust reproduction of
//! *"QuFEM: Fast and Accurate Quantum Readout Calibration Using the Finite
//! Element Method"* (ASPLOS 2024). It re-exports the public API of every
//! sub-crate so downstream users can depend on `qufem` alone:
//!
//! * [`QuFem`] / [`QuFemConfig`] — the calibration pipeline itself
//!   (characterization flow + calibration flow).
//! * [`device`] — simulated quantum devices with crosstalk readout noise
//!   and the Table 2 presets.
//! * [`baselines`] — golden, IBU, M3, CTMP, Q-BEEP comparison methods
//!   behind the common [`Mitigator`] trait, plus the
//!   [`baselines::standard_registry`] wiring them into a [`MethodRegistry`].
//! * [`circuits`] — benchmark-algorithm ideal outputs and synthetic
//!   distribution generators.
//! * [`metrics`] — Hellinger fidelity, relative fidelity, TVD,
//!   Hilbert–Schmidt distance.
//! * [`BitString`] / [`ProbDist`] / [`QubitSet`] — core data types.
//!
//! # Quickstart
//!
//! ```
//! use qufem::{QuFem, QuFemConfig, QubitSet};
//! use qufem::device::presets;
//! use qufem::metrics::hellinger_fidelity;
//! use rand::SeedableRng;
//!
//! // A simulated 7-qubit device standing in for real hardware.
//! let device = presets::ibmq_7(42);
//!
//! // Characterize the readout noise (runs benchmarking circuits).
//! let config = QuFemConfig::builder()
//!     .characterization_threshold(5e-4) // loose α for a fast doc test
//!     .shots(500)
//!     .build()?;
//! let qufem = QuFem::characterize(&device, config)?;
//!
//! // Measure a GHZ circuit and calibrate the result.
//! let measured = QubitSet::full(7);
//! let ideal = qufem::circuits::ghz(7);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);
//! let calibrated = qufem.calibrate(&noisy, &measured)?.project_to_probabilities();
//!
//! assert!(hellinger_fidelity(&calibrated, &ideal) > hellinger_fidelity(&noisy, &ideal));
//! # Ok::<(), qufem::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use qufem_core::{
    benchgen, build_group_matrices, calibrate_once, configured_threads, engine, partition,
    BenchmarkRecord, BenchmarkSnapshot, EngineStats, GroupMatrix, Grouping, HotInteraction,
    IdealCondition, InteractionTable, IterationData, IterationParams, IterationPlan, MethodOptions,
    MethodRegistry, Mitigator, MitigatorCache, PreparedCalibration, PreparedMitigator, QuFem,
    QuFemConfig, QuFemConfigBuilder, QuFemData, RecordData, SnapshotLineage, VersionedSnapshot,
    DEFAULT_DEVICE_ID, DEFAULT_PREPARED_MEMO_CAP,
};
pub use qufem_types::{BitString, Error, ProbDist, QubitSet, Result, SupportIndex};

/// Readout-calibration baselines (golden, IBU, M3, CTMP, Q-BEEP).
pub mod baselines {
    pub use qufem_baselines::*;
}

/// Quantum algorithm workloads and synthetic distributions.
pub mod circuits {
    pub use qufem_circuits::*;
}

/// Simulated quantum devices and noise models.
pub mod device {
    pub use qufem_device::*;
}

/// Dense linear algebra (matrices, LU, GMRES).
pub mod linalg {
    pub use qufem_linalg::*;
}

/// Distribution and matrix distance metrics.
pub mod metrics {
    pub use qufem_metrics::*;
}

/// Deterministic traffic replay for the serving stack (DESIGN §4.16).
pub mod loadgen {
    pub use qufem_loadgen::*;
}

/// TCP JSON-lines calibration service (server + client).
pub mod serve {
    pub use qufem_serve::*;
}
