//! Pinned digests of the characterization flow.
//!
//! The digests below were recorded from the characterization code before
//! its dense interaction table, per-iteration group-matrix memo and in-fan-out
//! record rebuild landed; those changes promise *every output bit
//! unchanged*, so the same inputs must keep producing the same:
//!
//! * exported JSON bytes (`QuFem::export`, groupings plus every `BP_i`),
//! * per-record marginals `P(q = 1)` of every stored `BP_i`, by float bits,
//! * merged characterization `EngineStats`.
//!
//! Two devices are pinned: `quafu-18` through the full adaptive
//! `characterize` flow (benchmark generation included), and `quafu-136`
//! through `from_snapshot` on a fixed random benchmark budget, so bit
//! strings span two 64-bit words. CI runs this suite under
//! `QUFEM_THREADS ∈ {1, 4}`; the digests must match at every thread count.

use qufem_core::{benchgen, Digest64, QuFem, QuFemConfig};
use qufem_device::presets;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The three digests of one characterization, as 16-digit hex strings.
#[derive(Debug, PartialEq)]
struct Digests {
    export: String,
    marginals: String,
    stats: String,
}

fn digests(qufem: &QuFem) -> Digests {
    let export = serde_json::to_string(&qufem.export()).unwrap();
    let mut d = Digest64::new();
    d.write_str(&export);

    let mut m = Digest64::new();
    for params in qufem.iterations() {
        for record in params.snapshot().records() {
            m.write_u64(record.positions().len() as u64);
            for &q in record.positions() {
                m.write_u64(q as u64);
                m.write_f64(record.marginal_one_of(q).unwrap());
            }
        }
    }

    let mut s = Digest64::new();
    s.write_str(&serde_json::to_string(qufem.characterization_engine_stats()).unwrap());

    Digests { export: d.hex(), marginals: m.hex(), stats: s.hex() }
}

fn threads() -> usize {
    qufem_core::parallel::configured_threads()
}

#[test]
fn quafu_18_characterization_digests_are_pinned() {
    let config =
        QuFemConfig::builder().characterization_threshold(2e-3).shots(200).seed(3).build().unwrap();
    let qufem = QuFem::characterize_with_threads(&presets::quafu_18(0), config, threads()).unwrap();
    let got = digests(&qufem);
    assert_eq!(
        got,
        Digests {
            export: "ea115813f99eda20".into(),
            marginals: "e3469ea3e951faee".into(),
            stats: "cdc7b20c59ca3141".into(),
        }
    );
}

#[test]
fn quafu_136_from_snapshot_digests_are_pinned() {
    let device = presets::quafu_136(0);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let snapshot = benchgen::generate_random_budget(&device, 8, 400, &mut rng);
    let config = QuFemConfig::builder().shots(400).seed(5).build().unwrap();
    let qufem = QuFem::from_snapshot_with_threads(snapshot, config, threads()).unwrap();
    let got = digests(&qufem);
    assert_eq!(
        got,
        Digests {
            export: "34b1179319c7cdb3".into(),
            marginals: "d788911328773a5e".into(),
            stats: "ebcfa05ce254d389".into(),
        }
    );
}
