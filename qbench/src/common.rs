//! Calls into the layers that more than one workload times: in-process
//! characterization, the device alone, the wire round trip, and the digests
//! and inputs the correctness checks use.

use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::DEVICE_SEED;
use qufem_bench::workloads::Workload;
use qufem_circuits::Algorithm;
use qufem_core::benchgen::{self, BenchGenReport};
use qufem_core::{Digest64, EngineStats, QuFem, QuFemConfig};
use qufem_device::{BenchmarkCircuit, Device};
use qufem_serve::{wire, Request, Response};
use qufem_types::{ProbDist, QubitSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Circuits whose sampling is timed for `device.shots_per_s`.
pub const DEVICE_SAMPLE: usize = 64;

/// A characterization made in this process, with its layer timings.
pub struct Characterized {
    pub qufem: QuFem,
    pub benchgen_s: f64,
    pub from_snapshot_s: f64,
    pub bench: BenchGenReport,
    pub shots: u64,
    /// The first benchmarking circuits, kept for timing the device alone.
    pub sample: Vec<BenchmarkCircuit>,
}

/// Benchmark generation then self-calibration (what
/// `QuFem::characterize_with_threads` does), timed per layer.
/// `after_benchgen` runs between the two steps with the generation report,
/// its seconds and the device-timing sample.
pub fn characterize(
    device: &Device,
    config: &QuFemConfig,
    threads: usize,
    tracer: &Tracer,
    parent: u64,
    after_benchgen: impl FnOnce(&BenchGenReport, f64, &[BenchmarkCircuit]),
) -> Result<Characterized, String> {
    let t0 = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (snapshot, bench) = benchgen::generate_with_threads(device, config, &mut rng, threads)
        .map_err(|e| format!("benchmark generation on {}: {e}", device.name()))?;
    let t1 = Instant::now();
    tracer.record("benchgen.generate", parent, t0, t1, None);
    let sample: Vec<BenchmarkCircuit> =
        snapshot.records().iter().take(DEVICE_SAMPLE).map(|r| r.circuit().clone()).collect();
    let benchgen_s = (t1 - t0).as_secs_f64();
    after_benchgen(&bench, benchgen_s, &sample);
    let t1 = Instant::now();
    let qufem = QuFem::from_snapshot_with_threads(snapshot, config.clone(), threads)
        .map_err(|e| format!("self-calibration on {}: {e}", device.name()))?;
    let t2 = Instant::now();
    tracer.record("flows.from_snapshot", parent, t1, t2, None);
    Ok(Characterized {
        qufem,
        benchgen_s,
        from_snapshot_s: (t2 - t1).as_secs_f64(),
        bench,
        shots: config.shots,
        sample,
    })
}

impl Characterized {
    pub fn export_digest(&self) -> u64 {
        export_digest(&self.qufem)
    }

    /// Benchmark-generation and self-calibration layer metrics; `times`
    /// holds `[benchgen_s, from_snapshot_s]` of every repetition.
    pub fn put_layers(&self, report: &mut Report, times: &[[f64; 2]]) {
        let col = |i: usize| times.iter().map(|t| t[i]).collect::<Vec<f64>>();
        report.put("benchgen.s", median(&col(0)), "s");
        report.put("benchgen.circuits", self.bench.total_circuits as f64, "count");
        report.put("benchgen.rounds", self.bench.rounds as f64, "count");
        report.put("flows.from_snapshot_s", median(&col(1)), "s");
        report.put("flows.heap_mb", self.qufem.heap_bytes() as f64 / 1e6, "MB");
    }

    /// Times the device alone on the first benchmarking circuits.
    pub fn put_device_rate(&self, device: &Device, report: &mut Report, tracer: &Tracer) {
        report.put(
            "device.shots_per_s",
            device_rate(device, &self.sample, self.shots, tracer),
            "1/s",
        );
    }
}

pub fn device_rate(
    device: &Device,
    circuits: &[BenchmarkCircuit],
    shots: u64,
    tracer: &Tracer,
) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(shots);
    let start = Instant::now();
    for circuit in circuits {
        std::hint::black_box(device.execute(circuit, shots, &mut rng));
    }
    let end = Instant::now();
    tracer.record("device.execute", 0, start, end, None);
    (circuits.len() as u64 * shots) as f64 / (end - start).as_secs_f64()
}

/// Encodes a calibrate request and decodes its response frame the way a
/// binary client does, returning the microseconds each took. The decoded
/// distribution must carry the same bits as `out`.
pub fn wire_round_trip(
    noisy: &ProbDist,
    measured: Option<Vec<usize>>,
    out: &ProbDist,
    stats: &EngineStats,
    tracer: &Tracer,
) -> Result<(f64, f64), String> {
    let request = Request::calibrate(noisy.clone(), measured);
    let t0 = Instant::now();
    let frame = wire::encode_request(&request, 1);
    let t1 = Instant::now();
    std::hint::black_box(frame);
    let bytes = wire::encode_response(&Response::calibrated(out.clone(), stats.clone()), 1);
    let (frame, _) = wire::try_parse_frame(&bytes, usize::MAX)
        .map_err(|e| e.to_string())?
        .ok_or("incomplete response frame")?;
    let t2 = Instant::now();
    let decoded = wire::decode_response(&frame)?;
    let t3 = Instant::now();
    tracer.record("wire.encode_request", 0, t0, t1, None);
    tracer.record("wire.decode_response", 0, t2, t3, None);
    match decoded.dist {
        Some(d) if dist_digest(&d) == dist_digest(out) => {}
        _ => return Err("a calibrate response changed bits on the wire".to_string()),
    }
    Ok(((t1 - t0).as_secs_f64() * 1e6, (t3 - t2).as_secs_f64() * 1e6))
}

/// Digest of what a calibration exports: its config and, per iteration,
/// the grouping and every record's circuit and distribution bits. It is
/// folded record by record, so the check never holds a whole parameter
/// file, which for 136 qubits would not fit the children's budget.
pub fn export_digest(qufem: &QuFem) -> u64 {
    let mut digest = Digest64::new();
    digest.write_str(&serde_json::to_string(qufem.config()).expect("config serializes"));
    digest.write_u64(qufem.n_qubits() as u64);
    for params in qufem.iterations() {
        for group in params.grouping() {
            digest.write_str(&format!("{group:?}"));
        }
        for record in params.snapshot().records() {
            for op in record.circuit().ops() {
                digest.write(&[*op as u8]);
            }
            digest.write_u64(dist_digest(record.dist()));
        }
    }
    digest.finish()
}

/// Order-independent digest of a distribution's outcomes and value bits:
/// the wrapping sum of one digest per entry, so no sort is needed.
pub fn dist_digest(dist: &ProbDist) -> u64 {
    let mut sum = dist.width() as u64;
    for (outcome, p) in dist.iter() {
        let mut entry = Digest64::new();
        for word in outcome.as_words() {
            entry.write_u64(*word);
        }
        entry.write_f64(p);
        sum = sum.wrapping_add(entry.finish());
    }
    sum
}

/// One algorithm's output on a measured subset: a fixed circuit instance
/// (`instance`), with shots drawn from `shots`.
pub fn sampled_workload(
    device: &Device,
    algorithm: Algorithm,
    measured: &QubitSet,
    n_shots: u64,
    instance: u64,
    shots: &mut ChaCha8Rng,
) -> Workload {
    let ideal = algorithm.ideal_distribution(measured.len(), DEVICE_SEED ^ instance);
    let noisy = device.measure_distribution(&ideal, measured, n_shots, shots);
    Workload {
        name: format!("{}-{}q", algorithm.name(), measured.len()),
        measured: measured.clone(),
        ideal,
        noisy,
    }
}
