//! `characterize-large`: closed-loop recalibration of `quafu-136` and
//! `rigetti-79` with the harness quick configuration.
//!
//! Every characterization runs in a child process of this binary under one
//! address-space budget ([`BUDGET_KB`]), so an allocation failure ends that
//! child, not the benchmark. A child that dies counts as an attempted,
//! failed operation; its benchmark-generation numbers, reported before the
//! self-calibration starts, are kept. The measured section runs whole rounds
//! of [`ROUND`] until `--seconds` have passed. A round characterizes
//! `quafu-136` twice, so every run times two of them and compares their
//! exports: characterizations of one device in a run must export identical
//! parameters. The traced run adds a 1-thread `quafu-136` leg, compared the
//! same way.

use crate::common::{characterize, device_rate, dist_digest, sampled_workload, wire_round_trip};
use crate::report::{geomean, mean, median, Report};
use crate::trace::Tracer;
use crate::{sys, Ctx, DEVICE_SEED, THREADS};
use qufem_bench::experiments::qufem_config_for;
use qufem_bench::workloads::random_subset;
use qufem_circuits::Algorithm;
use qufem_core::EngineStats;
use qufem_device::{presets, Device};
use qufem_types::SupportIndex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Address-space budget of each characterization child: 2.5 GiB, in KiB.
const BUDGET_KB: u64 = 2_621_440;
/// Measured-subset size and shots of the Fig. 9c-style accuracy check each
/// fresh calibration runs.
const SUBSET: usize = 10;
const SUBSET_SHOTS: u64 = 2000;
const SUBSET_ALGORITHMS: [Algorithm; 3] =
    [Algorithm::BernsteinVazirani, Algorithm::Ghz, Algorithm::DeutschJozsa];
const SETUP_REPEATS: usize = 25;
/// The devices, once each.
const DEVICES: [&str; 2] = ["quafu-136", "rigetti-79"];
/// One round of the measured section: `rigetti-79` fails once per round,
/// and `quafu-136` succeeds twice, which gives `ops_per_s` two operations
/// and the export check two exports in every run.
const ROUND: [&str; 3] = ["quafu-136", "rigetti-79", "quafu-136"];
const MASS_TOLERANCE: f64 = 1e-9;

fn device_by_name(name: &str) -> Option<Device> {
    match name {
        "quafu-136" => Some(presets::quafu_136(DEVICE_SEED)),
        "rigetti-79" => Some(presets::rigetti_79(DEVICE_SEED)),
        _ => None,
    }
}

fn tag(device: &str) -> &'static str {
    if device == "quafu-136" {
        "136q"
    } else {
        "79q"
    }
}

// ---------------------------------------------------------------------------
// child process
// ---------------------------------------------------------------------------

/// Entry point of `qbench child …`; returns the exit code.
pub fn child_main(args: &[String]) -> i32 {
    match child(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("qbench child: {e}");
            2
        }
    }
}

/// One progress line of a child, as JSON. A child reports each step as it
/// finishes, so one that dies in self-calibration has already sent its
/// benchmark-generation numbers.
#[derive(Serialize, Deserialize)]
enum Stage {
    /// The set-up probe built both device models.
    Ready,
    Benchgen(BenchgenStage),
    Flows(FlowsStage),
    Done(DoneStage),
}

#[derive(Serialize, Deserialize)]
struct BenchgenStage {
    benchgen_s: f64,
    circuits: u64,
    rounds: u64,
    /// 0 unless the run is traced.
    shots_per_s: f64,
    hwm_kb: u64,
}

#[derive(Serialize, Deserialize)]
struct FlowsStage {
    from_snapshot_s: f64,
    heap_bytes: u64,
    products: u64,
    pruned: u64,
    peak_support: u64,
    hwm_kb: u64,
}

/// The fresh calibration's accuracy check and its layer numbers.
#[derive(Serialize, Deserialize)]
struct DoneStage {
    prepare_s: f64,
    prepared_heap_bytes: u64,
    fidelities: Vec<f64>,
    mass_error: f64,
    /// Subset outputs whose 1-thread apply differs from the timed one.
    thread_mismatches: u64,
    convert_s: f64,
    apply_products: f64,
    apply_pruned_share: f64,
    apply_kept_max: u64,
    apply_peak_support: u64,
    apply_out_strings: f64,
    apply_ns_per_product: f64,
    wire_encode_us: f64,
    wire_decode_us: f64,
    export_digest: u64,
    export_s: f64,
    hwm_kb: u64,
}

fn emit(stage: &Stage) {
    use std::io::Write;
    let line = serde_json::to_string(stage).expect("a stage serializes");
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn hwm_kb() -> u64 {
    sys::vm_hwm_kb(None).unwrap_or(0)
}

fn child(args: &[String]) -> Result<(), String> {
    let get =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    let mode = args.first().map(String::as_str);
    if mode == Some("probe") {
        // Set-up probe: build both device models and the configurations.
        for name in ["quafu-136", "rigetti-79"] {
            let device = device_by_name(name).expect("known preset");
            std::hint::black_box(qufem_config_for(device.n_qubits(), true, 0));
        }
        emit(&Stage::Ready);
        return Ok(());
    }
    let name = get("--device").ok_or("missing --device")?;
    let seed: u64 = get("--seed").ok_or("missing --seed")?.parse().map_err(|e| format!("{e}"))?;
    let threads: usize =
        get("--threads").ok_or("missing --threads")?.parse().map_err(|e| format!("{e}"))?;
    let traced = args.iter().any(|a| a == "--trace");
    let device = device_by_name(&name).ok_or_else(|| format!("unknown device {name}"))?;
    let n = device.n_qubits();
    let config = qufem_config_for(n, true, seed);
    let tracer = Tracer::new(false);

    let done = characterize(&device, &config, threads, &tracer, 0, |bench, benchgen_s, sample| {
        let shots_per_s =
            if traced { device_rate(&device, sample, config.shots, &tracer) } else { 0.0 };
        emit(&Stage::Benchgen(BenchgenStage {
            benchgen_s,
            circuits: bench.total_circuits as u64,
            rounds: bench.rounds as u64,
            shots_per_s,
            hwm_kb: hwm_kb(),
        }));
    })?;
    let qufem = &done.qufem;
    let s = qufem.characterization_engine_stats();
    emit(&Stage::Flows(FlowsStage {
        from_snapshot_s: done.from_snapshot_s,
        heap_bytes: qufem.heap_bytes() as u64,
        products: s.products,
        pruned: s.pruned,
        peak_support: s.peak_output_support as u64,
        hwm_kb: hwm_kb(),
    }));

    // Accuracy check of the fresh calibration on a measured subset.
    let mut pick = ChaCha8Rng::seed_from_u64(DEVICE_SEED);
    let subset = random_subset(n, SUBSET, &mut pick);
    let mut shots = ChaCha8Rng::seed_from_u64(seed);
    let t2 = Instant::now();
    let prepared = qufem.prepare_with_threads(&subset, threads).map_err(|e| e.to_string())?;
    let prepare_s = t2.elapsed().as_secs_f64();
    let mut arena = prepared.new_arena();
    let (mut fidelities, mut convert_s, mut engine_s) = (Vec::new(), Vec::new(), 0.0);
    let (mut wire_enc, mut wire_dec, mut out_strings) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = EngineStats::default();
    let mut kept_max = 0u64;
    let mut mass_error = 0.0f64;
    let mut thread_mismatches = 0;
    for (i, alg) in SUBSET_ALGORITHMS.iter().enumerate() {
        let w = sampled_workload(&device, *alg, &subset, SUBSET_SHOTS, i as u64, &mut shots);
        let a = Instant::now();
        let input = SupportIndex::from_dist(&w.noisy);
        let b = Instant::now();
        let mut call = EngineStats::default();
        let index = prepared
            .apply_arena(&input, threads, &mut call, &mut arena)
            .map_err(|e| e.to_string())?;
        let c = Instant::now();
        let out = index.to_dist();
        let d = Instant::now();
        convert_s.push((b - a + (d - c)).as_secs_f64());
        engine_s += (c - b).as_secs_f64();
        kept_max = kept_max.max(call.kept_per_level.iter().copied().max().unwrap_or(0));
        stats.merge(&call);
        out_strings.push(out.support_len() as f64);
        mass_error = mass_error.max((out.total_mass() - w.noisy.total_mass()).abs());
        let single = prepared
            .apply_sharded(&w.noisy, 1, &mut EngineStats::default())
            .map_err(|e| e.to_string())?;
        if dist_digest(&single) != dist_digest(&out) {
            thread_mismatches += 1;
        }
        fidelities.push(w.relative_fidelity(&out));
        let measured: Vec<usize> = subset.iter().collect();
        let (enc, dec) = wire_round_trip(&w.noisy, Some(measured), &out, &call, &tracer)?;
        wire_enc.push(enc);
        wire_dec.push(dec);
    }
    let t3 = Instant::now();
    let export_digest = done.export_digest();
    let export_s = t3.elapsed().as_secs_f64();
    let products = stats.products.max(1) as f64;
    emit(&Stage::Done(DoneStage {
        prepare_s,
        prepared_heap_bytes: prepared.heap_bytes() as u64,
        fidelities,
        mass_error,
        thread_mismatches,
        convert_s: mean(&convert_s),
        apply_products: stats.products as f64 / SUBSET_ALGORITHMS.len() as f64,
        apply_pruned_share: stats.pruned as f64 / products,
        apply_kept_max: kept_max,
        apply_peak_support: stats.peak_output_support as u64,
        apply_out_strings: mean(&out_strings),
        apply_ns_per_product: engine_s * 1e9 / products,
        wire_encode_us: mean(&wire_enc),
        wire_decode_us: mean(&wire_dec),
        export_digest,
        export_s,
        hwm_kb: hwm_kb(),
    }));
    Ok(())
}

// ---------------------------------------------------------------------------
// parent
// ---------------------------------------------------------------------------

/// What one child reported before it exited.
struct ChildRun {
    device: String,
    threads: usize,
    wall_s: f64,
    peak_kb: f64,
    benchgen: Option<BenchgenStage>,
    flows: Option<FlowsStage>,
    done: Option<DoneStage>,
    error: Option<String>,
}

impl ChildRun {
    fn ok(&self) -> bool {
        self.error.is_none() && self.done.is_some()
    }

    fn benchgen_s(&self) -> f64 {
        self.benchgen.as_ref().map_or(0.0, |b| b.benchgen_s)
    }

    fn self_calibration_s(&self) -> f64 {
        self.flows.as_ref().map_or(0.0, |f| f.from_snapshot_s)
    }

    /// Benchmark generation plus self-calibration, as timed in the child.
    fn characterize_s(&self) -> f64 {
        self.benchgen_s() + self.self_calibration_s()
    }
}

/// Median of `f` over runs that reported the stage `f` reads.
fn med<T>(
    runs: &[&ChildRun],
    stage: impl Fn(&ChildRun) -> Option<&T>,
    f: impl Fn(&T) -> f64,
) -> f64 {
    median(&runs.iter().filter_map(|r| stage(r)).map(f).collect::<Vec<f64>>())
}

/// Runs `qbench child <args>` under the address-space budget. With
/// `watch_hwm` it polls the child's own `VmHWM` until it exits; without,
/// it just waits, so a short child is timed exactly.
fn spawn_child(
    args: &[String],
    threads: usize,
    watch_hwm: bool,
) -> Result<(f64, f64, Vec<Stage>, Option<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating qbench: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -v {BUDGET_KB} && exec \"$0\" child \"$@\""))
        .arg(&exe)
        .args(args)
        .env("QUFEM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a characterization child: {e}"))?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let lines = std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .filter_map(|l| serde_json::from_str::<Stage>(&l).ok())
            .collect::<Vec<Stage>>()
    });
    let errors = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });
    let mut peak_kb = 0.0f64;
    let status = loop {
        if !watch_hwm {
            break child.wait().map_err(|e| format!("waiting for a child: {e}"))?;
        }
        if let Some(kb) = sys::vm_hwm_kb(Some(pid)) {
            peak_kb = peak_kb.max(kb as f64);
        }
        match child.try_wait().map_err(|e| format!("waiting for a child: {e}"))? {
            Some(status) => break status,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let stages = lines.join().map_err(|_| "child stdout reader panicked")?;
    let stderr_text = errors.join().map_err(|_| "child stderr reader panicked")?;
    let error = (!status.success()).then(|| {
        let first = stderr_text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
        format!("{status}: {first}")
    });
    Ok((wall_s, peak_kb, stages, error))
}

fn run_child(device: &str, seed: u64, threads: usize, traced: bool) -> Result<ChildRun, String> {
    let mut args: Vec<String> =
        ["characterize", "--device", device, "--seed"].iter().map(|s| s.to_string()).collect();
    args.extend([seed.to_string(), "--threads".to_string(), threads.to_string()]);
    if traced {
        args.push("--trace".to_string());
    }
    let (wall_s, mut peak_kb, stages, error) = spawn_child(&args, threads, true)?;
    let mut run = ChildRun {
        device: device.to_string(),
        threads,
        wall_s,
        peak_kb: 0.0,
        benchgen: None,
        flows: None,
        done: None,
        error,
    };
    for stage in stages {
        let hwm_kb = match stage {
            Stage::Ready => 0,
            Stage::Benchgen(b) => run.benchgen.insert(b).hwm_kb,
            Stage::Flows(f) => run.flows.insert(f).hwm_kb,
            Stage::Done(d) => run.done.insert(d).hwm_kb,
        };
        peak_kb = peak_kb.max(hwm_kb as f64);
    }
    run.peak_kb = peak_kb;
    Ok(run)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new();
    let tracer = &ctx.tracer;
    let traced = tracer.on();

    // Set-up: start a child that builds both device models, repeatedly.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (_, _, stages, error) = spawn_child(&["probe".to_string()], THREADS, false)?;
        if error.is_some() || !matches!(stages.as_slice(), [Stage::Ready]) {
            return Err(format!("set-up probe child failed: {error:?}"));
        }
        tracer.record("setup.probe_child", 0, t, Instant::now(), None);
        setup.push(t.elapsed().as_secs_f64());
    }
    report.put("setup_s", median(&setup), "s");

    // Measured section: whole rounds over the devices, until --seconds
    // have passed. The traced run adds a 1-thread quafu-136
    // characterization, for the parallel speed-up.
    let measured = Instant::now();
    let mut runs: Vec<ChildRun> = Vec::new();
    loop {
        let full = runs.iter().filter(|r| r.threads == THREADS).count();
        let round_done = full > 0 && full % ROUND.len() == 0;
        let time_up = measured.elapsed().as_secs_f64() >= ctx.seconds;
        let one_thread_done = runs.iter().any(|r| r.threads == 1);
        if round_done && time_up && (!traced || one_thread_done) {
            break;
        }
        let one_thread_leg = round_done && time_up;
        let device = if one_thread_leg { ROUND[0] } else { ROUND[full % ROUND.len()] };
        let threads = if one_thread_leg { 1 } else { THREADS };
        let t = Instant::now();
        let run = run_child(device, ctx.seed, threads, traced)?;
        let span = tracer.record("flows.characterize_child", 0, t, Instant::now(), None);
        let (bg, fs) = (run.benchgen_s(), run.self_calibration_s());
        if bg > 0.0 {
            let f0 = t + Duration::from_secs_f64(bg);
            tracer.record("benchgen.generate", span, t, f0, None);
            if fs > 0.0 {
                let f1 = f0 + Duration::from_secs_f64(fs);
                tracer.record("flows.from_snapshot", span, f0, f1, None);
            }
        }
        println!(
            "# {} at {} threads: {} in {:.3} s, peak {:.0} MB",
            run.device,
            run.threads,
            run.error.as_deref().map_or("ok".to_string(), |e| format!("FAILED ({e})")),
            run.wall_s,
            run.peak_kb / 1024.0
        );
        runs.push(run);
    }

    report.attempted = runs.len() as u64;
    report.failed = runs.iter().filter(|r| !r.ok()).count() as u64;
    let ok_two: Vec<&ChildRun> = runs.iter().filter(|r| r.ok() && r.threads == THREADS).collect();
    if ok_two.is_empty() {
        return Err("no characterization succeeded".to_string());
    }

    // Checks: identical exports per device, conserved mass, wire bits.
    for dev in DEVICES {
        let digests: Vec<u64> = runs
            .iter()
            .filter(|r| r.device == dev)
            .filter_map(|r| r.done.as_ref())
            .map(|d| d.export_digest)
            .collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            report.mismatch(format!("{dev}: repeated characterizations exported different bytes"));
        }
    }
    for r in &runs {
        let drift = r.done.as_ref().map_or(0.0, |d| d.mass_error);
        if drift > MASS_TOLERANCE {
            report.mismatch(format!("{}: subset output mass drifted by {drift:e}", r.device));
        }
        let differ = r.done.as_ref().map_or(0, |d| d.thread_mismatches);
        if differ > 0 {
            report.mismatch(format!(
                "{}: {differ} subset outputs differ between 1 and {} threads",
                r.device, r.threads
            ));
        }
    }

    // End-to-end.
    let times: Vec<f64> = ok_two.iter().map(|r| r.characterize_s()).collect();
    let fidelities: Vec<f64> = ok_two
        .iter()
        .filter_map(|r| r.done.as_ref())
        .flat_map(|d| d.fidelities.iter().copied())
        .collect();
    report.put("peak_rss_mb", ok_two.iter().map(|r| r.peak_kb).fold(0.0, f64::max) / 1024.0, "MB");
    report.put("op_p50_s", median(&times), "s");
    // Per second of the children's own wall time, not of the measured
    // section: the failing rigetti-79 child dies after a variable time,
    // and whether a second round fits in --seconds depends on the host.
    let ok_136: Vec<&ChildRun> = ok_two.iter().copied().filter(|r| r.device == ROUND[0]).collect();
    report.put(
        "ops_per_s",
        ok_136.len() as f64 / ok_136.iter().map(|r| r.wall_s).sum::<f64>().max(f64::MIN_POSITIVE),
        "1/s",
    );
    report.put("rel_fidelity", geomean(&fidelities), "x");

    // Named per-device metrics, the failed device included.
    fn benchgen(r: &ChildRun) -> Option<&BenchgenStage> {
        r.benchgen.as_ref()
    }
    fn flows(r: &ChildRun) -> Option<&FlowsStage> {
        r.flows.as_ref()
    }
    fn done(r: &ChildRun) -> Option<&DoneStage> {
        r.done.as_ref()
    }
    for dev in DEVICES {
        let t = tag(dev);
        let all: Vec<&ChildRun> = runs.iter().filter(|r| r.device == dev).collect();
        let two: Vec<&ChildRun> = all.iter().copied().filter(|r| r.threads == THREADS).collect();
        let ok: Vec<&ChildRun> = two.iter().copied().filter(|r| r.ok()).collect();
        if !ok.is_empty() {
            let times: Vec<f64> = ok.iter().map(|r| r.characterize_s()).collect();
            report.put(format!("characterize_{t}_s"), median(&times), "s");
        }
        report.put(
            format!("flows.failed.{t}"),
            all.iter().filter(|r| !r.ok()).count() as f64,
            "count",
        );
        report.put(
            format!("flows.peak_rss_mb.{t}"),
            all.iter().map(|r| r.peak_kb).fold(0.0, f64::max) / 1024.0,
            "MB",
        );
        report.put(format!("benchgen.s.{t}"), med(&all, benchgen, |b| b.benchgen_s), "s");
        report.put(
            format!("benchgen.circuits.{t}"),
            med(&all, benchgen, |b| b.circuits as f64),
            "count",
        );
        report.put(
            format!("benchgen.rounds.{t}"),
            med(&all, benchgen, |b| b.rounds as f64),
            "count",
        );
        if traced {
            report.put(
                format!("device.shots_per_s.{t}"),
                med(&all, benchgen, |b| b.shots_per_s),
                "1/s",
            );
        }
        if two.iter().any(|r| r.flows.is_some()) {
            let products = med(&two, flows, |f| f.products as f64);
            let from_snapshot_s = med(&two, flows, |f| f.from_snapshot_s);
            report.put(format!("flows.from_snapshot_s.{t}"), from_snapshot_s, "s");
            report.put(
                format!("flows.heap_mb.{t}"),
                med(&two, flows, |f| f.heap_bytes as f64) / 1e6,
                "MB",
            );
            report.put(format!("engine.selfcal_products.{t}"), products, "count");
            report.put(
                format!("engine.selfcal_pruned_share.{t}"),
                med(&two, flows, |f| f.pruned as f64) / products.max(1.0),
                "share",
            );
            report.put(
                format!("engine.selfcal_peak_support.{t}"),
                med(&two, flows, |f| f.peak_support as f64),
                "count",
            );
            report.put(
                format!("engine.selfcal_ns_per_product.{t}"),
                from_snapshot_s * 1e9 / products.max(1.0),
                "ns",
            );
        }
    }

    // Generic layer metrics: quafu-136, the device that completes.
    report.put("benchgen.s", med(&ok_two, benchgen, |b| b.benchgen_s), "s");
    report.put("benchgen.circuits", med(&ok_two, benchgen, |b| b.circuits as f64), "count");
    report.put("benchgen.rounds", med(&ok_two, benchgen, |b| b.rounds as f64), "count");
    report.put("device.shots_per_s", med(&ok_two, benchgen, |b| b.shots_per_s), "1/s");
    report.put("flows.from_snapshot_s", med(&ok_two, flows, |f| f.from_snapshot_s), "s");
    report.put("flows.heap_mb", med(&ok_two, flows, |f| f.heap_bytes as f64) / 1e6, "MB");
    report.put("flows.prepare_s", med(&ok_two, done, |d| d.prepare_s), "s");
    report.put(
        "flows.prepared_heap_mb",
        med(&ok_two, done, |d| d.prepared_heap_bytes as f64) / 1e6,
        "MB",
    );
    report.put("flows.failed", report.failed as f64, "count");
    report.put("engine.products", med(&ok_two, done, |d| d.apply_products), "count");
    report.put("engine.pruned_share", med(&ok_two, done, |d| d.apply_pruned_share), "share");
    report.put("engine.kept_max", med(&ok_two, done, |d| d.apply_kept_max as f64), "count");
    report.put("engine.peak_support", med(&ok_two, done, |d| d.apply_peak_support as f64), "count");
    report.put("engine.out_strings", med(&ok_two, done, |d| d.apply_out_strings), "count");
    report.put("engine.ns_per_product", med(&ok_two, done, |d| d.apply_ns_per_product), "ns");
    report.put("types.convert_s", med(&ok_two, done, |d| d.convert_s), "s");
    report.put("wire.encode_us", med(&ok_two, done, |d| d.wire_encode_us), "us");
    report.put("wire.decode_us", med(&ok_two, done, |d| d.wire_decode_us), "us");
    report.put("export_s", med(&ok_two, done, |d| d.export_s), "s");
    if traced {
        let one: Vec<f64> =
            runs.iter().filter(|r| r.ok() && r.threads == 1).map(|r| r.characterize_s()).collect();
        if !one.is_empty() {
            let speedup = median(&one) / median(&times);
            report.put("parallel.speedup", speedup, "x");
            report.put("parallel.characterize_speedup.136q", speedup, "x");
        }
    }
    Ok(report)
}
