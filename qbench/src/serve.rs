//! `serve-partial`: the `qufem serve` daemon, as its own process on the
//! `quafu-18` preset, driven open loop over one binary pipelined connection.
//!
//! Requests calibrate 4–12-qubit measured subsets (Fig. 9c style). Which
//! subset a request names follows a Zipf popularity over 64 seeded subsets,
//! against the daemon's default plan cache of 8: hot subsets hit the cache,
//! the tail misses and runs `prepare`. A second connection admits a
//! pre-characterized `Device::drifted(step)` snapshot every 2 s while the
//! calibrate traffic runs, leaving the new version's cache cold, and reads
//! the daemon's `metrics` probe between rates.
//!
//! The load runs at fixed offered rates, evenly spaced, then closed loop
//! with a window of [`SATURATION_DEPTH`] requests outstanding, which keeps
//! the daemon saturated: that rung's completion rate is its capacity, and
//! its requests per second of the daemon's CPU time, the gated `ops_per_s`,
//! its capacity per core. Every schedule and request frame is built before
//! timing starts. One thread sends, another receives, so a slow response
//! never delays a send.
//! Latency is timed from each request's due time. Every response must be
//! bit-identical to an in-process `QuFem` calibration against the version
//! it echoes.

use crate::common::{characterize, dist_digest, sampled_workload};
use crate::report::{geomean, mean, median, percentile, Report};
use crate::{sys, Ctx, DEVICE_SEED, THREADS};
use qufem_bench::experiments::qufem_config_for;
use qufem_bench::workloads::{random_subset, Workload};
use qufem_circuits::Algorithm;
use qufem_core::parallel::map_in_order;
use qufem_core::{digest_str, EngineStats, QuFem, QuFemData};
use qufem_device::presets;
use qufem_serve::{wire, Client, MetricsInfo, Request, Response};
use qufem_types::SupportIndex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered rates, requests per second.
const RATES: [u32; 5] = [200, 400, 600, 800, 1000];
/// Requests the saturation rung keeps outstanding: enough that both
/// workers always have queued work, under the daemon's 128-frame read
/// pause.
const SATURATION_DEPTH: usize = 64;
/// Upper bound on the saturation rung's rate, which sizes its schedule.
const SATURATION_MAX_RPS: f64 = 20_000.0;
/// How long the saturation sender sleeps while its window is full.
const WINDOW_POLL: Duration = Duration::from_millis(2);
/// Unmeasured warm-up before the first rate.
const WARMUP_RATE: u32 = 200;
const WARMUP_S: f64 = 1.0;
const POOL: usize = 64;
const ZIPF_EXPONENT: f64 = 1.0;
const SHOTS: u64 = 2000;
const SUBSET_SIZES: std::ops::RangeInclusive<usize> = 4..=12;
const ALGORITHMS: [Algorithm; 3] =
    [Algorithm::BernsteinVazirani, Algorithm::Ghz, Algorithm::DeutschJozsa];
/// Admits are sent every this many seconds into each measured rate,
/// starting at one second, so every seed sees the same number per rate.
const ADMIT_EVERY_S: f64 = 2.0;
/// Drifted snapshots characterized up front and admitted in turn.
const DRIFT_STEPS: u64 = 4;
/// The latency limit on p99 that `serve_max_rps` is judged against.
const P99_LIMIT_MS: f64 = 50.0;
const SETUP_REPEATS: usize = 3;
/// How long to wait for the responses still outstanding after a rate.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Frame limit of the daemon: a quafu-18 parameter file is about 12 MB,
/// over the default 8 MiB, and every admit carries one.
const MAX_REQUEST_BYTES: usize = 64 << 20;
/// Request ids of admits and probes start here, clear of calibrate ids.
const CONTROL_IDS: u64 = 1 << 40;

/// One request template: a measured subset and its noisy output.
struct PoolEntry {
    workload: Workload,
    /// The encoded calibrate frame; the sender patches in the request id.
    frame: Vec<u8>,
}

/// The daemon process and the address it listens on. Dropping it without
/// [`Daemon::stop`] kills the process.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(qufem_bin: &Path, params: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(qufem_bin)
            .args(["serve", "--params"])
            .arg(params)
            .args(["--workers", &THREADS.to_string(), "--addr", "127.0.0.1:0"])
            .args(["--max-request-bytes", &MAX_REQUEST_BYTES.to_string()])
            .env("QUFEM_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", qufem_bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while lines.read_line(&mut line).map_err(|e| format!("reading daemon output: {e}"))? > 0 {
            if let Some(rest) = line.trim().strip_prefix("qufem-serve listening on ") {
                addr = Some(rest.to_string());
                break;
            }
            line.clear();
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("the daemon exited before listening: {}", line.trim()));
        };
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = lines.read_to_string(&mut rest);
        });
        Ok(Daemon { child, addr, stderr: Some(stderr) })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect_binary(self.addr.as_str())
            .and_then(|mut c| c.request(&Request::shutdown()));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                break;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(format!("the daemon did not stop on request ({asked:?})"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(reader) = self.stderr.take() {
            reader.join().map_err(|_| "daemon output reader panicked")?;
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One sent calibrate request.
struct Sent {
    id: u64,
    entry: usize,
    due: Instant,
    sent: Instant,
}

/// One received response.
struct Received {
    id: u64,
    at: Instant,
    ok: bool,
    version: Option<u64>,
    digest: Option<u64>,
    out_strings: usize,
    stats: EngineStats,
    decode_us: f64,
}

/// How a rung offers its load.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop, evenly spaced at this many requests per second.
    Rate(u32),
    /// Closed loop: a new request whenever fewer than this many are
    /// outstanding.
    Window(usize),
}

impl Load {
    /// Metric-name suffix: `r<rate>`, or `sat` for the closed loop.
    fn tag(self) -> String {
        match self {
            Load::Rate(rate) => format!("r{rate}"),
            Load::Window(_) => "sat".to_string(),
        }
    }
}

/// What one rung produced.
struct Rung {
    load: Load,
    sent: Vec<Sent>,
    received: Vec<Received>,
    backlog_max: usize,
    backlog_end: usize,
    admits: Vec<(f64, Option<u64>)>,
    daemon_cpu_s: f64,
    /// Share of host CPU time the hypervisor stole while the rate ran.
    steal_pct: f64,
    before: MetricsInfo,
    after: MetricsInfo,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new();
    let tracer = &ctx.tracer;
    let device = presets::quafu_18(DEVICE_SEED);
    let n = device.n_qubits();
    let config = qufem_config_for(n, true, ctx.seed);
    let out_dir = PathBuf::from("qbench/out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let params_path = out_dir.join("serve-params.json");
    let qufem_bin = std::env::current_exe()
        .map_err(|e| format!("locating qbench: {e}"))?
        .with_file_name("qufem");

    // Set-up, repeated: characterize, write the parameter file, start the
    // daemon until it listens. The last daemon stays up.
    let (mut setup_s, mut layer_times, mut exports) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        let root = tracer.open("setup.characterize_start", 0);
        let start = Instant::now();
        let done = characterize(&device, &config, THREADS, tracer, root.id, |_, _, _| {})?;
        let json = serde_json::to_string(&done.qufem.export()).map_err(|e| e.to_string())?;
        std::fs::write(&params_path, &json)
            .map_err(|e| format!("writing {}: {e}", params_path.display()))?;
        let t = Instant::now();
        let daemon = Daemon::start(&qufem_bin, &params_path)?;
        tracer.record("serve.start", root.id, t, Instant::now(), None);
        tracer.close(root);
        setup_s.push(start.elapsed().as_secs_f64());
        layer_times.push([done.benchgen_s, done.from_snapshot_s]);
        exports.push(digest_str(&json));
        if rep + 1 < SETUP_REPEATS {
            daemon.stop()?;
        } else {
            kept = Some((done, json, daemon));
        }
    }
    let (characterized, base_json, daemon) = kept.expect("at least one set-up");
    if exports.windows(2).any(|w| w[0] != w[1]) {
        report.mismatch("repeated characterizations of quafu-18 exported different bytes");
    }
    report.put("setup_s", median(&setup_s), "s");
    characterized.put_layers(&mut report, &layer_times);
    report.put("flows.failed", 0.0, "count");
    if tracer.on() {
        characterized.put_device_rate(&device, &mut report, tracer);
    }
    let outcome = drive(ctx, &mut report, &device, &base_json, &daemon);
    let stopped = daemon.stop();
    let _ = std::fs::remove_file(&params_path);
    outcome?;
    stopped?;
    Ok(report)
}

/// Builds every input, runs the rates, verifies, and fills the report.
fn drive(
    ctx: &Ctx,
    report: &mut Report,
    device: &qufem_device::Device,
    base_json: &str,
    daemon: &Daemon,
) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let n = device.n_qubits();

    // Inputs, all before timing: drifted snapshots and their admit frames,
    // the request pool, and every schedule.
    let mut calibrator_json = vec![base_json.to_string()];
    for step in 1..=DRIFT_STEPS {
        let drifted = device.drifted(step);
        let config = qufem_config_for(n, true, ctx.seed.wrapping_add(step));
        let done = characterize(&drifted, &config, THREADS, tracer, 0, |_, _, _| {})?;
        calibrator_json
            .push(serde_json::to_string(&done.qufem.export()).map_err(|e| e.to_string())?);
    }
    let admit_frames: Vec<Vec<u8>> = calibrator_json[1..]
        .iter()
        .map(|json| {
            let data: QuFemData = serde_json::from_str(json).map_err(|e| e.to_string())?;
            Ok(wire::encode_request(&Request::admit(data), 0))
        })
        .collect::<Result<_, String>>()?;
    let mut pick = ChaCha8Rng::seed_from_u64(DEVICE_SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
    let mut encode_us = Vec::new();
    let mut pool = Vec::new();
    for i in 0..POOL {
        // Sizes follow popularity rank; qubits and circuits are fixed, and
        // the seed draws the shots.
        let size = SUBSET_SIZES.start() + i % SUBSET_SIZES.clone().count();
        let subset_set = random_subset(n, size, &mut pick);
        let algorithm = ALGORITHMS[i % ALGORITHMS.len()];
        let workload = sampled_workload(device, algorithm, &subset_set, SHOTS, i as u64, &mut rng);
        let subset: Vec<usize> = subset_set.iter().collect();
        let request = Request::calibrate(workload.noisy.clone(), Some(subset));
        let t = Instant::now();
        let frame = wire::encode_request(&request, 0);
        let end = Instant::now();
        tracer.record("wire.encode_request", 0, t, end, None);
        encode_us.push((end - t).as_secs_f64() * 1e6);
        pool.push(PoolEntry { workload, frame });
    }
    let cdf: Vec<f64> = {
        let weights: Vec<f64> = (1..=POOL).map(|r| 1.0 / (r as f64).powf(ZIPF_EXPONENT)).collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect()
    };
    // Each rate runs for a tenth of --seconds, the saturation rung for half.
    let mut plan = vec![(Load::Rate(WARMUP_RATE), WARMUP_S)];
    plan.extend(RATES.iter().map(|&r| (Load::Rate(r), ctx.seconds / 10.0)));
    plan.push((Load::Window(SATURATION_DEPTH), ctx.seconds / 2.0));
    let schedules: Vec<Vec<usize>> = plan
        .iter()
        .map(|&(load, secs)| {
            let rate = match load {
                Load::Rate(rate) => f64::from(rate),
                Load::Window(_) => SATURATION_MAX_RPS,
            };
            (0..(rate * secs).round() as usize)
                .map(|_| {
                    let u: f64 = rng.gen();
                    cdf.iter().position(|&c| u <= c).unwrap_or(POOL - 1)
                })
                .collect()
        })
        .collect();

    // Connections: calibrate traffic, and admits plus probes.
    let traffic =
        TcpStream::connect(daemon.addr.as_str()).map_err(|e| format!("connecting: {e}"))?;
    traffic.set_nodelay(true).map_err(|e| e.to_string())?;
    let control =
        Client::connect_binary(daemon.addr.as_str()).map_err(|e| format!("connecting: {e}"))?;
    let mut ladder = Ladder {
        traffic,
        control,
        control_id: CONTROL_IDS,
        next_id: 1,
        pool: &pool,
        admit_frames: &admit_frames,
        admits_sent: 0,
        version_of_admit: BTreeMap::new(),
        daemon_pid: daemon.pid(),
    };

    // The warm-up, then every rate.
    let mut rungs: Vec<Rung> = Vec::new();
    for (k, (&(load, secs), schedule)) in plan.iter().zip(&schedules).enumerate() {
        rungs.push(ladder.run(load, secs, schedule, k > 0, tracer)?);
    }
    let peak_kb = sys::vm_hwm_kb(Some(daemon.pid())).ok_or("reading the daemon's VmHWM")?;
    let Ladder { version_of_admit, .. } = ladder;
    let failed_admits =
        rungs.iter().flat_map(|r| r.admits.iter()).filter(|a| a.1.is_none()).count() as u64;

    // Spans of served requests, from due time to receipt.
    if tracer.on() {
        for rung in &rungs {
            let by_id: BTreeMap<u64, &Received> = rung.received.iter().map(|r| (r.id, r)).collect();
            for s in &rung.sent {
                if let Some(r) = by_id.get(&s.id) {
                    let span = tracer.record("serve.request", 0, s.due, r.at, Some(s.id));
                    tracer.record("gen.wait_to_send", span, s.due, s.sent, Some(s.id));
                }
            }
        }
    }

    // Verification: every response against an in-process calibration of
    // the version it echoes.
    let calibrators: Vec<QuFem> = calibrator_json
        .iter()
        .map(|json| {
            let data: QuFemData = serde_json::from_str(json).map_err(|e| e.to_string())?;
            QuFem::import(data).map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    let calibrator_of = |version: u64| -> Option<usize> {
        if version == 0 {
            Some(0)
        } else {
            version_of_admit.get(&version).copied()
        }
    };
    let mut pairs: BTreeSet<(usize, usize)> = (0..POOL).map(|i| (i, 0)).collect();
    let mut attempted = 0u64;
    let mut failed = failed_admits;
    for rung in &rungs {
        let by_id: BTreeMap<u64, &Received> = rung.received.iter().map(|r| (r.id, r)).collect();
        for s in &rung.sent {
            attempted += 1;
            match by_id.get(&s.id) {
                Some(r) if r.ok => match r.version.and_then(calibrator_of) {
                    Some(c) => {
                        pairs.insert((s.entry, c));
                    }
                    None => report.mismatch(format!(
                        "request {} echoed unknown version {:?}",
                        s.id, r.version
                    )),
                },
                _ => failed += 1,
            }
        }
        attempted += rung.admits.len() as u64;
    }
    let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
    let verify = |threads: usize| {
        let start = Instant::now();
        let results = map_in_order(&pairs, threads, |_, &(entry, cal)| {
            expected(&calibrators[cal], &pool[entry])
        });
        (results, start.elapsed().as_secs_f64())
    };
    let (results, verify_two_s) = verify(THREADS);
    let results: Vec<Expected> = results.into_iter().collect::<Result<_, String>>()?;
    if tracer.on() {
        let (single, verify_one_s) = verify(1);
        let single: Vec<Expected> = single.into_iter().collect::<Result<_, String>>()?;
        if single.iter().zip(&results).any(|(a, b)| a.digest != b.digest) {
            report.mismatch("1-thread and 2-thread in-process calibrations differ");
        }
        report.put("parallel.speedup", verify_one_s / verify_two_s, "x");
    }
    let table: BTreeMap<(usize, usize), &Expected> = pairs.iter().copied().zip(&results).collect();
    let mut mismatched = 0usize;
    for rung in &rungs {
        let entry_of: BTreeMap<u64, usize> = rung.sent.iter().map(|s| (s.id, s.entry)).collect();
        for r in rung.received.iter().filter(|r| r.ok) {
            let Some(cal) = r.version.and_then(calibrator_of) else { continue };
            let want = table.get(&(entry_of[&r.id], cal)).map(|e| e.digest);
            if want != r.digest {
                mismatched += 1;
            }
        }
    }
    if mismatched > 0 {
        report.mismatch(format!("{mismatched} responses differ from in-process calibration"));
    }
    report.attempted = attempted;
    report.failed = failed;

    // Named per-rung metrics.
    let mut max_rps = 0.0f64;
    let mut saturated_rps = 0.0f64;
    let mut saturated_per_cpu_s = 0.0f64;
    let measured_rungs = &rungs[1..];
    for rung in measured_rungs {
        let r = rung.load.tag();
        let by_id: BTreeMap<u64, &Received> = rung.received.iter().map(|x| (x.id, x)).collect();
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        let mut late_ms = 0.0f64;
        let mut rung_failed = 0usize;
        for s in &rung.sent {
            late_ms = late_ms.max((s.sent - s.due).as_secs_f64() * 1e3);
            match by_id.get(&s.id) {
                Some(x) if x.ok => {
                    from_due.push((x.at - s.due).as_secs_f64() * 1e3);
                    from_send.push((x.at - s.sent).as_secs_f64() * 1e6);
                }
                _ => rung_failed += 1,
            }
        }
        report.put(format!("serve.samples.{r}"), from_due.len() as f64, "count");
        let (b, a) = (&rung.before, &rung.after);
        let delta = |x: &qufem_serve::HistogramSummary, y: &qufem_serve::HistogramSummary| {
            let count = y.count.saturating_sub(x.count);
            (count, if count == 0 { 0.0 } else { (y.sum - x.sum) / count as f64 * 1e6 })
        };
        let (requests, request_mean_us) = delta(&b.request, &a.request);
        let method = |m: &MetricsInfo| m.methods.iter().find(|x| x.method == "qufem").cloned();
        let (apply_mean_us, prepares, prepare_mean_us) = match (method(b), method(a)) {
            (Some(x), Some(y)) => {
                let (_, apply) = delta(&x.apply, &y.apply);
                let (prepares, prepare) = delta(&x.prepare, &y.prepare);
                (apply, prepares, prepare)
            }
            (None, Some(y)) => (
                y.apply.sum / y.apply.count.max(1) as f64 * 1e6,
                y.prepare.count,
                y.prepare.sum / y.prepare.count.max(1) as f64 * 1e6,
            ),
            _ => (0.0, 0, 0.0),
        };
        let hits = a.plan_cache_hits - b.plan_cache_hits;
        let misses = a.plan_cache_misses - b.plan_cache_misses;
        report.put(format!("serve.request_mean_us.{r}"), request_mean_us, "us");
        report.put(format!("serve.apply_mean_us.{r}"), apply_mean_us, "us");
        report.put(format!("serve.prepare_mean_us.{r}"), prepare_mean_us, "us");
        report.put(format!("serve.prepares.{r}"), prepares as f64, "count");
        report.put(
            format!("serve.cache_hit_ratio.{r}"),
            hits as f64 / (hits + misses).max(1) as f64,
            "share",
        );
        report.put(format!("serve.outside_mean_us.{r}"), mean(&from_send) - request_mean_us, "us");
        report.put(
            format!("serve.cpu_us_per_req.{r}"),
            rung.daemon_cpu_s * 1e6 / requests.max(1) as f64,
            "us",
        );
        report.put(format!("serve.backlog_max.{r}"), rung.backlog_max as f64, "count");
        report.put(format!("serve.swaps.{r}"), (a.swaps - b.swaps) as f64, "count");
        report.put(format!("serve.rejected.{r}"), (a.rejected - b.rejected) as f64, "count");
        report.put(format!("host.steal_pct.{r}"), rung.steal_pct, "%");
        // Completions per second from the first send to the last response.
        let first = rung.sent.first().map(|s| s.due);
        let last = rung.received.iter().map(|x| x.at).max();
        let completed_per_s = match (first, last) {
            (Some(first), Some(last)) => from_due.len() as f64 / (last - first).as_secs_f64(),
            _ => 0.0,
        };
        report.put(format!("serve.completed_per_s.{r}"), completed_per_s, "1/s");
        match rung.load {
            Load::Rate(rate) => {
                let p99 = percentile(&from_due, 0.99);
                report.put(format!("serve_p50_ms.{r}"), percentile(&from_due, 0.5), "ms");
                report.put(format!("serve_p99_ms.{r}"), p99, "ms");
                report.put(format!("gen.late_ms_max.{r}"), late_ms, "ms");
                let growing =
                    rung.backlog_end as f64 > (f64::from(rate) * P99_LIMIT_MS / 1e3).max(16.0);
                let fell_behind = late_ms > P99_LIMIT_MS;
                if p99 <= P99_LIMIT_MS && !growing && !fell_behind && rung_failed == 0 {
                    max_rps = max_rps.max(f64::from(rate));
                }
            }
            // The window keeps both workers busy, so this is the daemon's
            // capacity; the rung has no due times, hence no latency.
            Load::Window(_) => {
                saturated_rps = completed_per_s;
                saturated_per_cpu_s = requests as f64 / rung.daemon_cpu_s.max(f64::MIN_POSITIVE);
            }
        }
    }
    let admit_ms: Vec<f64> =
        measured_rungs.iter().flat_map(|r| r.admits.iter().map(|a| a.0)).collect();
    // Capped at the highest offered rate; `serve_saturated_rps` is the
    // capacity, `serve_saturated_per_cpu_s` the capacity per daemon core.
    report.put("serve_max_rps", max_rps, "1/s");
    report.put("serve_saturated_rps", saturated_rps, "1/s");
    report.put("serve_saturated_per_cpu_s", saturated_per_cpu_s, "1/s");
    report.put("admit_ms", median(&admit_ms), "ms");
    report.put("admits", admit_ms.len() as f64, "count");

    // Generic end-to-end metrics.
    let p50_200 =
        report.metrics.iter().find(|m| m.name == "serve_p50_ms.r200").map_or(0.0, |m| m.value);
    report.put("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    report.put("op_p50_s", p50_200 / 1e3, "s");
    // Per second of the daemon's CPU time, not of wall time: the daemon's
    // workers and event loop and the load generator's threads share two
    // vCPUs, so the wall-time rate also measures the host's scheduler and
    // its steal, which the CPU time leaves out.
    report.put("ops_per_s", saturated_per_cpu_s, "1/s");
    let fidelities: Vec<f64> = results
        .iter()
        .zip(&pairs)
        .filter(|(_, &(_, cal))| cal == 0)
        .map(|(e, _)| e.fidelity)
        .collect();
    report.put("rel_fidelity", geomean(&fidelities), "x");

    // Generic layer metrics.
    let all: Vec<&Received> =
        measured_rungs.iter().flat_map(|r| r.received.iter()).filter(|r| r.ok).collect();
    let calls = all.len().max(1) as f64;
    let products: u64 = all.iter().map(|r| r.stats.products).sum();
    let pruned: u64 = all.iter().map(|r| r.stats.pruned).sum();
    report.put("engine.products", products as f64 / calls, "count");
    report.put("engine.pruned_share", pruned as f64 / products.max(1) as f64, "share");
    report.put(
        "engine.kept_max",
        all.iter()
            .map(|r| r.stats.kept_per_level.iter().copied().max().unwrap_or(0))
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    report.put(
        "engine.peak_support",
        all.iter().map(|r| r.stats.peak_output_support).max().unwrap_or(0) as f64,
        "count",
    );
    report.put(
        "engine.out_strings",
        all.iter().map(|r| r.out_strings as f64).sum::<f64>() / calls,
        "count",
    );
    let last = &rungs[rungs.len() - 1].after;
    let apply_ns =
        last.methods.iter().find(|m| m.method == "qufem").map_or(0.0, |m| m.apply.sum * 1e9);
    let served_products: u64 =
        rungs.iter().flat_map(|r| r.received.iter()).map(|r| r.stats.products).sum();
    report.put("engine.ns_per_product", apply_ns / served_products.max(1) as f64, "ns");
    report.put(
        "flows.prepare_s",
        median(&results.iter().map(|e| e.prepare_s).collect::<Vec<_>>()),
        "s",
    );
    report.put(
        "flows.prepared_heap_mb",
        mean(&results.iter().map(|e| e.prepared_mb).collect::<Vec<_>>()),
        "MB",
    );
    report.put(
        "types.convert_s",
        mean(&results.iter().map(|e| e.convert_s).collect::<Vec<_>>()),
        "s",
    );
    report.put("wire.encode_us", mean(&encode_us), "us");
    report.put("wire.decode_us", mean(&all.iter().map(|r| r.decode_us).collect::<Vec<_>>()), "us");
    Ok(())
}

/// The load generator's connections and the state shared across rates.
struct Ladder<'a> {
    traffic: TcpStream,
    control: Client,
    control_id: u64,
    next_id: u64,
    pool: &'a [PoolEntry],
    admit_frames: &'a [Vec<u8>],
    admits_sent: usize,
    /// Calibrator index (into the drifted snapshots, 1-based) of every
    /// version an admit created.
    version_of_admit: BTreeMap<u64, usize>,
    daemon_pid: u32,
}

impl Ladder<'_> {
    fn probe(&mut self) -> Result<MetricsInfo, String> {
        self.control
            .request(&Request::metrics())
            .map_err(|e| format!("metrics probe: {e}"))?
            .metrics
            .ok_or_else(|| "the metrics probe returned no metrics".to_string())
    }

    /// Offers `schedule` under `load` for `secs`, admitting a drifted
    /// snapshot every [`ADMIT_EVERY_S`] when `admit` is set.
    fn run(
        &mut self,
        load: Load,
        secs: f64,
        schedule: &[usize],
        admit: bool,
        tracer: &crate::trace::Tracer,
    ) -> Result<Rung, String> {
        let before = self.probe()?;
        let ticks_before = sys::host_ticks();
        let cpu_before = sys::cpu_seconds(self.daemon_pid).unwrap_or(0.0);
        let span = tracer.open("serve.rate", 0);
        let first_id = self.next_id;
        self.next_id += schedule.len() as u64;
        let received_count = AtomicUsize::new(0);
        // Frames the receiver waits for; a closed-loop sender sets it when
        // it stops.
        let expected = AtomicUsize::new(match load {
            Load::Rate(_) => schedule.len(),
            Load::Window(_) => usize::MAX,
        });
        let start = Instant::now() + Duration::from_millis(20);
        let end = start + Duration::from_secs_f64(secs);
        let mut admits = Vec::new();
        let mut writer = self.traffic.try_clone().map_err(|e| e.to_string())?;
        let mut reader = self.traffic.try_clone().map_err(|e| e.to_string())?;
        let pool = self.pool;
        let (sent, received) = std::thread::scope(|scope| {
            let (received_count, expected) = (&received_count, &expected);
            let sender = scope.spawn(move || {
                let counts = Counts { received: received_count, expected };
                send_schedule(&mut writer, pool, schedule, load, start, end, first_id, counts)
            });
            let receiver = scope.spawn(move || receive(&mut reader, expected, received_count));
            let mut offset = ADMIT_EVERY_S / 2.0;
            while admit && offset < secs {
                let due = start + Duration::from_secs_f64(offset);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                admits.push(self.admit());
                offset += ADMIT_EVERY_S;
            }
            let sent = sender.join().map_err(|_| "sender panicked".to_string())??;
            let got = receiver.join().map_err(|_| "receiver panicked".to_string())??;
            Ok::<_, String>((sent, got))
        })?;
        tracer.close(span);
        let daemon_cpu_s = sys::cpu_seconds(self.daemon_pid).unwrap_or(0.0) - cpu_before;
        let steal_pct = match (ticks_before, sys::host_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            _ => 0.0,
        };
        let after = self.probe()?;
        let (sent, backlog_max, backlog_end) = sent;
        Ok(Rung {
            load,
            sent,
            received: received.into_iter().map(decode).collect(),
            backlog_max,
            backlog_end,
            admits,
            daemon_cpu_s,
            steal_pct,
            before,
            after,
        })
    }

    /// Admits the next drifted snapshot; returns the milliseconds it took
    /// and the version the daemon assigned (`None` if it failed).
    fn admit(&mut self) -> (f64, Option<u64>) {
        let which = self.admits_sent % self.admit_frames.len();
        self.admits_sent += 1;
        let mut frame = self.admit_frames[which].clone();
        frame[8..16].copy_from_slice(&self.control_id.to_le_bytes());
        self.control_id += 1;
        let t = Instant::now();
        let reply = self.control.send_raw(&frame).and_then(|()| self.control.recv());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let version = match reply {
            Ok((_, r)) if r.ok => r.version,
            _ => None,
        };
        if let Some(v) = version {
            self.version_of_admit.insert(v, 1 + which);
        }
        (ms, version)
    }
}

/// The receiver's progress, shared with the sender.
#[derive(Clone, Copy)]
struct Counts<'a> {
    received: &'a AtomicUsize,
    expected: &'a AtomicUsize,
}

/// Sends one rung's schedule: at its due times for a rate, or whenever the
/// window has room until `end` for the closed loop. Returns what was sent,
/// the largest backlog seen at a send, and the backlog at the last send.
#[allow(clippy::too_many_arguments)]
fn send_schedule(
    writer: &mut TcpStream,
    pool: &[PoolEntry],
    schedule: &[usize],
    load: Load,
    start: Instant,
    end: Instant,
    first_id: u64,
    counts: Counts<'_>,
) -> Result<(Vec<Sent>, usize, usize), String> {
    let mut sent = Vec::with_capacity(schedule.len());
    let mut buf = Vec::new();
    let mut backlog_max = 0;
    let mut backlog = 0;
    for (i, &entry) in schedule.iter().enumerate() {
        let due = match load {
            Load::Rate(rate) => {
                let due = start + Duration::from_secs_f64(i as f64 / f64::from(rate));
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                due
            }
            Load::Window(depth) => {
                std::thread::sleep(start.saturating_duration_since(Instant::now()));
                while i.saturating_sub(counts.received.load(Ordering::Relaxed)) >= depth {
                    std::thread::sleep(WINDOW_POLL);
                }
                let now = Instant::now();
                if now >= end {
                    break;
                }
                now
            }
        };
        let id = first_id + i as u64;
        buf.clear();
        buf.extend_from_slice(&pool[entry].frame);
        buf[8..16].copy_from_slice(&id.to_le_bytes());
        let at = Instant::now();
        writer.write_all(&buf).map_err(|e| format!("sending request {id}: {e}"))?;
        backlog = (i + 1).saturating_sub(counts.received.load(Ordering::Relaxed));
        backlog_max = backlog_max.max(backlog);
        sent.push(Sent { id, entry, due, sent: at });
    }
    counts.expected.store(sent.len(), Ordering::Relaxed);
    Ok((sent, backlog_max, backlog))
}

/// Reads `expected` response frames (or until [`DRAIN_TIMEOUT`] passes
/// without the last of them), stamping each on arrival. `expected` may be
/// lowered while this runs. Decoding waits
/// until the load has stopped, so the generator stays light.
fn receive(
    reader: &mut TcpStream,
    expected: &AtomicUsize,
    received: &AtomicUsize,
) -> Result<Vec<(Instant, wire::Frame)>, String> {
    reader.set_read_timeout(Some(Duration::from_millis(100))).map_err(|e| e.to_string())?;
    let expected = || expected.load(Ordering::Relaxed);
    let mut out = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_progress = Instant::now();
    while out.len() < expected() {
        while let Some((frame, used)) =
            wire::try_parse_frame(&buf, usize::MAX).map_err(|e| format!("response stream: {e}"))?
        {
            out.push((Instant::now(), frame));
            buf.drain(..used);
            received.fetch_add(1, Ordering::Relaxed);
            last_progress = Instant::now();
        }
        if out.len() >= expected() {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Err("the daemon closed the traffic connection".to_string()),
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if last_progress.elapsed() > DRAIN_TIMEOUT {
                    break;
                }
            }
            Err(e) => return Err(format!("reading responses: {e}")),
        }
    }
    Ok(out)
}

/// Decodes a received frame, timing the decode.
fn decode((at, frame): (Instant, wire::Frame)) -> Received {
    let t = Instant::now();
    let response: Result<Response, String> = wire::decode_response(&frame);
    let decode_us = t.elapsed().as_secs_f64() * 1e6;
    match response {
        Ok(r) => Received {
            id: frame.id,
            at,
            ok: r.ok,
            version: r.version,
            digest: r.dist.as_ref().map(dist_digest),
            out_strings: r.dist.as_ref().map_or(0, |d| d.support_len()),
            stats: r.stats.unwrap_or_default(),
            decode_us,
        },
        Err(_) => Received {
            id: frame.id,
            at,
            ok: false,
            version: None,
            digest: None,
            out_strings: 0,
            stats: EngineStats::default(),
            decode_us,
        },
    }
}

/// An in-process calibration of one pool entry against one calibrator.
struct Expected {
    digest: u64,
    fidelity: f64,
    prepare_s: f64,
    prepared_mb: f64,
    convert_s: f64,
}

fn expected(calibrator: &QuFem, entry: &PoolEntry) -> Result<Expected, String> {
    let measured = entry.workload.measured.clone();
    let t0 = Instant::now();
    let prepared = calibrator.prepare_with_threads(&measured, 1).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let input = SupportIndex::from_dist(&entry.workload.noisy);
    let t2 = Instant::now();
    let mut arena = prepared.new_arena();
    let mut stats = EngineStats::default();
    let index =
        prepared.apply_arena(&input, 1, &mut stats, &mut arena).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let out = index.to_dist();
    let t4 = Instant::now();
    Ok(Expected {
        digest: dist_digest(&out),
        fidelity: entry.workload.relative_fidelity(&out),
        prepare_s: (t1 - t0).as_secs_f64(),
        prepared_mb: prepared.heap_bytes() as f64 / 1e6,
        convert_s: (t2 - t1 + (t4 - t3)).as_secs_f64(),
    })
}
