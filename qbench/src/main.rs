//! `qbench`: the repository benchmark.
//!
//! ```text
//! qbench --workload <characterize-large|serve-partial> \
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures whole operations
//! until `--seconds` have passed (always at least one full round), checks
//! every output, and prints its metrics by name with units. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, and `metrics`
//! — the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `qbench/README.md` for what each metric means in each
//! workload.

mod characterize;
mod common;
mod report;
mod serve;
mod sys;
mod trace;

use std::time::Instant;
use trace::Tracer;

/// Worker threads for every in-process layer, the daemon, and the children.
pub const THREADS: usize = 2;

/// Seed of every device preset's noise model and of the circuits users run
/// on it (algorithm instances, measured subsets): the simulated hardware and
/// its users stay the same across runs, while `--seed` draws the
/// benchmarking circuits, every shot, and the order of the traffic.
pub const DEVICE_SEED: u64 = 0;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        std::process::exit(characterize::child_main(&args[1..]));
    }
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("qbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.clone();
    let seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let traced = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    std::env::set_var("QUFEM_THREADS", THREADS.to_string());
    println!(
        "# qbench workload={workload} seed={seed} seconds={seconds} trace={} commit={} source={} nproc={} QUFEM_THREADS={THREADS}",
        u8::from(traced),
        commit(),
        source_digest(),
        sys::nproc(),
    );
    let ctx = Ctx { seed, seconds, tracer: Tracer::new(traced) };
    let started = Instant::now();
    let ticks = sys::host_ticks();
    let mut report = match workload.as_str() {
        "characterize-large" => characterize::run(&ctx)?,
        "serve-partial" => serve::run(&ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, sys::host_ticks()) {
        report.put("host.steal_pct", 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64, "%");
    }
    if traced {
        let wall = started.elapsed().as_secs_f64();
        let spans = ctx.tracer.span_count();
        // Modelled, not measured: the traced and untraced runs are separate
        // processes, so their difference is not visible from here.
        let overhead_s = spans as f64 * trace::record_cost_ns() / 1e9;
        report.put("trace.spans", spans as f64, "count");
        report.put("trace.overhead_pct", 100.0 * overhead_s / wall, "%");
        for (layer, secs) in ctx.tracer.self_seconds() {
            report.put(format!("{layer}.self_cpu_s"), secs, "s");
        }
        let dir = std::path::Path::new("qbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        std::fs::write(&path, ctx.tracer.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    report.print(traced)
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Digest of the sources the benchmark builds, standing in for a commit id
/// in checkouts that are not git repositories.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "qbench/src", "qbench/Cargo.toml"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut digest = qufem_core::Digest64::new();
    for path in &files {
        digest.write_str(&path.to_string_lossy());
        if let Ok(bytes) = std::fs::read(path) {
            digest.write(&bytes);
        }
    }
    format!("{}-files-{}", files.len(), digest.hex())
}

fn collect_files(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}
