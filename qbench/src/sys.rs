//! Process probes read from `/proc`: peak resident set, CPU time, and host
//! steal.

use std::fs;

/// Peak resident set size (`VmHWM`) of a process in KiB; `None` reads this
/// process. Returns `None` once the process is gone.
pub fn vm_hwm_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = fs::read_to_string(path).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// CPU seconds (user + system, all threads) a process has used so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// `sysconf(_SC_CLK_TCK)` on every Linux target this runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Host CPU ticks as `(steal, total)` from the first line of `/proc/stat`;
/// steal is time the hypervisor gave this machine's CPUs to someone else.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
