//! Host facts and CPU/memory readings from `/proc` (Linux only).

use std::fs;

/// CPU nanoseconds of the calling thread (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Summed CPU nanoseconds of this process's live threads whose name
/// (as the kernel keeps it, truncated to 15 bytes) starts with one of
/// `prefixes`.
pub fn threads_cpu_ns(prefixes: &[&str]) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !prefixes.iter().any(|p| comm.trim_end().starts_with(p)) {
            continue;
        }
        total += fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
    }
    total
}

/// CPU nanoseconds of the whole process, reaped threads included
/// (`utime + stime` of `/proc/self/stat`, at clock-tick resolution).
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields
        .get(11..13)
        .map(|f| f.iter().filter_map(|v| v.parse::<u64>().ok()).sum())
        .unwrap_or(0);
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks * 10_000_000
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide (steal, total) clock ticks from the `cpu` line of
/// `/proc/stat`: time the hypervisor ran something else while this
/// machine's CPUs wanted to run.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Host steal share over an interval, from two [`steal_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        return 0.0;
    }
    to.0.saturating_sub(from.0) as f64 / total as f64
}

/// A measured window during which the hypervisor withheld the CPUs for
/// more than this share of the time is invalid.
pub const MAX_STEAL_SHARE: f64 = 0.02;

/// Windows measured per run at most: an invalid one is measured once
/// more before the run reports it as invalid.
pub const MAX_ATTEMPTS: usize = 2;

/// Online CPUs as the scheduler offers them to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel release string.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}
