//! Process measurements read from `/proc/self`: CPU time, peak resident
//! memory, and the clock-tick rate that converts one into seconds.

use std::fs;
use std::sync::OnceLock;

/// `AT_CLKTCK` in the auxiliary vector: the tick rate of `/proc/*/stat`.
const AT_CLKTCK: u64 = 17;

fn clock_ticks_per_second() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        let auxv = fs::read("/proc/self/auxv").unwrap_or_default();
        auxv.chunks_exact(16)
            .map(|pair| {
                let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
                (word(&pair[..8]), word(&pair[8..]))
            })
            .find(|&(key, _)| key == AT_CLKTCK)
            .map_or(100.0, |(_, ticks)| ticks as f64)
    })
}

/// User plus system CPU seconds this process has used so far, from
/// `/proc/self/stat` (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the numeric fields start after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / clock_ticks_per_second()
}

/// Peak resident set size (`VmHWM`) of this process in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
