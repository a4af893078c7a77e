//! What the run ran on: the stamp written into every result file, and the
//! process's own resource readings (`/proc/self`).

use crate::json::Json;
use std::process::Command;

/// Threads the renderer pool gets: the cores there are, at most 4, so the
/// load generator never asks for more threads than the host has.
pub fn pool_threads() -> usize {
    cores().min(4)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// Size of the last-level cache as sysfs prints it (`"32768K"`).
fn last_level_cache() -> Option<String> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read =
            |f: &str| std::fs::read_to_string(dir.join(f)).ok().map(|s| s.trim().to_string());
        let (Some(level), Some(size)) =
            (read("level").and_then(|l| l.parse::<u32>().ok()), read("size"))
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

fn env_or_default(var: &str) -> Json {
    std::env::var(var).map_or(Json::str("default"), Json::Str)
}

/// The host stamp. The driver's checkout is not a git repository, so the
/// revision is `"unknown"` there.
pub fn stamp(threads: usize) -> Json {
    let opt = |v: Option<String>| v.map_or(Json::str("unknown"), Json::Str);
    Json::obj([
        ("git_rev", opt(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", opt(command_line("rustc", &["-V"]))),
        ("cores", Json::Num(cores() as f64)),
        ("threads", Json::Num(threads as f64)),
        ("RAYON_NUM_THREADS", env_or_default("RAYON_NUM_THREADS")),
        ("DPP_PAR_MIN_LEN", env_or_default("DPP_PAR_MIN_LEN")),
        ("DPP_FOLD_GRAIN", env_or_default("DPP_FOLD_GRAIN")),
        ("DPP_OVERPARTITION", env_or_default("DPP_OVERPARTITION")),
        ("last_level_cache", opt(last_level_cache())),
    ])
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds (user + system, every thread) this process has used so far,
/// at the clock's nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, and `Timespec` has that layout on 64-bit Linux (two 64-bit
    // fields); the pointer is to a live local. The C library std already
    // links provides the symbol.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_positive_and_monotone() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(pool_threads() >= 1 && pool_threads() <= 4);
    }
}
