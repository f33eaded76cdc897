//! What the run was measured on and with: the facts behind the `host` line.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system CPU time of every
/// thread of the process, nanosecond resolution (`/proc/self/stat` only
/// offers 10 ms ticks, too coarse for a 1.5 s round).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the whole process has consumed so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which refers to a live, properly aligned local of that exact layout;
    // the clock id is a valid constant, and the call has no other effects.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Per-core L2 size in bytes, from sysfs (`None` off Linux).
pub fn l2_bytes() -> Option<u64> {
    let raw = read_trimmed("/sys/devices/system/cpu/cpu0/cache/index2/size")?;
    let (digits, scale) = match raw.as_bytes().last()? {
        b'K' => (&raw[..raw.len() - 1], 1u64 << 10),
        b'M' => (&raw[..raw.len() - 1], 1u64 << 20),
        _ => (raw.as_str(), 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version`, or `unknown` when no compiler is on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; `none`
/// in an exported tree.
pub fn git_rev() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "none".into();
    };
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&format!(".git/{reference}")).unwrap_or(head),
        None => head,
    };
    rev.chars().take(12).collect()
}
