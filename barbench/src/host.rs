//! The host process: its allocator setting, and the facts the output
//! reports about it (hardware threads, CPU model, peak resident set, and
//! how long this thread waited for a CPU), read from the process's own
//! `/proc` entries, each `None` where unavailable.

use std::fs;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// Make every round start from the allocator state of a fresh process.
///
/// glibc serves a large allocation with its own mapping, but raises that
/// threshold each time such a mapping is freed. From the second round of a
/// run on, the capture buffers would then grow inside the heap by copying,
/// slower and with a higher peak than in the first round, and by an amount
/// that depends on how many rounds ran. Pinning the threshold at its
/// default keeps every round like the first.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        // SAFETY: `mallopt` only changes an allocator tunable and is called
        // before this process starts any other thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name, if the platform reports one.
pub fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Peak resident set size (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// `(on-CPU ns, run-queue wait ns)` of the calling thread so far.
pub fn schedstat() -> Option<(u64, u64)> {
    let s = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = s.split_whitespace().map(str::parse::<u64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}
