//! Provenance of a result: the commit it was built from, the host, and the
//! process's own resident memory.

use std::fs;
use std::path::Path;

/// The commit named by `.git/HEAD` of the working directory, when it is a
/// git checkout.
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| packed_ref(reference))
            .map_or_else(|| "unknown".to_owned(), |id| id.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown (not a git checkout)".to_owned(),
    }
}

fn packed_ref(reference: &str) -> Option<String> {
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_owned()))
}

/// CPUs this process may run on. Read it before [`pin_to_current_cpu`],
/// which leaves one.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the calling thread to the CPU it runs on now and returns that CPU.
/// Threads it starts later inherit the pin, so when this is called before
/// any other thread exists, the whole process runs on one CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    // A `cpu_set_t` of glibc: 1024 bits.
    let mut mask = [0u64; 16];
    let slot = usize::try_from(cpu)
        .ok()
        .filter(|&cpu| cpu < 64 * mask.len())
        .ok_or_else(|| format!("sched_getcpu returned {cpu}"))?;
    mask[slot / 64] |= 1 << (slot % 64);
    // SAFETY: `mask` is a live, fully initialised `cpu_set_t`-sized buffer
    // whose size is passed along; pid 0 is the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status != 0 {
        return Err(format!(
            "cannot pin to CPU {slot}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(slot)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    Err("pinning the benchmark to one CPU needs Linux".to_owned())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `VmHWM` of this process in MiB: the peak resident set size.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// `VmRSS` of this process in MiB: the resident set size now.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
