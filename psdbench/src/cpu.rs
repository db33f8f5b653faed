//! Which host CPU the benchmark runs on.
//!
//! On a shared host, other tenants slow one CPU at a time, for seconds
//! to minutes. A single-threaded run that stays on one CPU can spend a
//! whole run on a slowed CPU. Set-up therefore runs its repetitions on
//! each allowed CPU in turn, and the measured phase moves itself to the
//! next allowed CPU every [`STINT`], so every run samples each CPU many
//! times (see README.md, "Why the 95th percentile and CPU
//! rotation").

use std::time::Duration;

/// Host time spent on one CPU before moving to the next.
pub const STINT: Duration = Duration::from_millis(100);

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 CPUs.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs this process may run on, in ascending order (empty when
/// the platform does not say).
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut mask: sys::CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 is the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Moves the calling thread to `cpu`. Failure leaves it where it was.
#[cfg(target_os = "linux")]
pub fn pin(cpu: usize) {
    let mut mask: sys::CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 is the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// The CPUs this process may run on (unknown on this platform).
#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

/// Moves the calling thread to `cpu` (not supported on this platform).
#[cfg(not(target_os = "linux"))]
pub fn pin(_cpu: usize) {}
