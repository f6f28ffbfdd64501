//! Confines the process to one CPU.
//!
//! The two handshake workloads run a conversation between two threads
//! (client and front door). Left to the scheduler, every message wakes a
//! thread on the *other* core — on a virtual machine that is a trip
//! through the hypervisor per hop, and the "handshake time" measured is
//! mostly that trip, varying severalfold from run to run. On one CPU a
//! hop is a context switch: what remains is the program's own work.

use std::fs;

/// The highest-numbered CPU this process may run on.
fn last_allowed_cpu() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.trim().parse().ok()
}

/// Pins the calling thread — and every thread it spawns from now on — to
/// one allowed CPU. Returns the CPU, or `None` where that is not possible
/// (the run then goes ahead unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // a 1024-CPU mask, the kernel's default size
    let cpu = last_allowed_cpu()?;
    if cpu >= WORDS * 64 {
        return None;
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is a live, aligned buffer of exactly the
    // `cpusetsize` bytes passed; the kernel only reads it. pid 0 names the
    // calling thread. The symbol is glibc's, which std already links.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
