//! The few operating-system facts the standard library does not expose:
//! CPU time of reaped children (`getrusage`), a process group kill, and a
//! process's peak resident set from `/proc/<pid>/status`.

use std::time::Duration;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    /// `ru_maxrss` (KiB) followed by thirteen counters this crate ignores.
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// CPU seconds and peak resident set of a `getrusage` target.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// `ru_maxrss`, in KiB.
    pub maxrss_kb: u64,
}

fn usage(who: i32) -> Usage {
    let mut raw = RUsage::default();
    // SAFETY: `raw` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage`, and `who` is one of the two documented
    // selectors, so the call writes only inside `raw`.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage with a valid selector cannot fail");
    let secs = |t: TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(raw.utime) + secs(raw.stime),
        maxrss_kb: raw.longs[0].max(0) as u64,
    }
}

/// Usage of this process (all its threads, live and ended).
pub fn self_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// Cumulative usage of every child this process has reaped, each with
/// the children *it* reaped: the difference across one job's wait is the
/// job's CPU, descendants included.
pub fn children_usage() -> Usage {
    usage(RUSAGE_CHILDREN)
}

/// Sends SIGKILL to every process in group `pgid` and waits (up to 5 s)
/// until none is left. Used only on failure paths: a wedged coordinator
/// and the workers it spawned all live in the group the benchmark gave it.
pub fn kill_group(pgid: u32) {
    let Ok(pgid) = i32::try_from(pgid) else {
        return;
    };
    // SAFETY: `kill` takes plain integers; a negative pid addresses the
    // process group, which the benchmark created for this job only.
    unsafe {
        kill(-pgid, SIGKILL);
    }
    for _ in 0..500 {
        // SAFETY: signal 0 only probes whether any member still exists.
        if unsafe { kill(-pgid, 0) } != 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `VmHWM` (peak resident set, KiB) of a running process; `None` once it
/// has exited (a zombie has no memory map) or never existed.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}
