//! Process measurements and settings from the C library: `getrusage`
//! for CPU time, voluntary context switches and peak resident memory,
//! `gethostname` and `sysconf` for provenance, CPU affinity, and
//! `mallopt`. The layouts and constants are Linux glibc's; the benchmark
//! runs there only.

use std::os::raw::{c_char, c_int, c_long};
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux `struct rusage`: two `timeval`s, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

/// glibc `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    fn gethostname(name: *mut c_char, len: usize) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn sched_getcpu() -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const SC_NPROCESSORS_ONLN: c_int = 84;
const M_TRIM_THRESHOLD: c_int = -1;
const M_MMAP_THRESHOLD: c_int = -3;

/// Resource usage of the whole process (every thread, live or joined).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// CPU time in user mode.
    pub user: Duration,
    /// CPU time in the kernel.
    pub sys: Duration,
    /// Voluntary context switches (a thread blocked, e.g. parked on a
    /// condition variable).
    pub vcsw: u64,
    /// Peak resident set size in KiB (a high-water mark, not a delta).
    pub max_rss_kib: u64,
}

fn timeval(tv: &Timeval) -> Duration {
    let sec = u64::try_from(tv.sec).unwrap_or(0);
    let usec = u64::try_from(tv.usec).unwrap_or(0);
    Duration::from_secs(sec) + Duration::from_micros(usec)
}

/// The process's resource usage so far.
pub fn usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `RawRusage`, whose layout is the
    // Linux `struct rusage`; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    Usage {
        user: timeval(&raw.utime),
        sys: timeval(&raw.stime),
        vcsw: u64::try_from(raw.nvcsw).unwrap_or(0),
        max_rss_kib: u64::try_from(raw.maxrss).unwrap_or(0),
    }
}

impl std::ops::Sub for Usage {
    type Output = Usage;

    /// CPU times and switches accrued between two samples; the peak RSS
    /// of the later one.
    fn sub(self, earlier: Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
            max_rss_kib: self.max_rss_kib,
        }
    }
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, other: Usage) {
        self.user += other.user;
        self.sys += other.sys;
        self.vcsw += other.vcsw;
        self.max_rss_kib = self.max_rss_kib.max(other.max_rss_kib);
    }
}

/// The host's name, or `unknown`.
pub fn hostname() -> String {
    let mut buf = [0u8; 256];
    // SAFETY: `buf` is valid for writes of `buf.len()` bytes, and
    // gethostname writes at most `len` bytes.
    let rc = unsafe { gethostname(buf.as_mut_ptr().cast(), buf.len()) };
    if rc != 0 {
        return "unknown".to_string();
    }
    let end = buf.iter().position(|&b| b == 0).unwrap_or(buf.len());
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

/// CPUs online on the host, whatever this process may run on.
pub fn online_cpus() -> usize {
    // SAFETY: sysconf takes no pointers.
    let n = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
    usize::try_from(n).unwrap_or(0)
}

/// The CPU the calling thread is running on.
pub fn current_cpu() -> std::io::Result<usize> {
    // SAFETY: sched_getcpu takes no arguments.
    usize::try_from(unsafe { sched_getcpu() }).map_err(|_| std::io::Error::last_os_error())
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the CPU it is running on now; returns that CPU. Two benchmark
/// processes started together thus usually land on different CPUs.
pub fn pin_to_current_cpu() -> std::io::Result<usize> {
    let cpu = current_cpu()?;
    let mut one = CpuSet { bits: [0; 16] };
    *one.bits
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other("CPU number beyond the mask"))? = 1 << (cpu % 64);
    // SAFETY: `one` is a readable mask of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Serve every block below 32 MiB from the heap and never return heap
/// memory to the system.
///
/// By default glibc adapts both thresholds as blocks are freed, and each
/// process settled in one of two states: the engine's 8 MiB lock table
/// came either from a fresh mapping (no zeroing in setup, page faults in
/// the phase) or from reused heap (zeroed in setup, warm in the phase).
/// `solo` measured `wall_s` 0.34–0.37 s in the reused-heap state and
/// 0.40–0.51 s in the other. Fixed thresholds keep every run in the
/// reused-heap state.
pub fn fix_malloc_thresholds() -> std::io::Result<()> {
    // SAFETY: mallopt takes no pointers.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
    };
    if ok {
        Ok(())
    } else {
        Err(std::io::Error::other("mallopt refused the thresholds"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let delta = usage() - before;
        assert!(delta.user + delta.sys > Duration::ZERO);
        assert!(delta.max_rss_kib > 0);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        // A thread of its own, so the test harness's threads keep theirs.
        std::thread::spawn(|| {
            let cpu = pin_to_current_cpu().expect("pin");
            assert!(cpu < online_cpus());
            let inner = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
            assert_eq!(inner.join().unwrap(), 1);
        })
        .join()
        .unwrap();
    }
}
