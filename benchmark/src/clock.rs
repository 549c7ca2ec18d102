//! Clocks and `/proc` readers the harness measures with.

/// Process CPU time (user + system, all threads) in seconds, from
/// `CLOCK_PROCESS_CPUTIME_ID` — nanosecond resolution, where the
/// `utime`/`stime` fields of `/proc/self/stat` tick at 10 ms.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// Linux's clock id (`<time.h>`); the benchmark targets this box.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the 64-bit
    // Linux layout (two `long`s), and the libc symbol std already links
    // writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Cumulative steal ticks of all CPUs from `/proc/stat` (the eighth
/// field of the `cpu` line): time the hypervisor ran something else
/// while this VM wanted the CPU. `None` off Linux.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// The process's peak resident set (`VmHWM`) in MB. `None` off Linux.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > t0, "{x}");
    }
}
