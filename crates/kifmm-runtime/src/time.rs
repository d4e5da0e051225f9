//! Thread CPU clock without libc.
//!
//! The bench harness runs many virtual MPI ranks as threads on a few
//! cores; per-thread CPU time (`CLOCK_THREAD_CPUTIME_ID`) stays meaningful
//! under that oversubscription while wall time would charge a rank for
//! time it spent descheduled. The hermetic build has no libc binding, so
//! on Linux the clock is read with a raw `clock_gettime` syscall; other
//! platforms fall back to a process-wide monotonic wall clock (the two
//! agree on a dedicated core, which is the only place non-Linux numbers
//! would be quoted anyway).

/// Seconds of CPU time consumed by the calling thread. The crate's one
/// `unsafe`: the raw syscall.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[allow(unsafe_code)]
pub fn thread_cpu_time() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: usize = 3;
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    let ret: isize;
    // SAFETY: clock_gettime only writes the `repr(C)` timespec we hand it
    // (a live, exclusively borrowed local of the kernel's 64-bit layout);
    // the clock id is valid on all Linux kernels this crate supports; the
    // syscall clobbers rcx/r11, both declared.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 228isize => ret, // __NR_clock_gettime
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") &mut ts as *mut Timespec,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    // SAFETY: as above; `svc #0` clobbers only x0, declared as the output.
    #[cfg(target_arch = "aarch64")]
    unsafe {
        std::arch::asm!(
            "svc #0",
            inlateout("x0") CLOCK_THREAD_CPUTIME_ID as isize => ret,
            in("x1") &mut ts as *mut Timespec,
            in("x8") 113isize, // __NR_clock_gettime
            options(nostack),
        );
    }
    debug_assert_eq!(ret, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds of CPU time consumed by the calling thread (wall-clock
/// fallback for platforms without the raw-syscall binding).
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub fn thread_cpu_time() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}
