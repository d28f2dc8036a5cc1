//! Pins the calling thread, and every thread it spawns afterwards, to the
//! CPU it is running on.
//!
//! The measured phases run one generator thread and one front-end worker
//! that take turns (a closed loop), so one CPU costs them no parallelism.
//! On a shared VM, a wake-up sent to the other vCPU can wait milliseconds
//! for the hypervisor to run it, and that wait, not the program, then sets
//! the latency tail (see README, "Steadiness").

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getcpu() -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Pins to the current CPU, returning it; `None` where that is not
/// possible (then nothing changed).
#[cfg(target_os = "linux")]
pub fn to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = usize::try_from(unsafe { sys::sched_getcpu() }).ok()?;
    let mut mask: sys::CpuSet = [0; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `mask` is a live, aligned
    // `cpu_set_t` of the size passed, which the call only reads.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), &mask) };
    (rc == 0).then_some(cpu)
}

/// Pins to the current CPU, returning it; `None` where that is not
/// possible (then nothing changed).
#[cfg(not(target_os = "linux"))]
pub fn to_current_cpu() -> Option<usize> {
    None
}
