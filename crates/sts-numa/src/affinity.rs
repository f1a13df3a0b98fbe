//! Thread-to-core pinning.
//!
//! The paper pins OpenMP threads with `KMP_AFFINITY=compact`. The worker pool
//! in [`pool`](crate::pool) pins each worker to a core id taken from the
//! caller's core order (e.g. `0..threads`, the compact order) using
//! `sched_setaffinity` on Linux. On other platforms, and for a core the
//! kernel refuses (offline, or outside the process's cpuset), pinning
//! degrades to a no-op so the library stays portable.

/// Outcome of a pinning attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinResult {
    /// The calling thread is now pinned to the requested core.
    Pinned,
    /// Pinning is unsupported on this platform or the core does not exist;
    /// the thread keeps its default affinity.
    Unsupported,
}

/// Number of logical cores the calling thread may run on (its affinity
/// mask, so 1 on a thread pinned to one core).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

/// Pins the calling thread to `core`. Returns [`PinResult::Unsupported`]
/// rather than failing when the platform cannot pin or the kernel refuses
/// the core, because a reproduction run on a laptop should still work
/// unpinned.
///
/// Whether `core` exists is the kernel's answer, not the caller's affinity
/// mask: a thread spawned by a pinned thread inherits its one-core mask and
/// can still pin itself anywhere the process may run.
pub fn pin_current_thread(core: usize) -> PinResult {
    pin_impl(core)
}

/// glibc's `cpu_set_t`: a 1024-bit CPU mask. Declared directly instead of
/// through the libc crate, which the offline build does not have.
#[cfg(target_os = "linux")]
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    #[cfg(test)]
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
}

#[cfg(target_os = "linux")]
fn pin_impl(core: usize) -> PinResult {
    if core >= 16 * 64 {
        return PinResult::Unsupported;
    }
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[core / 64] |= 1u64 << (core % 64);
    // SAFETY: the mask is a plain bitmask we own on the stack and the kernel
    // reads exactly `size_of::<CpuSet>()` bytes from it; pid 0 targets the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    // The kernel's EINVAL (a core that is offline or outside the cpuset) is
    // the one error a valid mask can get back.
    if rc == 0 {
        PinResult::Pinned
    } else {
        PinResult::Unsupported
    }
}

/// The cores the calling thread may run on, from `sched_getaffinity`.
#[cfg(all(test, target_os = "linux"))]
pub(crate) fn current_cores() -> Vec<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into the
    // mask we own on the stack; pid 0 targets the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..16 * 64)
        .filter(|&c| set.bits[c / 64] & (1u64 << (c % 64)) != 0)
        .collect()
}

#[cfg(not(target_os = "linux"))]
fn pin_impl(_core: usize) -> PinResult {
    PinResult::Unsupported
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_cores_is_positive() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn pinning_to_core_zero_does_not_panic() {
        // Either outcome is acceptable; the call must simply not fail.
        let r = pin_current_thread(0);
        assert!(matches!(r, PinResult::Pinned | PinResult::Unsupported));
    }

    #[test]
    fn pinning_out_of_range_reports_unsupported() {
        assert_eq!(pin_current_thread(usize::MAX), PinResult::Unsupported);
    }

    /// A pinned caller that builds a pinned pool: the helpers inherit the
    /// caller's one-core mask and must still reach their own cores.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_pinned_caller_does_not_confine_its_pinned_helpers() {
        use crate::pool::{Schedule, WorkerPool};
        use std::sync::Mutex;

        let host = current_cores();
        std::thread::spawn(move || {
            if pin_current_thread(0) != PinResult::Pinned {
                return;
            }
            assert_eq!(current_cores(), vec![0]);
            let pool = WorkerPool::with_pinning(2, &[0, 1]);
            // Under the static schedule index i runs on slot i.
            let masks: Vec<Mutex<Vec<usize>>> = (0..2).map(|_| Mutex::new(Vec::new())).collect();
            pool.parallel_for(2, Schedule::Static, &|i| {
                *masks[i].lock().unwrap() = current_cores();
            })
            .unwrap();
            assert_eq!(*masks[0].lock().unwrap(), vec![0], "the caller stays put");
            if host.contains(&1) {
                assert_eq!(
                    *masks[1].lock().unwrap(),
                    vec![1],
                    "the helper reaches core 1"
                );
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn pinned_thread_still_computes() {
        let handle = std::thread::spawn(|| {
            let _ = pin_current_thread(0);
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(handle.join().unwrap(), 499_500);
    }
}
