//! A counter-based epoch gate for level-scheduled (barrier-free) pack
//! execution.
//!
//! A barrier after every pack makes each chunk of pack `p + 1` wait for all
//! of pack `p`, even when the chunk reads nothing pack `p` writes. The
//! level-scheduled IC(0) build (`sts-core`'s `parallel_ic0`) waits instead
//! only for the packs a chunk actually reads, through an [`EpochGate`]:
//!
//! * each stage (pack) declares, up front, how many **arrivals** (static
//!   chunks) it will receive;
//! * workers report a completed chunk with [`EpochGate::arrive`];
//! * the *"stages done"* flag is the **epoch**: the number of consecutive
//!   leading stages whose arrivals have all been reported.
//!   [`EpochGate::wait_open_until`]`(d, ..)` waits until stages `0..d` are
//!   done, which is exactly the readiness test for a chunk whose latest
//!   external read targets pack `d - 1`.
//!
//! # Memory ordering
//!
//! Arrivals decrement their counters with `AcqRel`; successive decrements of
//! one counter form a single release sequence, so a thread that observes a
//! counter at zero with an `Acquire` load synchronises with *every* arriving
//! thread — all writes made before any arrival are visible behind the flag.
//! The epoch is advanced (with a release CAS) only after acquiring such a
//! zero, and epoch waiters use `Acquire` loads, so visibility chains
//! transitively across stages and across whichever threads happened to do the
//! advancing: a `Ready` from `wait_open_until(d, ..)` happens-after every
//! write made before every arrival of stages `0..d`.
//!
//! Zero-arrival stages (empty packs) complete implicitly: the advance loop
//! walks past them the moment the epoch reaches them (or at construction).
//! The protocol is monotone — counters only count down and the epoch only
//! moves forward — so a gate serves one dispatch; the next one builds a
//! fresh gate.
//!
//! # Poisoning and watchdog deadlines
//!
//! The monotone protocol has one failure mode: an arrival that never comes.
//! A worker that panics (its body is caught by the pool) or stalls leaves its
//! stage's counter above zero, and a peer waiting for that stage would wait
//! forever. The gate's one wait, [`EpochGate::wait_open_until`], is therefore
//! bounded twice over:
//!
//! * **Poisoning** — [`EpochGate::poison`] raises a flag the wait checks at
//!   every look; a worker that catches a peer's failure (or observes its
//!   own) poisons the gate, and every waiter returns [`GateWait::Poisoned`]
//!   promptly. The poisoned flag never blocks arrivals, so already-running
//!   workers drain normally.
//! * **Deadlines** — the wait takes an absolute [`Instant`] deadline (the
//!   dispatch-level watchdog) and returns [`GateWait::TimedOut`] once it
//!   passes, converting a silent hang behind a stalled worker into a
//!   structured timeout the orchestrator can surface.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use crate::spin::SpinWait;

/// Outcome of the bounded gate wait ([`EpochGate::wait_open_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateWait {
    /// The awaited stages are done.
    Ready,
    /// The gate was poisoned while waiting: a peer worker failed and the
    /// awaited arrivals may never come.
    Poisoned,
    /// The deadline passed before the condition was met.
    TimedOut,
}

/// Per-stage completion counters with a monotone "stages done" epoch; see
/// the module documentation for the protocol.
#[derive(Debug)]
pub struct EpochGate {
    /// Number of consecutive leading stages fully done.
    epoch: AtomicUsize,
    /// Outstanding arrivals per stage.
    remaining: Box<[AtomicUsize]>,
    /// Raised when a participant failed and outstanding arrivals may never
    /// come.
    poisoned: AtomicBool,
}

impl EpochGate {
    /// Creates a gate over `counts.len()` stages, where `counts[s]` is the
    /// number of arrivals stage `s` expects.
    pub fn new(counts: &[usize]) -> Self {
        let gate = EpochGate {
            epoch: AtomicUsize::new(0),
            remaining: counts.iter().map(|&c| AtomicUsize::new(c)).collect(),
            poisoned: AtomicBool::new(false),
        };
        // Leading zero-arrival stages are complete before anyone arrives.
        gate.try_advance();
        gate
    }

    /// Marks the gate as poisoned: a participant failed and arrivals it owed
    /// may never come. Waiters return [`GateWait::Poisoned`] promptly
    /// afterwards. Idempotent.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// The number of consecutive leading stages fully done.
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Blocks until stages `0..deps` are all done, the gate is poisoned, or
    /// `deadline` passes — whichever happens first, relaxing between looks
    /// through [`SpinWait`]: the clock is sampled only once the wait is
    /// yielding, so briefly-closed gates never pay for `Instant`, and a
    /// timeout is reported within one yield of its expiry. A satisfied
    /// condition wins over the poison flag.
    pub fn wait_open_until(&self, deps: usize, deadline: Instant) -> GateWait {
        let mut wait = SpinWait::new();
        loop {
            if self.epoch() >= deps {
                return GateWait::Ready;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return GateWait::Poisoned;
            }
            if wait.relax(|| Instant::now() >= deadline) {
                return GateWait::TimedOut;
            }
        }
    }

    /// Reports one completed unit of `stage`, publishing the caller's writes
    /// to threads that subsequently observe the epoch cover `stage`.
    pub fn arrive(&self, stage: usize) {
        let prev = self.remaining[stage].fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "over-arrival on stage {stage}");
        if prev == 1 {
            self.try_advance();
        }
    }

    /// Advances the epoch over every consecutive complete stage. Racing
    /// advancers are harmless: the CAS keeps the epoch monotone, and each
    /// competitor re-reads and retries until the frontier stage is
    /// incomplete.
    fn try_advance(&self) {
        loop {
            let e = self.epoch.load(Ordering::Acquire);
            if e >= self.remaining.len() || self.remaining[e].load(Ordering::Acquire) != 0 {
                return;
            }
            // AcqRel: acquire the previous advancer's chain, release our
            // observation of stage `e`'s completed arrivals to epoch waiters.
            let _ = self
                .epoch
                .compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Acquire);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// A deadline no healthy test comes near: the stress test waits the way
    /// the kernels do, so a protocol bug fails it instead of hanging it.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    fn expect_open(gate: &EpochGate, deps: usize) {
        assert_eq!(gate.wait_open_until(deps, far()), GateWait::Ready);
    }

    #[test]
    fn empty_stages_complete_at_construction() {
        let gate = EpochGate::new(&[0, 0, 0]);
        assert_eq!(gate.epoch(), 3);
        expect_open(&gate, 3);
    }

    #[test]
    fn epoch_advances_only_over_consecutive_complete_stages() {
        let gate = EpochGate::new(&[2, 2, 0]);
        assert_eq!(gate.epoch(), 0);
        gate.arrive(0);
        assert_eq!(gate.epoch(), 0, "one arrival of stage 0 still outstanding");
        // Completing a *later* stage must not open earlier ones.
        gate.arrive(1);
        gate.arrive(1);
        assert_eq!(gate.epoch(), 0);
        // The last arrival of stage 0 sweeps the epoch across stage 1 and the
        // empty stage 2.
        gate.arrive(0);
        assert_eq!(gate.epoch(), 3);
    }

    #[test]
    fn single_threaded_in_order_use_never_blocks() {
        let stages = 20;
        let counts: Vec<usize> = (0..stages).map(|s| 1 + s % 3).collect();
        let gate = EpochGate::new(&counts);
        for (s, &arrivals) in counts.iter().enumerate() {
            expect_open(&gate, s); // deps of an in-order caller are always met
            for _ in 0..arrivals {
                gate.arrive(s);
            }
        }
        assert_eq!(gate.epoch(), stages);
    }

    /// The epoch must publish the arriving threads' writes: a reader that
    /// sees the epoch at `k` must see every pre-arrival store of stages
    /// `< k`. Repeated under contention as a poor man's loom-style stress
    /// test.
    #[test]
    fn the_epoch_publishes_writes_under_contention() {
        let workers = 4;
        // Miri runs every interleaving decision through its scheduler, so
        // the full-size stress loop would take minutes; a few short rounds
        // still cover the publish protocol.
        let stages = if cfg!(miri) { 6 } else { 24 };
        let rounds = if cfg!(miri) { 3 } else { 60 };
        for _ in 0..rounds {
            let gate = Arc::new(EpochGate::new(&vec![workers; stages]));
            // slots[s][w] is written (Relaxed, so ordered only through the
            // gate) before worker w's arrival on stage s.
            let slots: Arc<Vec<Vec<AtomicUsize>>> = Arc::new(
                (0..stages)
                    .map(|_| (0..workers).map(|_| AtomicUsize::new(0)).collect())
                    .collect(),
            );
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let gate = Arc::clone(&gate);
                    let slots = Arc::clone(&slots);
                    std::thread::spawn(move || {
                        for s in 0..stages {
                            // Before arriving, check everything the epoch
                            // claims is published.
                            let open = gate.epoch();
                            for (done, slot) in slots.iter().enumerate().take(open) {
                                for v in slot {
                                    assert_eq!(
                                        v.load(Ordering::Relaxed),
                                        done + 1,
                                        "stage {done} behind epoch {open} not published"
                                    );
                                }
                            }
                            slots[s][w].store(s + 1, Ordering::Relaxed);
                            gate.arrive(s);
                        }
                        expect_open(&gate, stages);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(gate.epoch(), stages);
        }
    }

    #[test]
    fn poisoned_gate_unblocks_bounded_waits_immediately() {
        let gate = EpochGate::new(&[1]);
        gate.poison();
        let far = far();
        assert_eq!(gate.wait_open_until(1, far), GateWait::Poisoned);
        // Arrivals are still accepted while poisoned, and a satisfied
        // condition wins over the poison flag.
        gate.arrive(0);
        assert_eq!(gate.wait_open_until(1, far), GateWait::Ready);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spins against the wall clock until a real deadline passes"
    )]
    fn bounded_wait_times_out_on_a_missing_arrival() {
        let gate = EpochGate::new(&[1]);
        let deadline = Instant::now() + Duration::from_millis(20);
        let start = Instant::now();
        assert_eq!(gate.wait_open_until(1, deadline), GateWait::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout must be reported promptly"
        );
    }

    #[test]
    fn out_of_order_completion_is_tolerated() {
        // Stage 1 completes before stage 0; the epoch must hold at 0 and then
        // jump to 2.
        let gate = EpochGate::new(&[1, 1]);
        gate.arrive(1);
        assert_eq!(gate.epoch(), 0);
        gate.arrive(0);
        assert_eq!(gate.epoch(), 2);
    }
}
