//! A counter-based epoch gate for pipelined (barrier-fused) pack execution.
//!
//! The split two-phase solver pays two full pool barriers (the completion
//! count of a [`parallel_for`](crate::WorkerPool::parallel_for)) per chained
//! pack, even though phase 1 (the external gather) of
//! pack `p + 1` only depends on packs `≤ p` being *done* — not on every
//! worker having reached the same program point. [`EpochGate`] replaces those
//! barriers with per-stage completion counters and a monotone epoch, so idle
//! workers can run ahead into later stages while stragglers finish:
//!
//! * each stage (pack) declares, up front, how many **phase-1 arrivals**
//!   (static gather chunks) and how many **phase-2 arrivals** (chain tasks)
//!   it will receive;
//! * workers report completed work with [`EpochGate::arrive_phase1`] /
//!   [`EpochGate::arrive_phase2`];
//! * the *"pack p phase-1 done"* flag is [`EpochGate::phase1_drained`] —
//!   true once every phase-1 arrival of the stage has been reported;
//! * the *"pack p done"* flag is the **epoch**: the number of consecutive
//!   leading stages whose arrivals (both phases) have all been reported.
//!   [`EpochGate::is_open`]`(d)` asks whether stages `0..d` are done, which
//!   is exactly the readiness test for a gather chunk whose latest external
//!   read targets pack `d - 1`.
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
//! advancing: `is_open(d)` returning `true` happens-after every write made
//! before every arrival of stages `0..d`.
//!
//! Zero-arrival stages (empty packs) complete implicitly: the advance loop
//! walks past them the moment the epoch reaches them (or at construction).
//!
//! # Reuse
//!
//! Within one solve the protocol is monotone: counters only count down and
//! the epoch only moves forward, which keeps the reasoning simple. Callers
//! that solve thousands of times on one structure (preconditioned iterative
//! solvers apply two triangular sweeps per iteration) would otherwise
//! allocate and initialise two counters per pack on every solve, so the gate
//! is *resettable between solves*: [`EpochGate::reset`] takes `&mut self` —
//! exclusive access, so no arrival can race the refill — restores every
//! counter from the arrival counts the gate was built with, rewinds the
//! epoch, and bumps a **generation stamp** ([`EpochGate::generation`]).
//! The stamp lets reuse bugs fail loudly: a caller that caches flag results
//! across a reset observes the generation change, and the stress tests
//! assert each round's flags belong to the round's own generation. The
//! exclusivity requirement is enforced by the borrow checker, not by the
//! protocol: hand the gate back to workers only after `reset` returns.
//!
//! # Poisoning and watchdog deadlines
//!
//! The monotone protocol has one failure mode: an arrival that never comes.
//! A worker that panics (its body is caught by the pool) or stalls leaves its
//! stage's counters above zero, and a peer waiting for that stage would
//! wait forever. The gate therefore has one blocking wait,
//! [`EpochGate::wait_open_until`], and it is bounded twice over (a caller
//! with work to do between looks polls [`EpochGate::is_open`] /
//! [`EpochGate::phase1_drained`] itself and checks the same two things):
//!
//! * **Poisoning** — [`EpochGate::poison`] raises a flag the wait checks at
//!   every look; a worker that catches a peer's failure (or observes its
//!   own) poisons the gate, and every waiter returns [`GateWait::Poisoned`]
//!   promptly. The poisoned flag never blocks arrivals, so already-running
//!   workers drain normally.
//! * **Deadlines** — the wait takes an absolute [`Instant`] deadline (the
//!   solve-level watchdog) and returns [`GateWait::TimedOut`] once it
//!   passes, converting a silent hang behind a stalled worker into a
//!   structured timeout the orchestrator can surface.
//!
//! [`EpochGate::reset`] clears the poison along with the counters, so a
//! poisoned solve does not condemn the structure it ran on.

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
    /// Outstanding phase-1 arrivals per stage.
    phase1_remaining: Box<[AtomicUsize]>,
    /// Outstanding arrivals (phase 1 + phase 2) per stage.
    total_remaining: Box<[AtomicUsize]>,
    /// The `(phase-1, phase-2)` arrival counts the gate was built with,
    /// kept so [`EpochGate::reset`] can restore the counters.
    counts: Box<[(usize, usize)]>,
    /// How many times the gate has been reset. Plain (non-atomic) because it
    /// only changes under `&mut self`; readers are synchronised by whatever
    /// handed them the gate.
    generation: usize,
    /// Raised when a participant failed and outstanding arrivals may never
    /// come; cleared by [`EpochGate::reset`].
    poisoned: AtomicBool,
}

impl EpochGate {
    /// Creates a gate over `counts.len()` stages, where `counts[s]` is the
    /// `(phase-1, phase-2)` arrival count stage `s` expects.
    pub fn new(counts: &[(usize, usize)]) -> Self {
        let gate = EpochGate {
            epoch: AtomicUsize::new(0),
            phase1_remaining: counts.iter().map(|&(p1, _)| AtomicUsize::new(p1)).collect(),
            total_remaining: counts
                .iter()
                .map(|&(p1, p2)| AtomicUsize::new(p1 + p2))
                .collect(),
            counts: counts.into(),
            generation: 0,
            poisoned: AtomicBool::new(false),
        };
        // Leading zero-arrival stages are complete before anyone arrives.
        gate.try_advance();
        gate
    }

    /// Rewinds the gate to its post-construction state for the next solve on
    /// the same structure: every counter is restored from the original
    /// arrival counts, the epoch returns to the leading-empty-stage frontier,
    /// and the generation stamp is bumped.
    ///
    /// `&mut self` is the synchronisation: the caller must have exclusive
    /// access, which a completed solve provides (the pool's completion
    /// barrier orders every worker's last arrival before the orchestrator
    /// regains the gate). The plain `get_mut` stores below are therefore
    /// data-race free by construction, and every worker of the next solve
    /// observes the refilled counters through whatever mechanism hands the
    /// gate back out (the next pool dispatch).
    pub fn reset(&mut self) {
        for (s, &(p1, p2)) in self.counts.iter().enumerate() {
            *self.phase1_remaining[s].get_mut() = p1;
            *self.total_remaining[s].get_mut() = p1 + p2;
        }
        *self.epoch.get_mut() = 0;
        *self.poisoned.get_mut() = false;
        self.generation += 1;
        // Leading zero-arrival stages complete implicitly, as at construction.
        self.try_advance();
    }

    /// Marks the gate as poisoned: a participant failed and arrivals it owed
    /// may never come. Waiters return [`GateWait::Poisoned`] promptly
    /// afterwards. Idempotent; cleared by [`EpochGate::reset`].
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether the gate has been poisoned this generation.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The number of completed [`EpochGate::reset`] calls: solve `g` runs
    /// under generation `g`, so flag results cached across a reset are
    /// detectably stale.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.total_remaining.len()
    }

    /// The number of consecutive leading stages fully done.
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether stages `0..deps` are all done (non-blocking). `true`
    /// happens-after every write published by those stages' arrivals.
    #[inline]
    pub fn is_open(&self, deps: usize) -> bool {
        self.epoch.load(Ordering::Acquire) >= deps
    }

    /// Blocks until stages `0..deps` are all done, the gate is poisoned, or
    /// `deadline` passes — whichever happens first, relaxing between looks
    /// through [`SpinWait`]: the clock is sampled only once the wait is
    /// yielding, so briefly-closed gates never pay for `Instant`, and a
    /// timeout is reported within one yield of its expiry.
    pub fn wait_open_until(&self, deps: usize, deadline: Instant) -> GateWait {
        let mut wait = SpinWait::new();
        loop {
            if self.is_open(deps) {
                return GateWait::Ready;
            }
            if self.is_poisoned() {
                return GateWait::Poisoned;
            }
            if wait.relax(|| Instant::now() >= deadline) {
                return GateWait::TimedOut;
            }
        }
    }

    /// Whether every phase-1 arrival of `stage` has been reported. `true`
    /// happens-after every write those arrivals published.
    #[inline]
    pub fn phase1_drained(&self, stage: usize) -> bool {
        self.phase1_remaining[stage].load(Ordering::Acquire) == 0
    }

    /// Reports one completed phase-1 unit of `stage`, publishing the caller's
    /// writes to threads that subsequently observe the drained flag (or, once
    /// the stage fully completes, the epoch).
    pub fn arrive_phase1(&self, stage: usize) {
        let prev = self.phase1_remaining[stage].fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "phase-1 over-arrival on stage {stage}");
        self.complete_one(stage);
    }

    /// Reports one completed phase-2 unit of `stage`.
    pub fn arrive_phase2(&self, stage: usize) {
        self.complete_one(stage);
    }

    #[inline]
    fn complete_one(&self, stage: usize) {
        let prev = self.total_remaining[stage].fetch_sub(1, Ordering::AcqRel);
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
            if e >= self.num_stages() || self.total_remaining[e].load(Ordering::Acquire) != 0 {
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    /// A deadline no healthy test comes near: the stress tests wait the way
    /// the kernels do, so a protocol bug fails them instead of hanging them.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    fn expect_open(gate: &EpochGate, deps: usize) {
        assert_eq!(gate.wait_open_until(deps, far()), GateWait::Ready);
    }

    /// Polls the drained flag as the pipelined driver does (it has chunks to
    /// look for between looks, so the gate has no blocking form of this).
    fn await_drained(gate: &EpochGate, stage: usize) {
        let (deadline, mut wait) = (far(), SpinWait::new());
        while !gate.phase1_drained(stage) {
            assert!(
                !wait.relax(|| Instant::now() >= deadline),
                "phase 1 of stage {stage} never drained"
            );
        }
    }

    #[test]
    fn empty_stages_complete_at_construction() {
        let gate = EpochGate::new(&[(0, 0), (0, 0), (0, 0)]);
        assert_eq!(gate.epoch(), 3);
        assert!(gate.is_open(3));
        assert!(gate.phase1_drained(1));
    }

    #[test]
    fn epoch_advances_only_over_consecutive_complete_stages() {
        let gate = EpochGate::new(&[(1, 1), (2, 0), (0, 0)]);
        assert_eq!(gate.epoch(), 0);
        assert!(!gate.phase1_drained(0));
        gate.arrive_phase1(0);
        assert!(gate.phase1_drained(0));
        assert_eq!(gate.epoch(), 0, "phase 2 of stage 0 still outstanding");
        // Completing a *later* stage must not open earlier ones.
        gate.arrive_phase1(1);
        gate.arrive_phase1(1);
        assert_eq!(gate.epoch(), 0);
        // The last arrival of stage 0 sweeps the epoch across stage 1 and the
        // empty stage 2.
        gate.arrive_phase2(0);
        assert_eq!(gate.epoch(), 3);
        assert!(gate.is_open(3));
    }

    #[test]
    fn single_threaded_in_order_use_never_blocks() {
        let stages = 20;
        let counts: Vec<(usize, usize)> = (0..stages).map(|s| (1 + s % 3, s % 2)).collect();
        let gate = EpochGate::new(&counts);
        for (s, &(p1, p2)) in counts.iter().enumerate() {
            expect_open(&gate, s); // deps of an in-order caller are always met
            for _ in 0..p1 {
                gate.arrive_phase1(s);
            }
            await_drained(&gate, s);
            for _ in 0..p2 {
                gate.arrive_phase2(s);
            }
        }
        assert_eq!(gate.epoch(), stages);
    }

    /// The flags must publish the arriving threads' writes: a reader that
    /// sees `is_open(k)` must see every pre-arrival store of stages `< k`.
    /// Repeated under contention as a poor man's loom-style stress test.
    #[test]
    fn flags_publish_writes_under_contention() {
        let workers = 4;
        // Miri runs every interleaving decision through its scheduler, so
        // the full-size stress loop would take minutes; a few short rounds
        // still cover the publish/claim protocol.
        let stages = if cfg!(miri) { 6 } else { 24 };
        let rounds = if cfg!(miri) { 3 } else { 60 };
        for round in 0..rounds {
            let counts: Vec<(usize, usize)> =
                (0..stages).map(|s| (workers, (s + round) % 3)).collect();
            let gate = Arc::new(EpochGate::new(&counts));
            // slots[s][w] is written (non-atomically ordered w.r.t. the gate;
            // Relaxed stores) before worker w's phase-1 arrival on stage s.
            let slots: Arc<Vec<Vec<AtomicUsize>>> = Arc::new(
                (0..stages)
                    .map(|_| (0..workers).map(|_| AtomicUsize::new(0)).collect())
                    .collect(),
            );
            let phase2_claims: Arc<Vec<AtomicUsize>> =
                Arc::new((0..stages).map(|_| AtomicUsize::new(0)).collect());
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let gate = Arc::clone(&gate);
                    let slots = Arc::clone(&slots);
                    let phase2_claims = Arc::clone(&phase2_claims);
                    let counts = counts.clone();
                    std::thread::spawn(move || {
                        for s in 0..stages {
                            // Before arriving, check everything the epoch
                            // claims is published.
                            let open = gate.epoch();
                            for done in 0..open {
                                for v in &slots[done] {
                                    assert_eq!(
                                        v.load(std::sync::atomic::Ordering::Relaxed),
                                        done + 1,
                                        "stage {done} behind epoch {open} not published"
                                    );
                                }
                            }
                            slots[s][w].store(s + 1, std::sync::atomic::Ordering::Relaxed);
                            gate.arrive_phase1(s);
                            // Dynamically claim this stage's phase-2 units.
                            loop {
                                let t = phase2_claims[s]
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if t >= counts[s].1 {
                                    break;
                                }
                                await_drained(&gate, s);
                                for v in &slots[s] {
                                    assert_eq!(
                                        v.load(std::sync::atomic::Ordering::Relaxed),
                                        s + 1,
                                        "phase-1 write of stage {s} not published to phase 2"
                                    );
                                }
                                gate.arrive_phase2(s);
                            }
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
    fn reset_restores_the_post_construction_state() {
        let mut gate = EpochGate::new(&[(0, 0), (2, 1), (1, 0)]);
        assert_eq!(gate.generation(), 0);
        assert_eq!(gate.epoch(), 1, "leading empty stage completes eagerly");
        gate.arrive_phase1(1);
        gate.arrive_phase1(1);
        gate.arrive_phase2(1);
        gate.arrive_phase1(2);
        assert_eq!(gate.epoch(), 3);
        gate.reset();
        assert_eq!(gate.generation(), 1);
        assert_eq!(gate.epoch(), 1, "reset rewinds to the empty-stage frontier");
        assert!(!gate.phase1_drained(1));
        // The gate must be fully usable again.
        gate.arrive_phase1(1);
        gate.arrive_phase1(1);
        assert!(gate.phase1_drained(1));
        gate.arrive_phase2(1);
        gate.arrive_phase1(2);
        assert_eq!(gate.epoch(), 3);
        assert_eq!(gate.generation(), 1);
    }

    /// The PCG shape: one gate, built once per structure, reused for many
    /// solves under worker contention. Every round must behave exactly like a
    /// freshly-built gate — flags publish the round's own writes (stamped
    /// with the round's generation), never a previous round's.
    #[test]
    fn reset_gate_is_reusable_under_contention() {
        let workers = 4;
        // Shortened under Miri (see flags_publish_writes_under_contention).
        let stages = if cfg!(miri) { 4 } else { 16 };
        let rounds = if cfg!(miri) { 4 } else { 40 };
        let counts: Vec<(usize, usize)> = (0..stages).map(|s| (workers, s % 3)).collect();
        let mut gate = EpochGate::new(&counts);
        // slots[s][w] holds `generation * stages + s + 1`, written before
        // worker w's phase-1 arrival on stage s: a stale value behind an open
        // flag pinpoints both the stage and the round that leaked.
        let slots: Vec<Vec<AtomicUsize>> = (0..stages)
            .map(|_| (0..workers).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        for round in 0..rounds {
            if round > 0 {
                gate.reset();
            }
            assert_eq!(gate.generation(), round);
            let phase2_claims: Vec<AtomicUsize> =
                (0..stages).map(|_| AtomicUsize::new(0)).collect();
            let gate_ref = &gate;
            let slots_ref = &slots;
            let claims_ref = &phase2_claims;
            let counts_ref = &counts;
            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || {
                        for s in 0..stages {
                            let open = gate_ref.epoch();
                            for (done, slot) in slots_ref.iter().enumerate().take(open) {
                                for v in slot {
                                    assert_eq!(
                                        v.load(Ordering::Relaxed),
                                        round * stages + done + 1,
                                        "stage {done} of round {round} not published \
                                         (stale generation?)"
                                    );
                                }
                            }
                            slots_ref[s][w].store(round * stages + s + 1, Ordering::Relaxed);
                            gate_ref.arrive_phase1(s);
                            loop {
                                let t = claims_ref[s].fetch_add(1, Ordering::Relaxed);
                                if t >= counts_ref[s].1 {
                                    break;
                                }
                                await_drained(gate_ref, s);
                                gate_ref.arrive_phase2(s);
                            }
                        }
                        expect_open(gate_ref, stages);
                    });
                }
            });
            assert_eq!(gate.epoch(), stages, "round {round} did not drain");
        }
        assert_eq!(gate.generation(), rounds - 1);
    }

    #[test]
    fn poisoned_gate_unblocks_bounded_waits_immediately() {
        let gate = EpochGate::new(&[(1, 0)]);
        gate.poison();
        let far = far();
        assert_eq!(gate.wait_open_until(1, far), GateWait::Poisoned);
        // Arrivals are still accepted while poisoned, and a satisfied
        // condition wins over the poison flag.
        gate.arrive_phase1(0);
        assert_eq!(gate.wait_open_until(1, far), GateWait::Ready);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spins against the wall clock until a real deadline passes"
    )]
    fn bounded_wait_times_out_on_a_missing_arrival() {
        let gate = EpochGate::new(&[(1, 0)]);
        let deadline = Instant::now() + Duration::from_millis(20);
        let start = Instant::now();
        assert_eq!(gate.wait_open_until(1, deadline), GateWait::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout must be reported promptly"
        );
    }

    #[test]
    fn reset_clears_the_poison() {
        let mut gate = EpochGate::new(&[(1, 0)]);
        gate.poison();
        assert!(gate.is_poisoned());
        gate.reset();
        assert!(!gate.is_poisoned());
        gate.arrive_phase1(0);
        assert_eq!(gate.wait_open_until(1, far()), GateWait::Ready);
    }

    #[test]
    fn out_of_order_completion_is_tolerated() {
        // Stage 1 completes before stage 0; the epoch must hold at 0 and then
        // jump to 2.
        let gate = EpochGate::new(&[(1, 0), (1, 0)]);
        gate.arrive_phase1(1);
        assert_eq!(gate.epoch(), 0);
        assert!(gate.phase1_drained(1));
        gate.arrive_phase1(0);
        assert_eq!(gate.epoch(), 2);
    }
}
