//! The one way a thread waits for another here: spin briefly, then yield.
//!
//! Both waits of the pool hand-off — a helper's poll for the next job, the
//! dispatcher's poll for the completion count — are loops that look at a
//! word and, finding it unchanged, call [`SpinWait::relax`] before they look
//! again. The first [`SPIN_BUDGET`] steps are `spin_loop` hints — the word
//! is usually a few hundred nanoseconds away; every later step is a
//! `yield_now`, because the team may be oversubscribed (more workers than
//! cores) and a waiter that never yields holds the core the thread it waits
//! for needs.
//!
//! The pool bounds each poll by elapsed time and passes that clock as the
//! `expired` closure. It is consulted only once the wait is yielding, just
//! before each yield, so a wait that ends within the spin budget never pays
//! for `Instant::now`, and the bound is elapsed time rather than an
//! iteration count — a `yield_now` costs anything from a hundred
//! nanoseconds to a scheduler quantum.

/// How many `spin_loop` hints a wait issues before it starts yielding.
pub const SPIN_BUDGET: u32 = 64;

/// The state of one wait; see the module documentation.
#[derive(Debug, Default)]
pub struct SpinWait {
    spins: u32,
}

impl SpinWait {
    /// A wait with its whole spin budget left.
    pub fn new() -> Self {
        SpinWait::default()
    }

    /// One step between two looks at the awaited flag. Returns `true` —
    /// without yielding — when the wait is past its spin budget and
    /// `expired()` says so; otherwise relaxes (a hint, or a yield) and
    /// returns `false`.
    #[inline]
    pub fn relax(&mut self, expired: impl FnOnce() -> bool) -> bool {
        if self.spins < SPIN_BUDGET {
            self.spins += 1;
            std::hint::spin_loop();
            return false;
        }
        if expired() {
            return true;
        }
        std::thread::yield_now();
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn the_clock_is_consulted_only_once_the_spin_budget_is_spent() {
        let mut wait = SpinWait::new();
        let looks = Cell::new(0u32);
        let clock = |verdict: bool| {
            looks.set(looks.get() + 1);
            verdict
        };
        for step in 0..SPIN_BUDGET {
            assert!(!wait.relax(|| clock(true)), "step {step} is a spin");
        }
        assert_eq!(looks.get(), 0, "a spinning wait never samples the clock");
        // Yielding: one look at the clock per step, and its verdict is the
        // step's.
        for step in 1..=5 {
            assert!(!wait.relax(|| clock(false)));
            assert_eq!(looks.get(), step);
        }
        assert!(wait.relax(|| clock(true)));
        assert_eq!(looks.get(), 6);
        // A fresh wait has its budget back.
        assert!(!SpinWait::new().relax(|| clock(true)));
        assert_eq!(looks.get(), 6);
    }
}
