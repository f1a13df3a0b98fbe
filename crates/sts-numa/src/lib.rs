//! NUMA substrate for the STS-k reproduction.
//!
//! The paper's performance argument is about *where data lives* relative to
//! the core that needs it. This crate provides what places the work on the
//! host's cores:
//!
//! * [`affinity`] — thread pinning (`sched_setaffinity` on Linux, no-op
//!   elsewhere), the equivalent of the paper's `KMP_AFFINITY=compact`;
//! * [`pool`] — a persistent, optionally pinned worker pool with the static /
//!   dynamic / guided loop schedules the paper tunes per solver. The thread
//!   that dispatches a loop is a member of the team, and idle members spin
//!   briefly before they sleep, as under OpenMP. Loop bodies
//!   run under `catch_unwind`, so a panicking body surfaces as a structured
//!   [`PoolError`] instead of deadlocking the completion barrier. Its waits
//!   relax through one crate-private spin-then-yield step (`spin`);
//! * [`topology`] — a field-less `NumaTopology` kept only because the
//!   repository benchmark names it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod affinity;
pub mod pool;
mod spin;
pub mod topology;

pub use pool::{PoolError, Schedule, WorkerPool};
