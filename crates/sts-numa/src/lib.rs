//! NUMA substrate for the STS-k reproduction.
//!
//! The paper's performance argument is about *where data lives* relative to
//! the core that needs it: private L1/L2, the shared (and NUMA-affected) L3,
//! local DRAM or a remote socket's DRAM. This crate provides:
//!
//! * [`topology`] — a machine model (sockets, cores, L3 sharing groups) with
//!   presets for the paper's two evaluation platforms, the 32-core Intel
//!   Westmere-EX node and the 24-core AMD MagnyCours node, plus best-effort
//!   detection of the host machine;
//! * [`latency`] — a cycle-cost model of data accesses at each NUMA distance,
//!   seeded with the latencies the paper cites (L1 4 cycles, L2 10 cycles,
//!   L3 38–170 cycles, DRAM 175–290 cycles);
//! * [`affinity`] — thread pinning (`sched_setaffinity` on Linux, no-op
//!   elsewhere), the equivalent of the paper's `KMP_AFFINITY=compact`;
//! * [`pool`] — a persistent, optionally pinned worker pool with the static /
//!   dynamic / guided loop schedules the paper tunes per solver. The thread
//!   that dispatches a loop is a member of the team, and idle members spin
//!   briefly before they sleep, as under OpenMP. Loop bodies
//!   run under `catch_unwind`, so a panicking body surfaces as a structured
//!   [`PoolError`] instead of deadlocking the completion barrier. Its waits
//!   relax through one crate-private spin-then-yield step (`spin`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod affinity;
pub mod latency;
pub mod pool;
mod spin;
pub mod topology;

pub use latency::{AccessKind, LatencyModel};
pub use pool::{PoolError, Schedule, WorkerPool};
pub use topology::{NumaDistance, NumaTopology};
