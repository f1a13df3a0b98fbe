//! Static verification of the barrier schedules the pack-parallel kernels
//! run.
//!
//! Every parallel STS-k kernel is a sequence of `parallel_for` dispatches
//! whose completion is a barrier: the split sweep issues a gather dispatch
//! and, when the stage has chain work, a chain dispatch per stage;
//! Algorithm 1's super-row loop (the unsplit solve and the IC(0) build)
//! issues one dispatch per pack. Those kernels are race-free only if every
//! shared location a task reads was written behind an earlier barrier or
//! earlier in the task itself. This crate turns that argument into an
//! enforced contract.
//!
//! The crate is deliberately **independent of the solver types**: a caller
//! (in practice `sts-core`'s `verify` module) extracts a [`ScheduleSpec`] —
//! the kernel's dispatches in issue order, each task with the exact
//! read/write footprint of its rows in program order — and [`verify`]
//! checks in two linear passes that
//!
//! * every location is produced by exactly one gather step, and every
//!   further write of it (a chain correction) is ordered after the one
//!   before;
//! * every read is ordered after every write of its location other than the
//!   reader's own,
//!
//! where a barrier (an earlier dispatch) or program order (earlier in the
//! same task) is the only ordering. It returns a [`ScheduleProof`] with
//! aggregate statistics, or the first [`ScheduleViolation`] with its
//! `(pack, phase, row, location)` and the conflicting writer.
//!
//! [`mutate`] provides the seeded corruptions the negative tests use (a
//! dropped barrier, a task handed to two workers), and [`replay`] validates
//! the static footprints against per-slot access logs recorded by the
//! kernels under the `race-shadow` cargo feature of `sts-core`.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod check;
pub mod mutate;
pub mod replay;
pub mod spec;

pub use check::{verify, ScheduleProof, ScheduleViolation};
pub use replay::{check_replay, AccessLog, ReplayMismatch, ReplayReport, RowTrace};
pub use spec::{RowFootprint, ScheduleSpec, Task, TaskKind};
