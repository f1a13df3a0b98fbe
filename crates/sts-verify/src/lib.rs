//! Static happens-before verification for pack-parallel schedules.
//!
//! The STS-k kernels (the split and pipelined sweeps, `parallel_ic0`) are
//! race-free only if the statically precomputed readiness metadata
//! (`SplitLayout::ext_dep` and the transpose layout's reverse-stage
//! equivalent) is a superset of what the tasks actually read. Historically
//! that invariant lived in module-doc prose; this crate turns it into an
//! enforced contract.
//!
//! The crate is deliberately **independent of the solver types**: a caller
//! (in practice `sts-core`'s `verify` module) extracts a [`ScheduleSpec`] —
//! the exact read/write footprint of every task plus the synchronisation
//! edges the kernels rely on — and [`verify`] checks that
//!
//! * (a) every cross-task read/write pair on the same location is ordered by
//!   a happens-before edge (no data race),
//! * (b) the wait graph is acyclic (no deadlock), and
//! * (c) every location is written exactly once per phase that owns it
//!   (completeness),
//!
//! returning a [`ScheduleProof`] with aggregate statistics or the first
//! [`ScheduleViolation`] with `(pack, phase, row, missing edge)` detail.
//!
//! The model mirrors the runtime synchronisation exactly:
//!
//! * **Epoch readiness** — a phase-1 chunk with readiness `dep` starts only
//!   after `EpochGate::wait_open_until(dep, ..)`, which happens-after *every*
//!   arrival (both phases) of stages `0..dep`.
//! * **Drain flag** — a phase-2 chain ticket is claimed only after
//!   `phase1_drained(stage)`, which happens-after every phase-1 arrival of
//!   its own stage.
//! * **Ticket claims** — each chain task is claimed by exactly one worker
//!   (a `fetch_add` ticket), so its rows are processed sequentially in the
//!   recorded order.
//! * **Program order** — rows inside one task run in the recorded order, so
//!   a task may freely read rows it (or an earlier row of the same task)
//!   already wrote.
//!
//! [`mutate`] provides the seeded-corruption harness the negative tests use
//! (dropped dependency edge, forged ticket claim, reordered gate publish),
//! and [`replay`] validates the static footprints against per-slot access
//! logs recorded by the kernels under the `race-shadow` cargo feature of
//! `sts-core`.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod check;
pub mod mutate;
pub mod replay;
pub mod spec;

pub use check::{verify, ScheduleProof, ScheduleViolation};
pub use replay::{check_replay, AccessLog, ReplayMismatch, ReplayReport, RowTrace};
pub use spec::{ChainSpec, ChunkSpec, RowFootprint, ScheduleSpec, StageSpec, TaskKind};
