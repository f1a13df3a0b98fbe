//! Static happens-before verification for pack-parallel schedules.
//!
//! The STS-k kernels (the split sweeps, `parallel_ic0`) are
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
//! The model is the weakest synchronisation a kernel may rely on — the
//! dependency-minimal schedule, which `parallel_ic0`'s epoch gate runs and
//! the split sweep's per-phase barriers strictly cover:
//!
//! * **Epoch readiness** — a phase-1 chunk with readiness `dep` starts only
//!   after every task of stages `0..dep` has finished (an
//!   `EpochGate::wait_open_until(dep, ..)` in `parallel_ic0`, a stage
//!   barrier in the split sweep).
//! * **Drain edge** — a phase-2 chain task starts only after every phase-1
//!   chunk of its own stage has finished (the split sweep's phase
//!   barrier).
//! * **Ticket claims** — each chain task runs on exactly one worker, so its
//!   rows are processed sequentially in the recorded order.
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
