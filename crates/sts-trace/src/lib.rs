//! Zero-dependency, lock-free observability for the STS-k stack.
//!
//! The paper's whole argument is about *where time goes* inside a sparse
//! triangular solve — gather phases, in-pack dependence chains, gate waits —
//! yet wall-clock totals (`PcgOutcome::seconds_total`, a benchmark's
//! `solve_ms_p50`) collapse all of that into one number. This crate provides the
//! three primitives the rest of the stack threads through its runtime
//! layers, with **no dependencies** (std only) and **no locks on the record
//! path**:
//!
//! * [`SpanRecorder`] — a fixed-capacity ring buffer of
//!   `{worker, pack, phase, t_start_ns, t_end_ns}` events
//!   ([`SpanEvent`]), written via relaxed atomics into pre-allocated slots.
//!   Recording while disabled is a single relaxed load and a branch, so an
//!   installed-but-disabled recorder costs effectively nothing on the solve
//!   hot path (the repo benchmark reports the cost of *enabled* tracing as
//!   `run.trace_overhead_share`).
//! * [`Registry`] — named monotonic [`Counter`]s and fixed-bucket log-scale
//!   [`Histogram`]s, mergeable across threads, rendered as a
//!   Prometheus-style text exposition ([`Registry::render_prometheus`]).
//! * [`chrome_trace_json`] — a Chrome trace-event JSON exporter for span
//!   snapshots, loadable directly in Perfetto or `chrome://tracing`
//!   (workers become tracks, packs annotate the spans).
//!
//! # Where the spans come from
//!
//! `sts-core` records [`Phase::Gather`] around every phase-1 external
//! gather chunk, [`Phase::Chain`] around every phase-2 in-pack chain task,
//! [`Phase::GateWait`] around the blocking `EpochGate` waits of the
//! level-scheduled IC(0) build (the sweeps record none: they wait only at
//! pool barriers), [`Phase::Refine`] around mixed-precision
//! refinement passes, and [`Phase::Factor`] around the
//! level-scheduled IC(0) construction chunks. Install a recorder with
//! `ParallelSolver::set_trace_recorder`, run a solve, then [`SpanRecorder::snapshot`]
//! and export.
//!
//! ```
//! use sts_trace::{chrome_trace_json, Phase, SpanRecorder};
//!
//! let rec = SpanRecorder::new(1024);
//! rec.enable();
//! let t0 = rec.now_ns();
//! // ... work ...
//! rec.record(0, 3, Phase::Gather, t0, rec.now_ns());
//! let spans = rec.snapshot();
//! assert_eq!(spans.len(), 1);
//! let json = chrome_trace_json(&spans);
//! assert!(json.starts_with('['));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod export;
mod metrics;
mod span;

pub use export::chrome_trace_json;
pub use metrics::{Counter, Histogram, Registry, HISTOGRAM_BUCKETS};
pub use span::{Phase, SpanEvent, SpanRecorder};
