//! What measures and audits STS-k outside the repo benchmark.
//!
//! * `paper_figs` (binary) regenerates every artifact of the paper's
//!   evaluation section — Table 1, Figures 1–14 — and four ablations (DAR
//!   reordering, pack ordering, loop schedule, super-row size) over the
//!   machinery in [`harness`]: method construction on the generated suite
//!   at the paper's two super-row sizes, and wall-clock solves on the host
//!   that runs it ([`harness::wallclock_seconds`], each answer checked
//!   against the sequential solve first). It prints each table and writes
//!   its raw numbers as JSON; the timed rows carry their thread count and
//!   the host's CPU model, and mean something only on a multicore host.
//! * [`audit`] and the `audit_lint` binary enforce the `unsafe` /
//!   `Ordering::Relaxed` allowlist.
//! * [`faultinject`] is the deterministic chaos toolkit behind
//!   `tests/fault_injection.rs`.
//!
//! Wall-time measurement of the system itself — end to end and per layer,
//! with bounds and a two-commit `compare` — lives in the `benchmark/` package
//! at the repository root, not here.

pub mod audit;
pub mod faultinject;
pub mod harness;
