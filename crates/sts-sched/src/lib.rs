//! Data Affinity and Reuse (DAR) task-graph model and In-Pack scheduling.
//!
//! Section 3.3 of the paper models the tasks of one pack (one independent set
//! of super-rows) as a graph whose edges connect tasks that consume the same
//! previously-computed solution components. Scheduling those tasks onto cores
//! so that shared inputs are fetched once per cache is the **In-Pack**
//! affinity-aware assignment problem; the paper proves it NP-complete (by
//! reduction from 3-Partition) and gives an optimal block schedule plus a
//! dynamic heuristic for the special case where the DAR graph is a line.
//!
//! This crate implements that machinery:
//!
//! * [`dar`] — the DAR graph of a pack, built from per-task input sets;
//! * [`cost`] — the Definition-1 cost model (per-processor cost
//!   `w·|∪ Iᵢ| + e·|Vⱼ| + r·Σ|Iᵢ|`, makespan = max);
//! * [`exact`] — an exhaustive optimal scheduler for small instances, used to
//!   validate the heuristics;
//! * [`heuristic`] — the block schedule for line DARs, an affinity-aware list
//!   scheduler and baselines;
//! * [`partition`] — 3-Partition instances and the reduction of the
//!   NP-completeness proof (Figure 4), used in tests and the
//!   `fig_inpack_model` harness.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod dar;
pub mod exact;
pub mod heuristic;
pub mod partition;

pub use cost::InPackCostModel;
pub use dar::DarGraph;
pub use exact::optimal_schedule;
pub use heuristic::{affinity_list_schedule, block_schedule, round_robin_schedule};
