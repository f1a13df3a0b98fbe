//! Execution engines for STS-k structures.
//!
//! [`simulated`] prices a solve on a *modelled* NUMA machine (the paper's
//! 32-core Intel Westmere-EX or 24-core AMD MagnyCours presets): it replays
//! the pack-by-pack schedule, charges every solution-component access the
//! latency of the NUMA distance between the reading core and the core that
//! produced the component, and charges a barrier between packs. This is the
//! engine behind the `paper_figs` driver, so the evaluation can be reproduced
//! on hosts with any core count (including the single-core CI machine); the
//! wall-clock path uses [`crate::solver::ParallelSolver`] instead. It models
//! the paper's barrier-per-pack solve only: the split and pipelined engines
//! and the level-scheduled IC(0) build are measured (`benchmark/`), not
//! modelled.

pub mod simulated;

pub use simulated::{SimReport, SimSchedule, SimulatedExecutor, SimulationParams};
