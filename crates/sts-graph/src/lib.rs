//! Graph substrate for the STS-k reproduction.
//!
//! Everything STS-k does to a sparse triangular system is driven by graphs:
//!
//! * the undirected graph `G1` of the symmetric matrix `A = L + Lᵀ`
//!   ([`adjacency::Graph`]);
//! * band-reducing reorderings of `G1` (reverse Cuthill–McKee, [`rcm`]);
//! * independent-set extraction by greedy [`coloring`] or by dependency
//!   [`levelset`]s;
//! * Figure 1's pairwise collapse of `G1` into a super-row graph
//!   ([`coarsen`]), the "CSR-2" level of the paper's hierarchy;
//! * permutation bookkeeping ([`permutation`]) and structural
//!   [`metrics`] (bandwidth, profile, degree statistics).
//!
//! The crate depends only on `sts-matrix` and has no threading concerns.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adjacency;
pub mod bfs;
pub mod coarsen;
pub mod coloring;
pub mod levelset;
pub mod metrics;
pub mod permutation;
pub mod rcm;

pub use adjacency::Graph;
pub use coarsen::Coarsening;
pub use coloring::{Coloring, ColoringOrder};
pub use levelset::LevelSets;
pub use permutation::Permutation;
