//! The abstract schedule model: tasks, footprints and synchronisation knobs.
//!
//! A [`ScheduleSpec`] is a complete static description of one kernel
//! invocation over the pack hierarchy: which shared locations each task
//! reads and writes, in what order, and which synchronisation edges gate it.
//! `sts-core` extracts one from a structure's split/transpose layouts; the
//! checker in [`crate::check`] consumes it.

/// Which kernel family produced a task (or a replay trace row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// A phase-1 unit: the external gather of the solve kernels, or a
    /// super-row task of `parallel_ic0`.
    Gather,
    /// A phase-2 unit: one chain ticket correcting its super-row's chain
    /// rows.
    Chain,
}

/// One row's shared-memory footprint: the locations read while producing
/// `row`, in program order. The write of `row` itself is implicit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowFootprint {
    /// The location (solution-row slot) this step writes.
    pub row: usize,
    /// The locations read before the write. Reads of `row` itself are legal
    /// — a task may read-modify-write its own slot.
    pub reads: Vec<usize>,
}

/// A phase-1 unit of dispatch: a contiguous block of rows gathered by one
/// worker behind a single readiness wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Readiness in **stage numbering**: the chunk may start once stages
    /// `0..dep` have fully completed (the kernels run a barrier after every
    /// stage, which covers it).
    /// Forward sweeps number stages by pack; transpose sweeps reverse them.
    pub dep: usize,
    /// Per-row footprints in program order.
    pub rows: Vec<RowFootprint>,
    /// Whether the chunk's completion is published *after* its writes (the
    /// chunk's end before the barrier).
    /// Always true for real kernels;
    /// [`crate::mutate::publish_early`] clears it to model a reordered gate
    /// publish.
    pub publishes: bool,
}

/// A phase-2 unit of dispatch: one chain ticket correcting its super-row's
/// chain rows in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    /// Whether the task starts only after its stage's phase 1 has drained
    /// (the split sweep's phase barrier). Always true for real kernels; [`crate::mutate::forge_ticket`] clears it to model a forged
    /// ticket claim.
    pub claims_after_drain: bool,
    /// Per-row footprints in execution order (increasing rows on the forward
    /// sweep, decreasing on the transpose sweep). Each row additionally
    /// re-reads its own phase-1 partial; that self-read is implicit.
    pub rows: Vec<RowFootprint>,
}

/// One pipeline stage: the tasks bound to one pack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// The pack this stage executes (`stage == pack` forward,
    /// `pack == num_packs − 1 − stage` on the transpose sweep). Violations
    /// are reported in pack numbering.
    pub pack: usize,
    /// Phase-1 chunks, indexed by owning worker slot.
    pub chunks: Vec<ChunkSpec>,
    /// Phase-2 chain tickets.
    pub chains: Vec<ChainSpec>,
}

/// The complete static schedule of one kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Number of shared locations (solution rows / factor rows).
    pub locations: usize,
    /// Stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl ScheduleSpec {
    /// Total number of phase-1 chunks.
    pub fn num_chunks(&self) -> usize {
        self.stages.iter().map(|s| s.chunks.len()).sum()
    }

    /// Total number of phase-2 chain tickets.
    pub fn num_chains(&self) -> usize {
        self.stages.iter().map(|s| s.chains.len()).sum()
    }

    /// Total happens-before edges the synchronisation implies, at task
    /// granularity: each chunk with readiness `dep` receives one edge from
    /// every task (both phases) of stages `0..dep`, and each chain ticket
    /// receives one edge from every phase-1 chunk of its own stage (the
    /// drain flag).
    pub fn hb_edges(&self) -> u64 {
        let mut prefix: u64 = 0;
        let mut prefixes = Vec::with_capacity(self.stages.len() + 1);
        prefixes.push(0u64);
        for stage in &self.stages {
            prefix += (stage.chunks.len() + stage.chains.len()) as u64;
            prefixes.push(prefix);
        }
        let mut edges = 0u64;
        for stage in &self.stages {
            for chunk in &stage.chunks {
                let d = chunk.dep.min(self.stages.len());
                edges += prefixes[d];
            }
            edges += (stage.chains.len() * stage.chunks.len()) as u64;
        }
        edges
    }
}
