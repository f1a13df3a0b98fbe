//! The abstract schedule model: dispatches, tasks and row footprints.
//!
//! A [`ScheduleSpec`] is a complete static description of one kernel
//! invocation as its driver issues it: an ordered list of dispatches, each
//! one `parallel_for` whose completion is a barrier before the next. The
//! tasks of one dispatch may run on different workers in any interleaving;
//! the steps of one task run on one worker in the recorded order.
//! `sts-core` extracts specs from a structure; the checker in
//! [`crate::check`] consumes them.

/// Which kind of step a task runs (or a replay trace row records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Produces its rows: the external gather of the split sweep, or a
    /// super-row task of Algorithm 1's loop (the unsplit solve and the
    /// IC(0) build).
    Gather,
    /// Corrects rows a gather already produced: one chain task of the split
    /// sweep.
    Chain,
}

impl TaskKind {
    /// The phase number violations report: 1 for a gather, 2 for a chain.
    pub fn phase(self) -> u8 {
        match self {
            TaskKind::Gather => 1,
            TaskKind::Chain => 2,
        }
    }
}

/// One step of a task: it reads `reads`, then writes `row`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowFootprint {
    /// The location (solution-row slot) this step writes.
    pub row: usize,
    /// The locations read before the write, in the order a violation names
    /// them first. A step may read `row` itself (a chain re-reads its
    /// row's partial); its own write does not order that read.
    pub reads: Vec<usize>,
}

/// The work one worker runs for one index of a dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// The pack the task belongs to; violations are reported in pack
    /// numbering.
    pub pack: usize,
    /// What the task's steps do to their rows.
    pub kind: TaskKind,
    /// The steps in program order (increasing rows on the forward sweep,
    /// decreasing chain rows on the transpose sweep).
    pub rows: Vec<RowFootprint>,
}

/// The complete static schedule of one kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Number of shared locations (solution rows / factor rows).
    pub locations: usize,
    /// The dispatches in issue order, each the tasks of one `parallel_for`.
    /// A task keeps its own pack and kind, so a merged dispatch
    /// ([`crate::mutate::drop_barrier`]) still reports every access where
    /// the kernel issues it.
    pub dispatches: Vec<Vec<Task>>,
}

impl ScheduleSpec {
    /// Total number of tasks over all dispatches.
    pub fn num_tasks(&self) -> usize {
        self.dispatches.iter().map(Vec::len).sum()
    }
}
