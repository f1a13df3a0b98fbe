//! Dynamic cross-check: replaying recorded kernel accesses against the
//! static footprint model.
//!
//! Under the `race-shadow` cargo feature, `sts-core`'s parallel kernels —
//! the split sweep, the unsplit solve and the IC(0) build — record every shared-slot access they perform — one
//! [`RowTrace`] per produced row, straight from the slices the inner loops
//! iterate — into an [`AccessLog`]. [`check_replay`] then compares the log
//! against a [`ScheduleSpec`] at **row granularity**: every location must be
//! gathered exactly once with exactly the predicted read set, and the chain
//! corrections must touch exactly the predicted chain rows. This validates
//! that the verifier's model matches what the kernels really touch,
//! independent of chunk boundaries (which differ between worker counts).

use std::fmt;
use std::sync::Mutex;

use crate::spec::{ScheduleSpec, TaskKind};

/// One recorded row production: the kernel wrote `row` after reading
/// `reads` (shared slots only; right-hand-side loads are private).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowTrace {
    /// Which phase recorded it.
    pub kind: TaskKind,
    /// The row written.
    pub row: usize,
    /// The shared locations read, as the kernel's inner loop saw them.
    pub reads: Vec<usize>,
}

/// A thread-safe sink for [`RowTrace`] records. The kernels lock per row;
/// the feature is test-only, so simplicity beats throughput.
#[derive(Debug, Default)]
pub struct AccessLog {
    rows: Mutex<Vec<RowTrace>>,
}

impl AccessLog {
    /// An empty log.
    pub fn new() -> Self {
        AccessLog::default()
    }

    /// Records one produced row. Poisoned-lock panics propagate: a panicked
    /// recorder already failed the test this feature serves.
    pub fn record(&self, kind: TaskKind, row: usize, reads: impl IntoIterator<Item = usize>) {
        let trace = RowTrace {
            kind,
            row,
            reads: reads.into_iter().collect(),
        };
        #[allow(clippy::unwrap_used)]
        self.rows.lock().unwrap().push(trace);
    }

    /// Drains every recorded trace (ready for the next kernel run).
    pub fn take(&self) -> Vec<RowTrace> {
        #[allow(clippy::unwrap_used)]
        std::mem::take(&mut *self.rows.lock().unwrap())
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        #[allow(clippy::unwrap_used)]
        self.rows.lock().unwrap().len()
    }

    /// Whether no trace has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Aggregate statistics of a successful replay comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Row productions compared.
    pub rows_checked: usize,
    /// Individual read accesses compared.
    pub reads_checked: usize,
}

/// A divergence between the recorded accesses and the static model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayMismatch {
    /// A row was gathered `traced` times instead of exactly once, or chain-
    /// corrected a different number of times than the model owns it.
    CountMismatch {
        /// Which phase diverged.
        kind: TaskKind,
        /// The row.
        row: usize,
        /// Productions recorded.
        traced: usize,
        /// Productions the model predicts.
        expected: usize,
    },
    /// A row's recorded read set differs from the model's footprint.
    ReadSetMismatch {
        /// Which phase diverged.
        kind: TaskKind,
        /// The row.
        row: usize,
        /// The model's reads, sorted.
        expected: Vec<usize>,
        /// The recorded reads, sorted.
        got: Vec<usize>,
    },
    /// A trace references a row outside the model.
    RowOutOfRange {
        /// The out-of-range row.
        row: usize,
    },
}

impl fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayMismatch::CountMismatch {
                kind,
                row,
                traced,
                expected,
            } => write!(
                f,
                "replay divergence: row {row} was produced {traced} times in {kind:?} phase, \
                 model predicts {expected}"
            ),
            ReplayMismatch::ReadSetMismatch {
                kind,
                row,
                expected,
                got,
            } => write!(
                f,
                "replay divergence: row {row} ({kind:?} phase) read {got:?}, model predicts \
                 {expected:?}"
            ),
            ReplayMismatch::RowOutOfRange { row } => {
                write!(
                    f,
                    "replay divergence: traced row {row} is outside the model"
                )
            }
        }
    }
}

/// Compares recorded kernel accesses against the static footprint model.
///
/// Granularity is per row: the footprints of the spec's gather tasks (every
/// location exactly once) and of its chain tasks (each chain row exactly
/// once, the re-read of the row's own partial included). Read sets are
/// compared as sorted multisets — the kernels traverse slabs in layout
/// order, which replay must not constrain.
pub fn check_replay(
    spec: &ScheduleSpec,
    traces: &[RowTrace],
) -> Result<ReplayReport, ReplayMismatch> {
    let n = spec.locations;
    let mut expected_gather: Vec<Option<Vec<usize>>> = vec![None; n];
    let mut expected_chain: Vec<Option<Vec<usize>>> = vec![None; n];
    for task in spec.dispatches.iter().flatten() {
        let expected = match task.kind {
            TaskKind::Gather => &mut expected_gather,
            TaskKind::Chain => &mut expected_chain,
        };
        for rf in &task.rows {
            let mut reads = rf.reads.clone();
            reads.sort_unstable();
            expected[rf.row] = Some(reads);
        }
    }

    let mut gather_seen = vec![0usize; n];
    let mut chain_seen = vec![0usize; n];
    let mut reads_checked = 0usize;
    for trace in traces {
        if trace.row >= n {
            return Err(ReplayMismatch::RowOutOfRange { row: trace.row });
        }
        let (seen, expected) = match trace.kind {
            TaskKind::Gather => (&mut gather_seen, &expected_gather),
            TaskKind::Chain => (&mut chain_seen, &expected_chain),
        };
        seen[trace.row] += 1;
        let Some(model_reads) = &expected[trace.row] else {
            return Err(ReplayMismatch::CountMismatch {
                kind: trace.kind,
                row: trace.row,
                traced: seen[trace.row],
                expected: 0,
            });
        };
        let mut got = trace.reads.clone();
        got.sort_unstable();
        if &got != model_reads {
            return Err(ReplayMismatch::ReadSetMismatch {
                kind: trace.kind,
                row: trace.row,
                expected: model_reads.clone(),
                got,
            });
        }
        reads_checked += got.len();
    }

    for row in 0..n {
        let expected = usize::from(expected_gather[row].is_some());
        if gather_seen[row] != expected {
            return Err(ReplayMismatch::CountMismatch {
                kind: TaskKind::Gather,
                row,
                traced: gather_seen[row],
                expected,
            });
        }
        let expected = usize::from(expected_chain[row].is_some());
        if chain_seen[row] != expected {
            return Err(ReplayMismatch::CountMismatch {
                kind: TaskKind::Chain,
                row,
                traced: chain_seen[row],
                expected,
            });
        }
    }

    Ok(ReplayReport {
        rows_checked: traces.len(),
        reads_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RowFootprint, Task};

    fn spec() -> ScheduleSpec {
        let gather = Task {
            pack: 0,
            kind: TaskKind::Gather,
            rows: (0..2)
                .map(|row| RowFootprint { row, reads: vec![] })
                .collect(),
        };
        let chain = Task {
            pack: 0,
            kind: TaskKind::Chain,
            rows: vec![RowFootprint {
                row: 1,
                reads: vec![1, 0],
            }],
        };
        ScheduleSpec {
            locations: 2,
            dispatches: vec![vec![gather], vec![chain]],
        }
    }
    #[test]
    fn a_faithful_trace_replays_clean() {
        let log = AccessLog::new();
        log.record(TaskKind::Gather, 0, []);
        log.record(TaskKind::Gather, 1, []);
        log.record(TaskKind::Chain, 1, [0, 1]);
        let report = check_replay(&spec(), &log.take()).unwrap();
        assert_eq!(report.rows_checked, 3);
        assert_eq!(report.reads_checked, 2);
    }

    #[test]
    fn missing_and_extra_rows_are_flagged() {
        let log = AccessLog::new();
        log.record(TaskKind::Gather, 0, []);
        log.record(TaskKind::Chain, 1, [0, 1]);
        assert_eq!(
            check_replay(&spec(), &log.take()),
            Err(ReplayMismatch::CountMismatch {
                kind: TaskKind::Gather,
                row: 1,
                traced: 0,
                expected: 1
            })
        );
        let log = AccessLog::new();
        log.record(TaskKind::Gather, 0, []);
        log.record(TaskKind::Gather, 1, []);
        log.record(TaskKind::Chain, 0, [0]);
        log.record(TaskKind::Chain, 1, [0, 1]);
        assert!(matches!(
            check_replay(&spec(), &log.take()),
            Err(ReplayMismatch::CountMismatch {
                kind: TaskKind::Chain,
                row: 0,
                ..
            })
        ));
    }

    #[test]
    fn a_divergent_read_set_is_flagged() {
        let log = AccessLog::new();
        log.record(TaskKind::Gather, 0, [1]);
        log.record(TaskKind::Gather, 1, []);
        log.record(TaskKind::Chain, 1, [0, 1]);
        assert_eq!(
            check_replay(&spec(), &log.take()),
            Err(ReplayMismatch::ReadSetMismatch {
                kind: TaskKind::Gather,
                row: 0,
                expected: vec![],
                got: vec![1]
            })
        );
    }
}
