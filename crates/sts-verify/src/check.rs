//! The schedule checker: every access ordered by a barrier or by program
//! order, every location produced exactly once.

use std::fmt;

use crate::spec::{RowFootprint, ScheduleSpec, Task, TaskKind};

/// Aggregate statistics of a successful verification — the "proof object"
/// returned when every check passes. Proofs from several specs (thread
/// counts, directions, the super-row loop) merge additively.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleProof {
    /// Specs folded into this proof.
    pub specs: usize,
    /// Dispatches (barrier-separated `parallel_for`s) across all specs.
    pub dispatches: usize,
    /// Tasks across all specs.
    pub tasks: usize,
    /// Shared locations covered (summed over specs).
    pub locations: usize,
    /// Individual read accesses checked.
    pub reads_checked: u64,
}

impl ScheduleProof {
    /// Folds another proof into this one (additive on every counter).
    pub fn merge(&mut self, other: &ScheduleProof) {
        self.specs += other.specs;
        self.dispatches += other.dispatches;
        self.tasks += other.tasks;
        self.locations += other.locations;
        self.reads_checked += other.reads_checked;
    }
}

/// A schedule defect, reported with the exact `(pack, phase, row)` of the
/// step it was detected at (phase 1 = gather, 2 = chain; see
/// [`TaskKind::phase`]) and the conflicting writer's `(pack, phase)`. The
/// checker reports the *first* violation in deterministic (dispatch, task,
/// step, read) scan order, so negative tests can pin exact locations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleViolation {
    /// A step reads a location that another task of the same dispatch
    /// writes: no barrier orders the two.
    ReadRace {
        /// Pack of the reading task.
        pack: usize,
        /// Phase of the reading task.
        phase: u8,
        /// Row the reader was producing.
        row: usize,
        /// The location read.
        location: usize,
        /// Pack of the conflicting writer.
        writer_pack: usize,
        /// Phase of the conflicting writer.
        writer_phase: u8,
    },
    /// A step reads a location that is written only after the read — in a
    /// later dispatch, or later in the reader's own task.
    StaleRead {
        /// Pack of the reading task.
        pack: usize,
        /// Phase of the reading task.
        phase: u8,
        /// Row the reader was producing.
        row: usize,
        /// The location read.
        location: usize,
        /// Pack of the later writer.
        writer_pack: usize,
        /// Phase of the later writer.
        writer_phase: u8,
    },
    /// A write of `row` that is not ordered after the location's previous
    /// write: a second gather step, a correction before the location's
    /// gather, or two corrections in different tasks of one dispatch.
    WriteRace {
        /// Pack of the writing task.
        pack: usize,
        /// Phase of the writing task.
        phase: u8,
        /// The location written.
        row: usize,
        /// Pack of the previous writer.
        writer_pack: usize,
        /// Phase of the previous writer.
        writer_phase: u8,
    },
    /// A location no gather step produces.
    UnwrittenLocation {
        /// The never-produced location.
        location: usize,
    },
    /// A footprint references a location outside `0..locations`.
    LocationOutOfRange {
        /// Pack of the offending task.
        pack: usize,
        /// Phase of the offending task.
        phase: u8,
        /// Row of the offending step.
        row: usize,
        /// The out-of-range location.
        location: usize,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::ReadRace {
                pack,
                phase,
                row,
                location,
                writer_pack,
                writer_phase,
            } => write!(
                f,
                "read race: pack {pack} phase {phase} row {row} reads location {location}, which \
                 pack {writer_pack} phase {writer_phase} writes in the same dispatch (no barrier \
                 orders them)"
            ),
            ScheduleViolation::StaleRead {
                pack,
                phase,
                row,
                location,
                writer_pack,
                writer_phase,
            } => write!(
                f,
                "stale read: pack {pack} phase {phase} row {row} reads location {location} \
                 before pack {writer_pack} phase {writer_phase} writes it"
            ),
            ScheduleViolation::WriteRace {
                pack,
                phase,
                row,
                writer_pack,
                writer_phase,
            } => write!(
                f,
                "write race: pack {pack} phase {phase} writes row {row}, unordered after its \
                 write by pack {writer_pack} phase {writer_phase}"
            ),
            ScheduleViolation::UnwrittenLocation { location } => write!(
                f,
                "incomplete schedule: no gather step produces location {location}"
            ),
            ScheduleViolation::LocationOutOfRange {
                pack,
                phase,
                row,
                location,
            } => write!(
                f,
                "malformed spec: pack {pack} phase {phase} row {row} references location \
                 {location} outside the shared vector"
            ),
        }
    }
}

/// Where a step sits in the spec: dispatch, task, position in the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pos {
    dispatch: u32,
    task: u32,
    step: u32,
}

/// "No write recorded".
const UNSET: Pos = Pos {
    dispatch: u32::MAX,
    task: u32::MAX,
    step: u32::MAX,
};

impl Pos {
    /// Whether `self` happens before `later`: a barrier separates them (an
    /// earlier dispatch), or program order does (earlier in the same task).
    fn before(self, later: Pos) -> bool {
        self.dispatch < later.dispatch
            || (self.dispatch == later.dispatch
                && self.task == later.task
                && self.step < later.step)
    }
}

/// Runs `f` on every step of `spec` in scan order, with its position and
/// task, stopping at the first violation.
fn for_each_step<'a>(
    spec: &'a ScheduleSpec,
    mut f: impl FnMut(Pos, &'a Task, &'a RowFootprint) -> Result<(), ScheduleViolation>,
) -> Result<(), ScheduleViolation> {
    for (d, tasks) in spec.dispatches.iter().enumerate() {
        for (t, task) in tasks.iter().enumerate() {
            for (k, rf) in task.rows.iter().enumerate() {
                let pos = Pos {
                    dispatch: d as u32,
                    task: t as u32,
                    step: k as u32,
                };
                f(pos, task, rf)?;
            }
        }
    }
    Ok(())
}

/// Checks a [`ScheduleSpec`] against the barrier schedule it describes,
/// returning aggregate statistics on success or the **first** violation in
/// deterministic (dispatch, task, step, read) scan order.
///
/// One access happens before another when a barrier separates them (an
/// earlier dispatch) or program order does (earlier in the same task);
/// nothing else is ordered. The checks:
///
/// * every location is produced by exactly one [`TaskKind::Gather`] step,
///   and each further write of it (a chain correction) is ordered after the
///   previous one;
/// * a step's read of location `j` is ordered after every write of `j`
///   other than the step's own. A write by another task of the same
///   dispatch is a read race; a write after the read is a stale read.
///
/// Two linear passes over the footprints: the first records each location's
/// last two writes, the second checks every access against them.
pub fn verify(spec: &ScheduleSpec) -> Result<ScheduleProof, ScheduleViolation> {
    let n = spec.locations;
    let out_of_range =
        |task: &Task, row: usize, location: usize| ScheduleViolation::LocationOutOfRange {
            pack: task.pack,
            phase: task.kind.phase(),
            row,
            location,
        };
    let writer = |w: Pos| {
        let task = &spec.dispatches[w.dispatch as usize][w.task as usize];
        (task.pack, task.kind.phase())
    };

    // Pass 1: each location's last and second-to-last write in scan order,
    // and whether a gather produces it.
    let mut last = vec![UNSET; n];
    let mut prev = vec![UNSET; n];
    let mut produced = vec![false; n];
    for_each_step(spec, |pos, task, rf| {
        let i = rf.row;
        if i >= n {
            return Err(out_of_range(task, i, i));
        }
        prev[i] = last[i];
        last[i] = pos;
        produced[i] |= task.kind == TaskKind::Gather;
        Ok(())
    })?;
    if let Some(location) = produced.iter().position(|&p| !p) {
        return Err(ScheduleViolation::UnwrittenLocation { location });
    }

    // Pass 2: reads, then the write, of every step. A location's writes are
    // totally ordered once every write passed below, so a read is ordered
    // after all of them iff it is ordered after the latest one that is not
    // the reader's own.
    let mut written = vec![UNSET; n];
    let mut reads_checked: u64 = 0;
    for_each_step(spec, |pos, task, rf| {
        let (pack, phase, row) = (task.pack, task.kind.phase(), rf.row);
        for &j in &rf.reads {
            reads_checked += 1;
            if j >= n {
                return Err(out_of_range(task, row, j));
            }
            let w = if last[j] == pos { prev[j] } else { last[j] };
            if w == UNSET || w.before(pos) {
                continue;
            }
            let (writer_pack, writer_phase) = writer(w);
            return Err(if w.dispatch == pos.dispatch && w.task != pos.task {
                ScheduleViolation::ReadRace {
                    pack,
                    phase,
                    row,
                    location: j,
                    writer_pack,
                    writer_phase,
                }
            } else {
                ScheduleViolation::StaleRead {
                    pack,
                    phase,
                    row,
                    location: j,
                    writer_pack,
                    writer_phase,
                }
            });
        }
        // A gather must be a location's first write; a correction must be
        // ordered after the write before it.
        let w = std::mem::replace(&mut written[row], pos);
        if w != UNSET && (task.kind == TaskKind::Gather || !w.before(pos)) {
            let (writer_pack, writer_phase) = writer(w);
            return Err(ScheduleViolation::WriteRace {
                pack,
                phase,
                row,
                writer_pack,
                writer_phase,
            });
        }
        Ok(())
    })?;

    Ok(ScheduleProof {
        specs: 1,
        dispatches: spec.dispatches.len(),
        tasks: spec.num_tasks(),
        locations: n,
        reads_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(row: usize, reads: &[usize]) -> RowFootprint {
        RowFootprint {
            row,
            reads: reads.to_vec(),
        }
    }

    fn task(pack: usize, kind: TaskKind, rows: Vec<RowFootprint>) -> Task {
        Task { pack, kind, rows }
    }

    /// Two packs of two rows: pack 0's gather, pack 1's gather reading pack
    /// 0, then pack 1's chain correcting row 3 from row 2.
    fn good_spec() -> ScheduleSpec {
        ScheduleSpec {
            locations: 4,
            dispatches: vec![
                vec![task(0, TaskKind::Gather, vec![step(0, &[]), step(1, &[0])])],
                vec![task(
                    1,
                    TaskKind::Gather,
                    vec![step(2, &[0]), step(3, &[1])],
                )],
                vec![task(1, TaskKind::Chain, vec![step(3, &[3, 2])])],
            ],
        }
    }

    #[test]
    fn a_consistent_spec_verifies() {
        let proof = verify(&good_spec()).unwrap();
        assert_eq!((proof.dispatches, proof.tasks, proof.locations), (3, 3, 4));
        assert_eq!(proof.reads_checked, 5);
    }

    #[test]
    fn a_read_of_the_same_dispatch_is_a_race() {
        // Pack 1's gather in pack 0's dispatch: row 2 reads row 0 of
        // another task with no barrier between them.
        let mut spec = good_spec();
        let moved = spec.dispatches.remove(1);
        spec.dispatches[0].extend(moved);
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::ReadRace {
                pack: 1,
                phase: 1,
                row: 2,
                location: 0,
                writer_pack: 0,
                writer_phase: 1,
            })
        );
    }

    #[test]
    fn a_read_before_its_write_is_stale() {
        // The chain dispatch ahead of the gathers it corrects: row 3's
        // partial is read before any gather writes it.
        let mut spec = good_spec();
        let chain = spec.dispatches.pop().unwrap();
        spec.dispatches.insert(1, chain);
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::StaleRead {
                pack: 1,
                phase: 2,
                row: 3,
                location: 3,
                writer_pack: 1,
                writer_phase: 1,
            })
        );
    }

    #[test]
    fn completeness_catches_unproduced_and_doubly_produced_rows() {
        let mut spec = good_spec();
        spec.locations = 5;
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::UnwrittenLocation { location: 4 })
        );
        // A chain correction is not a production.
        let mut spec = good_spec();
        spec.dispatches[1][0].rows.pop();
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::UnwrittenLocation { location: 3 })
        );
        let mut spec = good_spec();
        spec.dispatches[1][0].rows[0].row = 1;
        spec.dispatches[0][0].rows.push(step(2, &[]));
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::WriteRace {
                pack: 1,
                phase: 1,
                row: 1,
                writer_pack: 0,
                writer_phase: 1,
            })
        );
    }

    #[test]
    fn a_correction_in_the_producing_dispatch_is_a_write_race() {
        // Without its self-read, the chain's only conflict is the write.
        let mut spec = good_spec();
        spec.dispatches[2][0].rows[0].reads.clear();
        let chain = spec.dispatches.pop().unwrap();
        spec.dispatches[1].extend(chain);
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::WriteRace {
                pack: 1,
                phase: 2,
                row: 3,
                writer_pack: 1,
                writer_phase: 1,
            })
        );
    }

    #[test]
    fn program_order_orders_steps_of_one_task() {
        // A chain may read a row it corrected earlier in its own order...
        let mut spec = good_spec();
        spec.dispatches[2][0].rows = vec![step(2, &[2]), step(3, &[3, 2])];
        assert!(verify(&spec).is_ok());
        // ...but a row it corrects only later is read stale.
        spec.dispatches[2][0].rows.reverse();
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::StaleRead {
                pack: 1,
                phase: 2,
                row: 3,
                location: 2,
                writer_pack: 1,
                writer_phase: 2,
            })
        );
    }

    #[test]
    fn cross_task_reads_are_races() {
        // Row 2 corrected by a second chain task of the same dispatch: the
        // first task's read of it is unordered, though the writer's step
        // index is the lower one.
        let mut spec = good_spec();
        spec.locations = 5;
        spec.dispatches[1][0].rows.push(step(4, &[]));
        spec.dispatches[2][0].rows.insert(0, step(4, &[4]));
        spec.dispatches[2].push(task(1, TaskKind::Chain, vec![step(2, &[2])]));
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::ReadRace {
                pack: 1,
                phase: 2,
                row: 3,
                location: 2,
                writer_pack: 1,
                writer_phase: 2,
            })
        );
    }

    #[test]
    fn out_of_range_locations_are_malformed() {
        let mut spec = good_spec();
        spec.dispatches[1][0].rows[1].reads.push(9);
        assert_eq!(
            verify(&spec),
            Err(ScheduleViolation::LocationOutOfRange {
                pack: 1,
                phase: 1,
                row: 3,
                location: 9,
            })
        );
    }

    #[test]
    fn violations_render_with_pack_phase_row_detail() {
        let v = ScheduleViolation::ReadRace {
            pack: 3,
            phase: 2,
            row: 41,
            location: 17,
            writer_pack: 3,
            writer_phase: 1,
        };
        let rendered = v.to_string();
        for part in ["pack 3 phase 2", "row 41", "location 17", "no barrier"] {
            assert!(rendered.contains(part), "{rendered}");
        }
    }
}
