//! Seeded schedule corruptions for negative testing.
//!
//! Each helper removes one ordering a kernel relies on, the way a real
//! scheduling bug would, so tests can assert that [`crate::verify`] flags
//! the corruption with the exact `(pack, phase, row)` it first breaks at.
//! The helpers return `false` (and leave the spec intact) when the
//! addressed dispatch or task does not exist, so tests fail loudly on a
//! stale target instead of silently verifying an unmutated spec.

use crate::spec::{ScheduleSpec, Task};

/// Drops the barrier in front of dispatch `d`: its tasks join dispatch
/// `d − 1`, as if the driver had issued both in one `parallel_for`. Returns
/// `false` if `d` is 0 or out of range.
pub fn drop_barrier(spec: &mut ScheduleSpec, d: usize) -> bool {
    if d == 0 || d >= spec.dispatches.len() {
        return false;
    }
    let moved = spec.dispatches.remove(d);
    spec.dispatches[d - 1].extend(moved);
    true
}

/// Hands task `t` of dispatch `d` to two workers: its steps from position
/// `at` on become a new task of the same dispatch, no longer ordered after
/// the steps before `at`. Returns `false` if the task does not exist or
/// `at` does not split it into two non-empty parts.
pub fn split_task(spec: &mut ScheduleSpec, d: usize, t: usize, at: usize) -> bool {
    let Some(tasks) = spec.dispatches.get_mut(d) else {
        return false;
    };
    let Some(task) = tasks.get_mut(t) else {
        return false;
    };
    if at == 0 || at >= task.rows.len() {
        return false;
    }
    let tail = Task {
        pack: task.pack,
        kind: task.kind,
        rows: task.rows.split_off(at),
    };
    tasks.insert(t + 1, tail);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RowFootprint, TaskKind};

    fn one_task_spec() -> ScheduleSpec {
        let rows = (0..2)
            .map(|row| RowFootprint { row, reads: vec![] })
            .collect();
        ScheduleSpec {
            locations: 2,
            dispatches: vec![vec![Task {
                pack: 0,
                kind: TaskKind::Gather,
                rows,
            }]],
        }
    }

    #[test]
    fn mutations_report_missing_targets() {
        let mut spec = one_task_spec();
        assert!(
            !drop_barrier(&mut spec, 0),
            "no barrier precedes dispatch 0"
        );
        assert!(!drop_barrier(&mut spec, 1));
        assert!(!split_task(&mut spec, 0, 0, 2), "nothing to hand over");
        assert!(!split_task(&mut spec, 0, 1, 1));
        assert!(split_task(&mut spec, 0, 0, 1));
        assert_eq!(spec.dispatches[0].len(), 2);
        assert_eq!(spec.dispatches[0][1].rows[0].row, 1);
    }
}
