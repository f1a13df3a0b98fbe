//! Seeded schedule corruptions for negative testing.
//!
//! Each helper damages one synchronisation edge of a [`ScheduleSpec`] the
//! way a real scheduling bug would, so tests can assert that
//! [`crate::verify`] flags the corruption with the exact `(pack, row)` it
//! first breaks at. The helpers return `false` (and leave the spec intact)
//! when the addressed task does not exist, so tests fail loudly on a stale
//! target instead of silently verifying an unmutated spec.

use crate::spec::ScheduleSpec;

/// Drops one dependency edge: decrements the readiness of chunk `chunk` of
/// stage `stage`, as if `ext_dep` had been computed one pack short. Returns
/// `false` if the chunk does not exist or already has readiness 0.
pub fn drop_dependency(spec: &mut ScheduleSpec, stage: usize, chunk: usize) -> bool {
    match spec
        .stages
        .get_mut(stage)
        .and_then(|s| s.chunks.get_mut(chunk))
    {
        Some(c) if c.dep > 0 => {
            c.dep -= 1;
            true
        }
        _ => false,
    }
}

/// Forges a ticket claim: chain task `task` of stage `stage` no longer waits
/// for its stage's phase 1 to drain, as if the phase barrier were missing.
/// Returns `false` if the task does not exist.
pub fn forge_ticket(spec: &mut ScheduleSpec, stage: usize, task: usize) -> bool {
    match spec
        .stages
        .get_mut(stage)
        .and_then(|s| s.chains.get_mut(task))
    {
        Some(c) => {
            c.claims_after_drain = false;
            true
        }
        None => false,
    }
}

/// Reorders one gate publish: chunk `chunk` of stage `stage` arrives at the
/// gate *before* its writes, so the epoch and drain edges no longer publish
/// its rows. Returns `false` if the chunk does not exist.
pub fn publish_early(spec: &mut ScheduleSpec, stage: usize, chunk: usize) -> bool {
    match spec
        .stages
        .get_mut(stage)
        .and_then(|s| s.chunks.get_mut(chunk))
    {
        Some(c) => {
            c.publishes = false;
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChunkSpec, RowFootprint, ScheduleSpec, StageSpec};

    fn one_stage_spec() -> ScheduleSpec {
        ScheduleSpec {
            locations: 1,
            stages: vec![StageSpec {
                pack: 0,
                chunks: vec![ChunkSpec {
                    dep: 0,
                    rows: vec![RowFootprint {
                        row: 0,
                        reads: vec![],
                    }],
                    publishes: true,
                }],
                chains: vec![],
            }],
        }
    }

    #[test]
    fn mutations_report_missing_targets() {
        let mut spec = one_stage_spec();
        assert!(!drop_dependency(&mut spec, 0, 0), "dep is already 0");
        assert!(!drop_dependency(&mut spec, 5, 0));
        assert!(!forge_ticket(&mut spec, 0, 0), "no chain tasks exist");
        assert!(publish_early(&mut spec, 0, 0));
        assert!(!spec.stages[0].chunks[0].publishes);
    }
}
