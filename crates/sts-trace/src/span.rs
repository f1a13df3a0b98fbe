//! The per-worker span recorder: pre-allocated slots, relaxed atomics, no
//! locks, no allocation after construction.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be free.** The recorder is installed on the solver
//!    permanently (daemon deployments flip it per request); the disabled
//!    path is one relaxed load and a predictable branch, *per chunk/task*,
//!    never per row. This is the configuration every untraced run of the
//!    repo benchmark (`benchmark/`, `--trace 0`) measures.
//! 2. **Recording must not synchronize workers.** A slot index comes from
//!    one relaxed `fetch_add`; the five fields are relaxed stores into
//!    pre-allocated atomics. No CAS loops, no allocation, nothing a worker
//!    can block on — the recorder cannot perturb the schedule it measures.
//! 3. **Overflow must be visible, not fatal.** The buffer is a ring: past
//!    capacity, new events overwrite the oldest slots and a dropped-event
//!    counter records the loss. A full buffer never stalls a solve.
//!
//! The price of lock-freedom is a weak snapshot contract:
//! [`SpanRecorder::snapshot`] is meant for quiescent moments (after a solve
//! returns — the engines' pool dispatch is a synchronization point, so all
//! worker stores are visible by then). Snapshotting *during* a solve is
//! safe (no UB — every field is atomic) but may observe torn span tuples;
//! such spans are filtered by the `t_end >= t_start` sanity check.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// What a recorded span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A phase-1 external gather chunk (streams the entries referencing
    /// earlier packs).
    Gather,
    /// A phase-2 in-pack dependence-chain task.
    Chain,
    /// A blocking wait on a peer worker inside a dispatch. Nothing records
    /// it: every kernel waits only at pool barriers. Kept for the readers
    /// that still match on it.
    GateWait,
    /// A super-row task of the level-scheduled IC(0) construction.
    Factor,
    /// A mixed-precision refinement pass: the f64 residual plus the f32
    /// correction sweep it feeds.
    Refine,
}

impl Phase {
    /// The span name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Gather => "gather",
            Phase::Chain => "chain",
            Phase::GateWait => "gate_wait",
            Phase::Factor => "factor",
            Phase::Refine => "refine",
        }
    }

    fn to_u32(self) -> u32 {
        match self {
            Phase::Gather => 0,
            Phase::Chain => 1,
            Phase::GateWait => 2,
            Phase::Factor => 3,
            Phase::Refine => 4,
        }
    }

    fn from_u32(v: u32) -> Option<Phase> {
        match v {
            0 => Some(Phase::Gather),
            1 => Some(Phase::Chain),
            2 => Some(Phase::GateWait),
            3 => Some(Phase::Factor),
            4 => Some(Phase::Refine),
            _ => None,
        }
    }
}

/// One recorded span, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The worker slot that executed the span.
    pub worker: u32,
    /// The pack (pipeline stage) the span belongs to. For backward
    /// (transpose) sweeps this is the stage index in consumption order.
    pub pack: u32,
    /// What the span measured.
    pub phase: Phase,
    /// Start, nanoseconds since [`SpanRecorder::new`].
    pub t_start_ns: u64,
    /// End, nanoseconds since [`SpanRecorder::new`].
    pub t_end_ns: u64,
}

/// One pre-allocated slot. `stamp` is 0 while empty; a writer stores
/// `index + 1` last, so a non-zero stamp means every field of *some* write
/// is in place (possibly a newer one racing a snapshot — see the module
/// docs for the quiescence contract).
struct SpanSlot {
    stamp: AtomicU64,
    worker: AtomicU32,
    pack: AtomicU32,
    phase: AtomicU32,
    t_start: AtomicU64,
    t_end: AtomicU64,
}

impl SpanSlot {
    fn empty() -> SpanSlot {
        SpanSlot {
            stamp: AtomicU64::new(0),
            worker: AtomicU32::new(0),
            pack: AtomicU32::new(0),
            phase: AtomicU32::new(0),
            t_start: AtomicU64::new(0),
            t_end: AtomicU64::new(0),
        }
    }
}

/// A fixed-capacity, lock-free ring buffer of [`SpanEvent`]s.
///
/// Construction allocates every slot up front; afterwards the recorder
/// never allocates, locks, or blocks. See the module docs for the design
/// constraints and the snapshot contract.
pub struct SpanRecorder {
    epoch: Instant,
    enabled: AtomicBool,
    /// Total events ever recorded (monotonic; slot = `index % capacity`).
    cursor: AtomicUsize,
    /// Events that overwrote an older slot (i.e. lost history).
    dropped: AtomicU64,
    slots: Box<[SpanSlot]>,
}

impl SpanRecorder {
    /// A recorder with room for `capacity` spans (at least 1), disabled.
    pub fn new(capacity: usize) -> SpanRecorder {
        let capacity = capacity.max(1);
        SpanRecorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity).map(|_| SpanSlot::empty()).collect(),
        }
    }

    /// Nanoseconds since this recorder was constructed — the timebase every
    /// recorded span uses. Call before and after the work being measured.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start accepting [`record`](SpanRecorder::record) calls.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn recording back into a no-op (one relaxed load per call site).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether [`record`](SpanRecorder::record) currently stores anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one span. No-op while disabled; never blocks, never
    /// allocates. Past capacity the ring overwrites oldest-first and
    /// [`dropped`](SpanRecorder::dropped) counts the overwritten events.
    pub fn record(&self, worker: u32, pack: u32, phase: Phase, t_start_ns: u64, t_end_ns: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let index = self.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[index % self.slots.len()];
        slot.worker.store(worker, Ordering::Relaxed);
        slot.pack.store(pack, Ordering::Relaxed);
        slot.phase.store(phase.to_u32(), Ordering::Relaxed);
        slot.t_start.store(t_start_ns, Ordering::Relaxed);
        slot.t_end.store(t_end_ns, Ordering::Relaxed);
        // Stamped last: a zero stamp can never expose half-written fields
        // to a quiescent snapshot.
        slot.stamp.store(index as u64 + 1, Ordering::Release);
    }

    /// The currently held spans, sorted by start time (ties by worker).
    ///
    /// Non-destructive. Meant for quiescent moments — after the solve being
    /// traced has returned (see the module docs).
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let recorded = self.cursor.load(Ordering::Relaxed);
        let held = recorded.min(self.slots.len());
        let mut out = Vec::with_capacity(held);
        for slot in self.slots.iter().take(held) {
            if slot.stamp.load(Ordering::Acquire) == 0 {
                continue;
            }
            let t_start_ns = slot.t_start.load(Ordering::Relaxed);
            let t_end_ns = slot.t_end.load(Ordering::Relaxed);
            let Some(phase) = Phase::from_u32(slot.phase.load(Ordering::Relaxed)) else {
                continue;
            };
            if t_end_ns < t_start_ns {
                continue; // torn mid-solve read; see the snapshot contract
            }
            out.push(SpanEvent {
                worker: slot.worker.load(Ordering::Relaxed),
                pack: slot.pack.load(Ordering::Relaxed),
                phase,
                t_start_ns,
                t_end_ns,
            });
        }
        out.sort_by_key(|s| (s.t_start_ns, s.worker));
        out
    }

    /// Forget every held span (the enabled flag is untouched). The epoch is
    /// *not* reset, so spans from consecutive solves stay on one timeline.
    pub fn clear(&self) {
        // Stamps first: a cleared slot must read as empty even if the
        // cursor store is observed late.
        for slot in self.slots.iter() {
            slot.stamp.store(0, Ordering::Relaxed);
        }
        self.cursor.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Events lost to ring overwrite since the last
    /// [`clear`](SpanRecorder::clear).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// Whether nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed slot count chosen at construction.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("enabled", &self.is_enabled())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = SpanRecorder::new(8);
        rec.record(0, 0, Phase::Gather, 0, 1);
        assert!(rec.is_empty());
        assert_eq!(rec.snapshot(), vec![]);
    }

    #[test]
    fn records_and_snapshots_in_start_order() {
        let rec = SpanRecorder::new(8);
        rec.enable();
        rec.record(1, 2, Phase::Chain, 50, 70);
        rec.record(0, 1, Phase::Gather, 10, 30);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].t_start_ns, 10);
        assert_eq!(spans[0].phase, Phase::Gather);
        assert_eq!(spans[1].pack, 2);
        // Non-destructive.
        assert_eq!(rec.snapshot().len(), 2);
    }

    #[test]
    fn ring_overwrites_and_counts_drops() {
        let rec = SpanRecorder::new(2);
        rec.enable();
        for i in 0..5u64 {
            rec.record(0, i as u32, Phase::Gather, i, i + 1);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.snapshot().len(), 2);
    }

    #[test]
    fn clear_resets_spans_but_not_the_enable_flag() {
        let rec = SpanRecorder::new(4);
        rec.enable();
        rec.record(0, 0, Phase::Factor, 1, 2);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        assert!(rec.is_enabled());
        rec.record(0, 0, Phase::Factor, 3, 4);
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let rec = SpanRecorder::new(1);
        let a = rec.now_ns();
        let b = rec.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let rec = Arc::new(SpanRecorder::new(4096));
        rec.enable();
        // Fewer records per thread under Miri; the slot-claim protocol is
        // identical at any volume.
        let per_thread = if cfg!(miri) { 100u64 } else { 1000u64 };
        let handles: Vec<_> = (0..4u32)
            .map(|w| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        rec.record(w, (i % 7) as u32, Phase::Chain, i, i + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.snapshot().len(), 4 * per_thread as usize);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let rec = SpanRecorder::new(0);
        assert_eq!(rec.capacity(), 1);
        rec.enable();
        rec.record(0, 0, Phase::GateWait, 0, 0);
        assert_eq!(rec.len(), 1);
    }
}
