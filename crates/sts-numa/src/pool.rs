//! A persistent, optionally core-pinned worker pool whose caller is a team
//! member.
//!
//! The paper's solvers are OpenMP `parallel for` loops over the super-rows of
//! a pack, run with `schedule(dynamic, 32)` for the flat reference solvers and
//! `schedule(guided, 1)` for the STS-k variants, with threads pinned
//! compactly. [`WorkerPool`] reproduces that execution model:
//!
//! * a pool of `threads` is the thread that calls
//!   [`WorkerPool::parallel_for`] as **slot 0** plus `threads − 1` *helper*
//!   threads spawned once and reused for every pack — the OpenMP team, whose
//!   master thread works instead of sleeping through its own loop. A
//!   dispatch therefore wakes `threads − 1` threads rather than `threads`
//!   and never hands the caller's core to somebody else;
//! * helper `i` can be pinned to a core chosen from the machine topology's
//!   compact order; the caller is left wherever its owner put it;
//! * [`WorkerPool::parallel_for`] supports [`Schedule::Static`] blocks,
//!   [`Schedule::Dynamic`] chunk self-scheduling and [`Schedule::Guided`]
//!   decreasing chunks, matching the OpenMP schedules the paper tunes.
//!
//! # The hand-off: spin, then park
//!
//! A job is published through one atomic **generation word**. The
//! dispatcher writes the job, arms the completion count with the number of
//! helpers, and bumps the generation; a helper that observes a generation it
//! has not run reads the job, runs its share, and decrements the completion
//! count; the dispatcher runs slot 0's share and then waits for the count to
//! reach zero. Both waits relax through the crate's one spin step — 64 `spin_loop` hints,
//! then `yield_now` — because the pool may be oversubscribed (more slots
//! than cores) and a waiter that never yields starves the thread it is
//! waiting for. Both are bounded by elapsed time (≈ 100 µs, like OpenMP's
//! blocktime, only shorter): a waiter that saw nothing in that long parks
//! on a condvar, so an idle pool burns nothing and a long loop body does not
//! keep its finished team-mates spinning. Back-to-back dispatches (the
//! sweep pair of a preconditioner application, the three dispatches of a
//! PCG iteration) find the helpers still polling and cost about a
//! microsecond; a dispatch after a pause pays the condvar wake-up.
//!
//! ## Memory ordering
//!
//! * **Generation word** (`SeqCst` increment by the dispatcher, `SeqCst`
//!   load by helpers — `Release` and `Acquire` are what the job needs, the
//!   rest is for parking, below). Everything the dispatcher wrote before the bump —
//!   the job cell, the rewound `next` counter, the cleared `cancelled`
//!   flag, the armed completion count, and whatever the caller prepared for
//!   the loop body — happens-before a helper's first read after it observes
//!   the new generation. Dispatchers take turns under a lock held for the
//!   whole of `parallel_for` (there is one job cell and one slot 0), so a
//!   second thread dispatching on the same pool queues rather than races.
//! * **Completion count** (`SeqCst` decrement by each helper after its last
//!   use of the job, `SeqCst` load by the dispatcher; again `Release` and
//!   `Acquire` are the part the job needs). Reading zero
//!   therefore happens-after every helper's writes and after its last
//!   dereference of the borrowed loop body; only then does `parallel_for`
//!   return, rewrite the job cell, or let the borrow end. The count is the
//!   pool's completion barrier: it is what publishes a pack's `x` entries
//!   to the next pack.
//! * **Parking** is a two-flag handshake on top of those words, and the
//!   reason the waking stores are `SeqCst`. A thread about to park first
//!   announces itself (`SeqCst` increment of a parked count), then takes the
//!   park lock and re-checks its condition (`SeqCst` load) before every
//!   `wait`. The waking side makes the condition true (`SeqCst`) and then
//!   reads the parked count (`SeqCst`), raising the condvar under the lock
//!   only when it is non-zero. In the single total order of those four
//!   operations either the waker sees the announcement and notifies — the
//!   lock orders that notification after the parker's check, so it is not
//!   lost — or the parker's re-check comes after the waker's store and it
//!   never waits. Under the lock the path is the mutex-and-condvar hand-off
//!   the pool used for every dispatch before; it is kept as it was because
//!   it is only reached when nothing has been asked of the pool for longer
//!   than the poll bound, where its latency is not the bottleneck.
//!
//! # Panic safety
//!
//! A loop body that panics must not take the pool down with it. The hazard is
//! structural: `parallel_for` does not return until every helper has
//! decremented the completion count, and a panic that unwound through a
//! helper's dispatch path would skip that decrement, leaving the caller (and
//! every later caller) waiting forever; a panic that unwound through the
//! *caller's* slot would return from `parallel_for` while helpers still
//! hold the borrowed body.
//!
//! The correctness argument for the recovery path:
//!
//! 1. Every execution of the borrowed loop body — slot 0 on the calling
//!    thread and every helper slot alike — goes through the one `run_slot`
//!    function and runs inside its `catch_unwind(AssertUnwindSafe(..))`.
//!    `AssertUnwindSafe` is justified because a dispatch that observed a
//!    panic always returns [`PoolError::WorkerPanicked`], so the caller is
//!    told its shared state may be torn and must not trust buffers written
//!    by this dispatch.
//! 2. After catching, `run_slot` records the *first* panic payload (slot,
//!    in-flight index, stringified message) under the record's lock and
//!    raises the per-dispatch `cancelled` flag, and returns normally. A
//!    helper **then** performs the same completion-count decrement as the
//!    success path, so the decrement is unconditional and the completion
//!    wait always ends; the caller, whose slot has no count to decrement,
//!    goes on to that wait exactly as after a successful share — a panic on
//!    slot 0 never returns early.
//! 3. `cancelled` is checked by every schedule before each claimed index, so
//!    surviving slots drain the remaining iteration space in bounded time
//!    (at most one loop body each) instead of computing garbage against torn
//!    state.
//! 4. `parallel_for` takes the recorded payload after the completion wait,
//!    returning `Err(WorkerPanicked)` — with `slot: 0` when the body
//!    panicked on the calling thread. Because the record is *taken* and
//!    `cancelled` is re-armed at the next dispatch, the pool itself stays
//!    healthy: the panicking generation is fully quiesced before
//!    `parallel_for` returns, and subsequent dispatches run normally.

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::affinity;
use crate::spin::SpinWait;

/// Loop schedule for [`WorkerPool::parallel_for`], mirroring OpenMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Each worker takes one contiguous block of `len / threads` iterations.
    Static,
    /// Workers repeatedly claim `chunk` iterations from a shared counter
    /// (OpenMP `schedule(dynamic, chunk)`).
    Dynamic {
        /// Iterations claimed per request (≥ 1).
        chunk: usize,
    },
    /// Workers claim exponentially decreasing chunks, never smaller than
    /// `min_chunk` (OpenMP `schedule(guided, min_chunk)`).
    Guided {
        /// Smallest chunk a worker may claim (≥ 1).
        min_chunk: usize,
    },
}

/// Structured failure of a [`WorkerPool::parallel_for`] dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A worker's loop body panicked. The dispatch still completed its
    /// barrier (no iteration is left running), but output buffers written by
    /// the loop body must be considered torn.
    WorkerPanicked {
        /// Pool slot whose body panicked; slot 0 is the thread that called
        /// [`WorkerPool::parallel_for`].
        slot: usize,
        /// Loop index in flight when the panic fired. For the per-pack and
        /// per-chunk dispatches of the solvers this is the pack / task index.
        pack: usize,
        /// The panic payload, stringified when it was a `&str` or `String`.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked {
                slot,
                pack,
                message,
            } => write!(
                f,
                "worker {slot} panicked while executing loop index {pack}: {message}"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// Stringifies a caught panic payload into the `message` of a
/// `WorkerPanicked` error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A type-erased borrow of the loop body, valid only while its generation is
/// in flight. `parallel_for` does not return until every helper has finished
/// with it, which is what makes storing the raw pointer sound.
#[derive(Clone, Copy)]
struct Job {
    func: *const (dyn Fn(usize) + Sync),
    len: usize,
    schedule: Schedule,
}

/// What the job cell holds before the first dispatch.
const NO_JOB: &(dyn Fn(usize) + Sync) = &|_| {};

/// The cell a dispatcher publishes its [`Job`] through; the generation word
/// and the completion count of [`Shared`] order every access to it.
struct JobCell(UnsafeCell<Job>);

// SAFETY: the cell is written only by the thread holding the dispatch lock,
// and only while no helper is between observing a generation and decrementing
// the completion count (the previous dispatch read that count as zero, with
// at least `Acquire`, before it released the lock). Helpers read it only
// inside that window, after an `Acquire` load of the generation the write
// preceded. The `func` pointer is dereferenced only inside the same window,
// and `parallel_for` keeps its referent alive (and does not return) until
// the completion count, read with at least `Acquire`, is zero — so the
// borrow cannot escape the call that lent it. The referent is `Sync`, so
// sharing it across the helpers is what its type already allows.
unsafe impl Send for JobCell {}
// SAFETY: as above — the generation word and the completion count make every
// write of the cell happen-before every read of it, and vice versa.
unsafe impl Sync for JobCell {}

/// How long a waiter polls before it parks. Long enough to cover the gap
/// between the dispatches of one sweep pair or one PCG iteration on a
/// cache-resident operand, short enough that an idle pool is asleep before
/// anyone could measure what it burns.
const POLL: Duration = Duration::from_micros(100);

/// Polls `ready` until it holds (`true`) or it has been yielding for [`POLL`]
/// (`false`), relaxing between looks the way every wait here does
/// (`SpinWait`).
fn poll(ready: impl Fn() -> bool) -> bool {
    let mut wait = SpinWait::new();
    let mut yielding_since = None;
    loop {
        if ready() {
            return true;
        }
        let polled_out = || {
            let now = Instant::now();
            now.duration_since(*yielding_since.get_or_insert(now)) >= POLL
        };
        if wait.relax(polled_out) {
            return false;
        }
    }
}

/// Where one side of the hand-off sleeps once polling has not paid off: the
/// helpers between dispatches, the dispatcher behind a long loop body. See
/// the module docs ("Parking") for why a wake-up cannot be lost.
struct ParkSpot {
    /// Threads parked here, or about to be. The waking side reads it to
    /// decide whether anybody needs the condvar raised at all.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ParkSpot {
    fn new() -> Self {
        ParkSpot {
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Returns once `ready` holds, polling first and parking after [`POLL`].
    /// `ready` must load its condition with `SeqCst`: the re-check under the
    /// lock is one of the four operations of the parking handshake.
    fn wait(&self, ready: impl Fn() -> bool) {
        if poll(&ready) {
            return;
        }
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock();
        while !ready() {
            self.cv.wait(&mut guard);
        }
        drop(guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes whoever is parked here. Call it after the `SeqCst` write that
    /// made their condition true.
    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock();
            self.cv.notify_all();
        }
    }
}

/// Bit 0 of the generation word: the pool is being dropped. Dispatches
/// advance the word by 2, so the bit survives wrap-around.
const SHUTDOWN: usize = 1;

struct Shared {
    /// The generation word helpers poll: advanced by every dispatch after
    /// the job is in place, [`SHUTDOWN`] raised by `Drop`.
    generation: AtomicUsize,
    job: JobCell,
    /// Helpers that have not finished the in-flight generation yet: the
    /// completion count the dispatcher waits on.
    pending: AtomicUsize,
    next: AtomicUsize,
    /// Raised when a slot panics so the surviving slots stop claiming
    /// iterations; re-armed (cleared) at every dispatch.
    cancelled: AtomicBool,
    /// First panic observed in the in-flight generation: (slot, index, msg).
    panic: Mutex<Option<(usize, usize, String)>>,
    /// Held for the length of a dispatch: the pool has one job cell and one
    /// slot 0, so a second thread dispatching on the same pool queues here.
    dispatch: Mutex<()>,
    /// Where helpers sleep between dispatches.
    idle: ParkSpot,
    /// Where the dispatcher sleeps behind a long loop body.
    done: ParkSpot,
}

/// A persistent team executing parallel loops: the calling thread plus
/// `threads − 1` helper threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool of `threads` unpinned slots.
    pub fn new(threads: usize) -> Self {
        Self::with_pinning(threads, &[])
    }

    /// Creates a pool of `threads` slots: the thread that calls
    /// [`WorkerPool::parallel_for`] as slot 0 and `threads − 1` spawned
    /// helpers, helper `i` pinned to `core_order[i]` when that entry exists
    /// (e.g. `0..threads`, the compact order).
    /// `core_order[0]` names the core of slot 0 and is **not applied**: the
    /// pool does not own the calling thread and leaves its affinity to
    /// whoever does. A caller that wants the compact placement for the
    /// whole team pins itself to `core_order[0]`
    /// ([`affinity::pin_current_thread`]), before or after building the
    /// pool: a helper spawned by a pinned caller inherits its one-core mask,
    /// and its own pin replaces that mask with its core. A caller that does
    /// not pin itself is placed by the scheduler, and where it happens to
    /// sit on a helper's core the two share that core until the scheduler
    /// moves the caller — Linux does not move a running thread out of the
    /// way of a pinned one that wakes beside it, and a caller woken by a
    /// helper tends to land next to it.
    pub fn with_pinning(threads: usize, core_order: &[usize]) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            generation: AtomicUsize::new(0),
            job: JobCell(UnsafeCell::new(Job {
                func: NO_JOB,
                len: 0,
                schedule: Schedule::Static,
            })),
            pending: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
            dispatch: Mutex::new(()),
            idle: ParkSpot::new(),
            done: ParkSpot::new(),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for slot in 1..threads {
            let shared = Arc::clone(&shared);
            let pin_core = core_order.get(slot).copied();
            // Spawn failure is a resource-exhaustion condition at pool
            // construction, before any solve is in flight; aborting is the
            // only sane response.
            #[allow(clippy::expect_used)]
            let handle = std::thread::Builder::new()
                .name(format!("sts-worker-{slot}"))
                .spawn(move || {
                    if let Some(core) = pin_core {
                        let _ = affinity::pin_current_thread(core);
                    }
                    helper_loop(&shared, slot, threads);
                })
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of slots: the calling thread plus the helpers.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..len` across the slots using the given
    /// schedule, returning once every iteration has completed. The calling
    /// thread is slot 0 and runs its share of the loop like any helper; with
    /// one slot that is the whole loop.
    ///
    /// A loop body must not dispatch on the pool it is running on: the pool
    /// serves one loop at a time (concurrent callers queue), so a nested
    /// dispatch waits for itself.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::WorkerPanicked`] when any execution of `f`
    /// panicked — on a helper or on the calling thread (`slot: 0`). The call
    /// still waits until every helper has quiesced (the remaining slots stop
    /// claiming indices once the panic is observed), so the borrow of `f`
    /// never escapes and the pool remains usable for subsequent dispatches.
    /// Buffers written by `f` must be treated as torn.
    pub fn parallel_for(
        &self,
        len: usize,
        schedule: Schedule,
        f: &(dyn Fn(usize) + Sync),
    ) -> Result<(), PoolError> {
        if len == 0 {
            return Ok(());
        }
        let shared = &*self.shared;
        let _dispatch = shared.dispatch.lock();
        // SAFETY: this only erases the lifetime of `f`; the pointer is
        // dereferenced exclusively while this call keeps `f` alive (we do
        // not return until the completion count, read with at least
        // `Acquire`, says every helper has finished the generation).
        let func: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        };
        let job = Job {
            func,
            len,
            schedule,
        };
        // SAFETY: no helper is reading the cell — see `JobCell`: the
        // previous holder of the dispatch lock saw the completion count at
        // zero before releasing it, and helpers read the cell only between
        // a generation bump and their decrement.
        unsafe { *shared.job.0.get() = job };
        // Relaxed (three stores): none of these is read by a helper before
        // it has observed the generation bump below, which publishes them.
        shared.next.store(0, Ordering::Relaxed);
        shared.cancelled.store(false, Ordering::Relaxed);
        shared.pending.store(self.handles.len(), Ordering::Relaxed);
        shared.generation.fetch_add(2, Ordering::SeqCst);
        shared.idle.wake();
        run_slot(shared, &job, 0, self.threads);
        shared
            .done
            .wait(|| shared.pending.load(Ordering::SeqCst) == 0);
        // Relaxed: the flag's last store, if any, was made by this thread or
        // by a helper before the decrement the wait above acquired.
        if !shared.cancelled.load(Ordering::Relaxed) {
            return Ok(());
        }
        match shared.panic.lock().take() {
            None => Ok(()),
            Some((slot, pack, message)) => Err(PoolError::WorkerPanicked {
                slot,
                pack,
                message,
            }),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.generation.fetch_or(SHUTDOWN, Ordering::SeqCst);
        self.shared.idle.wake();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn helper_loop(shared: &Shared, slot: usize, threads: usize) {
    let mut last = 0usize;
    loop {
        shared
            .idle
            .wait(|| shared.generation.load(Ordering::SeqCst) != last);
        let generation = shared.generation.load(Ordering::Acquire);
        if generation & SHUTDOWN != 0 {
            return;
        }
        last = generation;
        // SAFETY: the dispatcher wrote the cell before the generation bump
        // this thread just acquired, and will not write it again until this
        // thread's decrement below — see `JobCell`.
        let job = unsafe { *shared.job.0.get() };
        run_slot(shared, &job, slot, threads);
        // Unconditional — `run_slot` has already absorbed a panicking body:
        // this is the decrement whose absence would leave the dispatcher
        // waiting forever. It is this thread's last use of the job.
        if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            shared.done.wake();
        }
    }
}

/// Runs `slot`'s share of `job` — the one place a loop body is executed, on
/// the calling thread and on helpers alike, and so the one `catch_unwind` and
/// the one place a panic is recorded.
fn run_slot(shared: &Shared, job: &Job, slot: usize, threads: usize) {
    // SAFETY: see `JobCell` — the referent outlives this use because
    // `parallel_for` does not return before this slot is done: slot 0 is
    // `parallel_for` itself, and a helper's decrement comes after this call.
    let f = unsafe { &*job.func };
    let current = Cell::new(0usize);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_chunks(shared, f, job, slot, threads, &current);
    }));
    if let Err(payload) = result {
        let mut first = shared.panic.lock();
        if first.is_none() {
            *first = Some((slot, current.get(), panic_message(payload.as_ref())));
        }
        drop(first);
        // Stop the other slots promptly. Relaxed: the flag publishes nothing
        // (a slot that misses it runs one more body), and the dispatcher
        // reads it behind the completion count.
        shared.cancelled.store(true, Ordering::Relaxed);
    }
}

fn run_chunks(
    shared: &Shared,
    f: &(dyn Fn(usize) + Sync),
    job: &Job,
    slot: usize,
    threads: usize,
    current: &Cell<usize>,
) {
    let (len, next, cancelled) = (job.len, &shared.next, &shared.cancelled);
    match job.schedule {
        Schedule::Static => {
            let start = slot * len / threads;
            let end = (slot + 1) * len / threads;
            for i in start..end {
                if cancelled.load(Ordering::Relaxed) {
                    return;
                }
                current.set(i);
                f(i);
            }
        }
        Schedule::Dynamic { chunk } => {
            let chunk = chunk.max(1);
            loop {
                if cancelled.load(Ordering::Relaxed) {
                    return;
                }
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                for i in start..(start + chunk).min(len) {
                    if cancelled.load(Ordering::Relaxed) {
                        return;
                    }
                    current.set(i);
                    f(i);
                }
            }
        }
        Schedule::Guided { min_chunk } => {
            let min_chunk = min_chunk.max(1);
            loop {
                if cancelled.load(Ordering::Relaxed) {
                    return;
                }
                let observed = next.load(Ordering::Relaxed);
                if observed >= len {
                    break;
                }
                let remaining = len - observed;
                let chunk = (remaining / (2 * threads)).max(min_chunk);
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                for i in start..(start + chunk).min(len) {
                    if cancelled.load(Ordering::Relaxed) {
                        return;
                    }
                    current.set(i);
                    f(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// One dispatch over `visited.len()` indices, each of which must be
    /// visited exactly once.
    fn dispatch_and_check(pool: &WorkerPool, visited: &[AtomicUsize], schedule: Schedule) {
        for v in visited {
            v.store(0, Ordering::SeqCst);
        }
        pool.parallel_for(visited.len(), schedule, &|i| {
            visited[i].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        for (i, v) in visited.iter().enumerate() {
            assert_eq!(v.load(Ordering::SeqCst), 1, "index {i} under {schedule:?}");
        }
    }

    fn check_every_index_once(threads: usize, len: usize, schedule: Schedule) {
        let visited: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        dispatch_and_check(&WorkerPool::new(threads), &visited, schedule);
    }

    #[test]
    fn static_schedule_visits_every_index_exactly_once() {
        check_every_index_once(4, 1003, Schedule::Static);
    }

    #[test]
    fn dynamic_schedule_visits_every_index_exactly_once() {
        check_every_index_once(4, 997, Schedule::Dynamic { chunk: 32 });
        check_every_index_once(3, 10, Schedule::Dynamic { chunk: 1 });
    }

    #[test]
    fn guided_schedule_visits_every_index_exactly_once() {
        check_every_index_once(4, 1024, Schedule::Guided { min_chunk: 1 });
        check_every_index_once(2, 5, Schedule::Guided { min_chunk: 4 });
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        check_every_index_once(1, 100, Schedule::Dynamic { chunk: 8 });
    }

    const ALL_SCHEDULES: [Schedule; 3] = [
        Schedule::Static,
        Schedule::Dynamic { chunk: 3 },
        Schedule::Guided { min_chunk: 1 },
    ];

    #[test]
    fn the_caller_is_slot_zero_and_one_thread_fewer_is_spawned() {
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.num_threads(), threads);
            assert_eq!(pool.handles.len(), threads - 1);
            // One index per slot under the static schedule: index `i` runs
            // on slot `i`, whatever the timing.
            let ran_on: Vec<parking_lot::Mutex<Option<std::thread::ThreadId>>> = (0..threads)
                .map(|_| parking_lot::Mutex::new(None))
                .collect();
            pool.parallel_for(threads, Schedule::Static, &|i| {
                *ran_on[i].lock() = Some(std::thread::current().id());
            })
            .unwrap();
            let ids: Vec<_> = ran_on.iter().map(|m| m.lock().unwrap()).collect();
            assert_eq!(ids[0], std::thread::current().id());
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(
                    ids.iter().filter(|other| *other == id).count(),
                    1,
                    "slot {i} shares a thread with another slot"
                );
            }
        }
    }

    #[test]
    fn a_dispatch_wakes_parked_helpers() {
        let threads = 4;
        let pool = WorkerPool::new(threads);
        let visited: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        for schedule in ALL_SCHEDULES {
            // The idle gap: wait until every helper has given up polling and
            // announced that it is parking, so this dispatch has to go
            // through the condvar.
            while pool.shared.idle.parked.load(Ordering::SeqCst) < threads - 1 {
                std::thread::yield_now();
            }
            dispatch_and_check(&pool, &visited, schedule);
        }
    }

    #[test]
    fn a_back_to_back_storm_loses_no_dispatch() {
        // Helpers are still polling when the next generation is published;
        // every generation must be seen exactly once by every helper.
        let pool = WorkerPool::new(3);
        let visited: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        let rounds = if cfg!(miri) { 30 } else { 10_000 };
        for round in 0..rounds {
            dispatch_and_check(&pool, &visited, ALL_SCHEDULES[round % 3]);
        }
    }

    #[test]
    fn a_dropped_pool_with_a_polling_helper_joins() {
        let started = std::time::Instant::now();
        let rounds = if cfg!(miri) { 3 } else { 200 };
        for _ in 0..rounds {
            let pool = WorkerPool::new(3);
            // The helpers have just finished a generation and are polling
            // for the next one when the pool goes away.
            pool.parallel_for(3, Schedule::Static, &|_| {}).unwrap();
            drop(pool);
        }
        // Each drop is at most a poll bound away from its helpers' exit; a
        // helper that missed the shutdown would hang the join instead.
        assert!(started.elapsed() < std::time::Duration::from_secs(20));
    }

    #[test]
    fn a_panic_on_the_callers_slot_is_reported_and_survived() {
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let finished = AtomicUsize::new(0);
            let err = pool
                .parallel_for(threads, Schedule::Static, &|i| {
                    if i == 0 {
                        panic!("slot zero fault");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap_err();
            assert_eq!(
                err,
                PoolError::WorkerPanicked {
                    slot: 0,
                    pack: 0,
                    message: "slot zero fault".to_string(),
                }
            );
            // Every helper had quiesced by the time the error came back: no
            // body is still running, whether it ran or was cancelled.
            let after = finished.load(Ordering::SeqCst);
            assert!(after < threads);
            let count = AtomicUsize::new(0);
            pool.parallel_for(5 * threads, Schedule::Dynamic { chunk: 1 }, &|_| {
                count.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 5 * threads);
            assert_eq!(finished.load(Ordering::SeqCst), after);
        }
    }

    #[test]
    fn concurrent_dispatchers_queue_instead_of_sharing_the_job_cell() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        let rounds = if cfg!(miri) { 5 } else { 200 };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..rounds {
                        pool.parallel_for(10, Schedule::Dynamic { chunk: 1 }, &|_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 2 * rounds * 10);
    }

    #[test]
    fn empty_range_is_a_noop() {
        let pool = WorkerPool::new(3);
        let called = AtomicBool::new(false);
        pool.parallel_for(0, Schedule::Static, &|_| {
            called.store(true, Ordering::SeqCst);
        })
        .unwrap();
        assert!(!called.load(Ordering::SeqCst));
    }

    #[test]
    fn pool_is_reusable_across_many_loops() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        // Fewer dispatch rounds under Miri: each one is a full cross-thread
        // handshake through the interpreter.
        let rounds = if cfg!(miri) { 8 } else { 50 };
        for round in 0..rounds {
            pool.parallel_for(round + 1, Schedule::Guided { min_chunk: 1 }, &|i| {
                total.fetch_add(i + 1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Sum over rounds of (1 + 2 + ... + (round+1)).
        let expected: usize = (1..=rounds).map(|r| r * (r + 1) / 2).sum();
        assert_eq!(total.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn results_are_deterministic_for_commutative_reductions() {
        let pool = WorkerPool::new(4);
        let sum = AtomicUsize::new(0);
        let n = if cfg!(miri) { 500 } else { 10_000 };
        pool.parallel_for(n, Schedule::Dynamic { chunk: 64 }, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::SeqCst), n * (n - 1) / 2);
    }

    #[test]
    fn loop_body_can_borrow_caller_data_mutably_through_cells() {
        // The common solver pattern: each index writes a distinct slot of a
        // shared output vector.
        let pool = WorkerPool::new(4);
        let n = 512;
        let out: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, Schedule::Static, &|i| {
            out[i].store(i * i, Ordering::Relaxed);
        })
        .unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), i * i);
        }
    }

    #[test]
    fn with_pinning_accepts_core_lists_longer_than_host() {
        let pool = WorkerPool::with_pinning(2, &[0, 4096]);
        let count = AtomicUsize::new(0);
        pool.parallel_for(10, Schedule::Static, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panicking_body_returns_structured_error_instead_of_hanging() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let err = pool
                .parallel_for(64, Schedule::Dynamic { chunk: 1 }, &|i| {
                    if i == 17 {
                        panic!("injected fault at index 17");
                    }
                })
                .unwrap_err();
            match err {
                PoolError::WorkerPanicked {
                    slot,
                    pack,
                    message,
                } => {
                    assert!(slot < threads, "slot {slot} out of range");
                    assert_eq!(pack, 17);
                    assert!(message.contains("injected fault"), "message: {message}");
                }
            }
        }
    }

    #[test]
    fn pool_survives_a_panic_and_runs_the_next_dispatch() {
        let pool = WorkerPool::new(4);
        assert!(pool
            .parallel_for(32, Schedule::Static, &|_| panic!("boom"))
            .is_err());
        let count = AtomicUsize::new(0);
        pool.parallel_for(100, Schedule::Guided { min_chunk: 1 }, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn only_the_first_panic_payload_is_reported() {
        let pool = WorkerPool::new(4);
        let err = pool
            .parallel_for(4, Schedule::Static, &|i| panic!("fault in index {i}"))
            .unwrap_err();
        let PoolError::WorkerPanicked { message, .. } = err;
        assert!(message.starts_with("fault in index"), "message: {message}");
    }
}
