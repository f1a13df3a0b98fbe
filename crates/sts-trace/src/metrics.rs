//! Monotonic counters and fixed-bucket log-scale histograms, mergeable
//! across threads, with a Prometheus-style text exposition.
//!
//! The registry's lookup path takes a `std::sync::Mutex` — registration and
//! rendering are cold paths (once per metric / once per `metrics` request).
//! The *observation* path is lock-free: callers hold `Arc`s to the
//! [`Counter`]/[`Histogram`] and every update is a relaxed atomic add, so
//! feeding metrics from solver workers never serializes them.
//!
//! Histogram buckets are powers of two ([`HISTOGRAM_BUCKETS`] of them):
//! bucket `i ≥ 1` holds values whose bit length is `i` (i.e. `2^(i-1) ..=
//! 2^i - 1`), bucket 0 holds zero. Log-scale is the right shape for the
//! quantities the stack observes — latencies spanning ns..s and iteration
//! counts — and fixed buckets keep `observe` allocation-free and
//! mergeable by plain element-wise addition.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The fixed bucket count of every [`Histogram`] (one per possible u64 bit
/// length, plus the zero bucket folded into index 0).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonic counter. Updates are relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ histogram of `u64` observations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket a value lands in: 0 for 0, otherwise the value's bit length
/// (capped at the last bucket).
fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i` (`None` for the unbounded last
/// bucket).
fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 == HISTOGRAM_BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free, allocation-free.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (wrapping at u64, like the adds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The raw per-bucket counts, lowest bucket first.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Fold another histogram's counts into this one (element-wise adds —
    /// the fixed buckets make per-thread histograms mergeable).
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..HISTOGRAM_BUCKETS {
            let v = other.buckets[i].load(Ordering::Relaxed);
            if v != 0 {
                self.buckets[i].fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// The system allocator plus a count of the allocations it served (every
/// `alloc`, and the `alloc_zeroed` and `realloc` that `GlobalAlloc`'s
/// default methods build on it), and of the bytes it holds: live bytes
/// (each `alloc` adds its size, each `dealloc` subtracts it) and their peak.
/// A binary installs it with `#[global_allocator]` to show that a hot path
/// allocates nothing, or how much heap a step needs at its peak; every
/// update is a relaxed atomic operation, like a [`Counter`].
#[derive(Debug, Default)]
pub struct CountingAllocator {
    allocations: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAllocator {
    /// An allocator that has counted nothing yet.
    pub const fn new() -> Self {
        CountingAllocator {
            allocations: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Allocations served so far.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The most [`CountingAllocator::live_bytes`] has been since the
    /// allocator started or since the last
    /// [`CountingAllocator::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the peak from the bytes live now, so that
    /// [`CountingAllocator::peak_bytes`] measures what follows.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    fn count(&self, size: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: `alloc` and `dealloc` forward their arguments unchanged to the
// system allocator and return its result, so `System`'s guarantees carry
// over (the default methods are built on these two); the counts touch only
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller's contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.count(layout.size());
        }
        ptr
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
    // method, which the body forwards to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A named collection of counters and histograms.
///
/// Handing out `Arc`s keeps the observation path lock-free; the mutex
/// guards only registration and rendering. Names should follow Prometheus
/// conventions (`[a-zA-Z_][a-zA-Z0-9_]*`) — the registry does not rewrite
/// them.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

/// Locks a poisoned-or-not mutex: metric state is monotonic counters, so a
/// panicking holder cannot leave it inconsistent.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = lock(&self.counters);
        if let Some((_, c)) = counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// The histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = lock(&self.histograms);
        if let Some((_, h)) = histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// A Prometheus text-format exposition of every registered metric,
    /// sorted by name: `# TYPE` lines, counter samples, and cumulative
    /// `_bucket{le=…}` / `_sum` / `_count` samples for histograms (empty
    /// buckets are elided; `le` bounds are the buckets' inclusive
    /// power-of-two upper bounds).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counters: Vec<(String, u64)> = lock(&self.counters)
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        let mut histograms: Vec<(String, [u64; HISTOGRAM_BUCKETS], u64, u64)> =
            lock(&self.histograms)
                .iter()
                .map(|(n, h)| (n.clone(), h.buckets(), h.sum(), h.count()))
                .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, buckets, sum, count) in histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                if let Some(le) = bucket_bound(i) {
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
            out.push_str(&format!("{name}_sum {sum}\n"));
            out.push_str(&format!("{name}_count {count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_counting_allocator_counts_allocations_only() {
        let a = CountingAllocator::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: a non-zero-size layout; every pointer is freed once, with
        // the layout it was allocated (or reallocated) with.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p = a.realloc(p, layout, 128);
            assert!(!p.is_null());
            a.dealloc(p, Layout::from_size_align(128, 8).unwrap());
            let z = a.alloc_zeroed(layout);
            assert!(!z.is_null() && *z == 0);
            a.dealloc(z, layout);
        }
        assert_eq!(a.allocations(), 3);
    }

    #[test]
    fn the_counting_allocator_tracks_live_and_peak_bytes() {
        let a = CountingAllocator::new();
        let small = Layout::from_size_align(64, 8).unwrap();
        let large = Layout::from_size_align(1000, 8).unwrap();
        // SAFETY: non-zero-size layouts; every pointer is freed once, with
        // the layout it was allocated (or reallocated) with.
        unsafe {
            let p = a.alloc(small);
            let q = a.alloc(large);
            assert_eq!((a.live_bytes(), a.peak_bytes()), (1064, 1064));
            a.dealloc(q, large);
            assert_eq!((a.live_bytes(), a.peak_bytes()), (64, 1064));
            a.reset_peak();
            assert_eq!(a.peak_bytes(), 64);
            // The default realloc holds both blocks while it copies.
            let p = a.realloc(p, small, 128);
            assert_eq!((a.live_bytes(), a.peak_bytes()), (128, 192));
            a.dealloc(p, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!((a.live_bytes(), a.peak_bytes()), (0, 192));
        assert_eq!(a.allocations(), 3);
    }

    #[test]
    fn counters_accumulate_and_reregister() {
        let reg = Registry::new();
        let a = reg.counter("requests_total");
        a.inc();
        a.add(4);
        // Same name → same counter.
        assert_eq!(reg.counter("requests_total").get(), 5);
        assert_eq!(reg.counter("other_total").get(), 0);
    }

    #[test]
    fn bucket_index_is_the_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_counts_sum_and_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let b = h.buckets();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[10], 1); // 1000
    }

    #[test]
    fn merge_is_elementwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(5);
        b.observe(5);
        b.observe(100);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 110);
        assert_eq!(a.buckets()[3], 2); // two 5s
    }

    #[test]
    fn prometheus_rendering_is_sorted_cumulative_and_typed() {
        let reg = Registry::new();
        reg.counter("zeta_total").add(2);
        reg.counter("alpha_total").inc();
        let h = reg.histogram("latency_ns");
        h.observe(3);
        h.observe(3);
        h.observe(900);
        let text = reg.render_prometheus();
        let alpha = text.find("alpha_total 1").expect("alpha rendered");
        let zeta = text.find("zeta_total 2").expect("zeta rendered");
        assert!(alpha < zeta, "counters sorted by name");
        assert!(text.contains("# TYPE latency_ns histogram"));
        // 3 lands in le="3" (bit length 2), 900 in le="1023"; cumulative.
        assert!(text.contains("latency_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("latency_ns_bucket{le=\"1023\"} 3"));
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("latency_ns_sum 906"));
        assert!(text.contains("latency_ns_count 3"));
    }

    #[test]
    fn concurrent_observation_is_lossless() {
        let reg = Registry::new();
        let h = reg.histogram("contended");
        let c = reg.counter("contended_total");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe(i);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(c.get(), 4000);
    }
}
