//! The structure/factor cache keyed on a sparsity-pattern hash.
//!
//! The expensive artifacts of a solve — the STS analysis (`StsStructure`,
//! ordering, split layouts) and the IC(0) factor — depend only on the
//! sparsity pattern and the numeric values respectively, and both are fully
//! reusable. The cache amortizes them across requests:
//!
//! * `submit_pattern` runs the analysis **once** per distinct pattern. The
//!   orderings (coloring, level sets, RCM, DAR) are purely structural, so
//!   the analysis runs on synthetic M-matrix values and the resulting
//!   hierarchy is identical to what the real values would produce.
//! * `submit_values` re-permutes the caller's values onto the cached
//!   hierarchy (`O(nnz)`, no analysis) and climbs the recovery ladder once
//!   to factor the preconditioner.
//! * `solve` is then a pure warm path: gather, iterate, scatter.
//!
//! Eviction is LRU on pattern entries, bounded by a configurable capacity.

use std::sync::Arc;

use sts_core::{Method, PrecisionPolicy, StsStructure};
use sts_krylov::{LadderPreconditioner, RecoveryReport, SpdSystem};

/// A 64-bit FNV-1a hash over the pattern identity: dimension, CSR arrays,
/// method, and super-row coarsening. Two submissions with the same pattern
/// and analysis knobs collide onto one cache entry by construction.
pub fn pattern_key(
    n: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    method: Method,
    rows_per_super_row: usize,
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(n as u64);
    eat(method.label().len() as u64);
    for b in method.label().bytes() {
        eat(b as u64);
    }
    eat(rows_per_super_row as u64);
    eat(row_ptr.len() as u64);
    for &x in row_ptr {
        eat(x as u64);
    }
    eat(col_idx.len() as u64);
    for &x in col_idx {
        eat(x as u64);
    }
    h
}

/// Renders a pattern key as the 16-hex-digit wire string.
pub fn key_to_wire(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses a wire pattern string back to the key: exactly 16 ASCII hex
/// digits, nothing else (`from_str_radix` alone also takes a leading `+`).
pub fn key_from_wire(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The values-dependent half of a cache entry: the permuted operator bound
/// to the shared structure, plus the factored preconditioner and the ladder
/// report of its setup.
#[derive(Debug)]
pub struct FactorEntry {
    /// The operator rebound to the cached hierarchy (no analysis).
    pub system: SpdSystem,
    /// The preconditioner the setup ladder came to rest on.
    pub preconditioner: LadderPreconditioner,
    /// How setup degraded (empty-report fast path on clean operands).
    pub recovery: RecoveryReport,
    /// Wall time of the value rebind + factorization, nanoseconds.
    pub factor_wall_ns: u64,
    /// The value-slab precision `submit_values` requested — the default a
    /// solve without its own `"precision"` field runs at.
    pub precision: PrecisionPolicy,
}

/// One cached pattern: the analysis artifacts plus (after `submit_values`)
/// the factor.
#[derive(Debug)]
pub struct PatternEntry {
    /// The pattern key.
    pub key: u64,
    /// Analysis method.
    pub method: Method,
    /// Super-row coarsening the analysis ran with.
    pub rows_per_super_row: usize,
    /// CSR row pointers of the submitted full symmetric pattern.
    pub row_ptr: Vec<usize>,
    /// CSR column indices of the submitted full symmetric pattern.
    pub col_idx: Vec<usize>,
    /// The pattern-only analysis: ordering, hierarchy, split layouts. Shared
    /// (`Arc`) with every system derived from it.
    pub structure: Arc<StsStructure>,
    /// Wall time the analysis cost when this entry was built, nanoseconds.
    pub analysis_wall_ns: u64,
    /// The values-dependent half; `None` until `submit_values`.
    pub factor: Option<FactorEntry>,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// Monotonically increasing counters the `stats` op reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups that found a cached entry.
    pub hits: u64,
    /// Lookups (or idempotent re-submissions) that missed.
    pub misses: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
}

/// The LRU pattern cache.
#[derive(Debug)]
pub struct StructureCache {
    entries: Vec<PatternEntry>,
    capacity: usize,
    clock: u64,
    stats: CacheStats,
}

impl StructureCache {
    /// An empty cache holding at most `capacity` patterns (min 1).
    pub fn new(capacity: usize) -> Self {
        StructureCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of patterns currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of cached entries whose factor half is present.
    pub fn factors_cached(&self) -> usize {
        self.entries.iter().filter(|e| e.factor.is_some()).count()
    }

    /// Whether some cached pattern has order `n`.
    pub fn holds_order(&self, n: usize) -> bool {
        self.entries.iter().any(|e| e.structure.n() == n)
    }

    /// The hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, counting a hit or miss and refreshing LRU recency on
    /// hit.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut PatternEntry> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(entry) => {
                self.stats.hits += 1;
                entry.last_used = clock;
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching recency or counters (idempotency
    /// probe for `submit_pattern`).
    pub fn peek(&self, key: u64) -> Option<&PatternEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Inserts a freshly analyzed pattern, evicting the least-recently-used
    /// entry if the cache is full. Returns a mutable borrow of the inserted
    /// entry.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        key: u64,
        method: Method,
        rows_per_super_row: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        structure: Arc<StsStructure>,
        analysis_wall_ns: u64,
    ) -> &mut PatternEntry {
        while self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(lru);
                self.stats.evictions += 1;
            }
        }
        self.clock += 1;
        self.entries.push(PatternEntry {
            key,
            method,
            rows_per_super_row,
            row_ptr,
            col_idx,
            structure,
            analysis_wall_ns,
            factor: None,
            last_used: self.clock,
        });
        // Just pushed: the entry exists. Indexing (not unwrap) keeps the
        // clippy::unwrap_used deny intact.
        let last = self.entries.len() - 1;
        &mut self.entries[last]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_patterns_methods_and_coarsening() {
        let rp = [0usize, 2, 4];
        let ci = [0usize, 1, 0, 1];
        let k = pattern_key(2, &rp, &ci, Method::Sts3, 8);
        assert_eq!(k, pattern_key(2, &rp, &ci, Method::Sts3, 8));
        assert_ne!(k, pattern_key(2, &rp, &ci, Method::CsrLs, 8));
        assert_ne!(k, pattern_key(2, &rp, &ci, Method::Sts3, 4));
        let ci2 = [0usize, 1, 1, 1];
        assert_ne!(k, pattern_key(2, &rp, &ci2, Method::Sts3, 8));
        // Wire round-trip.
        assert_eq!(key_from_wire(&key_to_wire(k)), Some(k));
        assert_eq!(key_from_wire("zzz"), None);
    }

    #[test]
    fn wire_keys_are_exactly_sixteen_hex_digits() {
        for key in [0, 1, 0x0fff_ffff_ffff_ffff, 0xdead_beef_0123_4567, u64::MAX] {
            let wire = key_to_wire(key);
            assert_eq!(wire.len(), 16);
            assert_eq!(key_from_wire(&wire), Some(key), "{wire}");
        }
        assert_eq!(
            key_from_wire("DEADBEEF01234567"),
            Some(0xdead_beef_0123_4567)
        );
        for refused in [
            "+fffffffffffffff",  // a sign, 15 digits
            "-fffffffffffffff",  // the other sign
            "fffffffffffffff",   // 15 digits
            "0ffffffffffffffff", // 17 digits
            "0xffffffffffffff",  // a radix prefix, 14 digits
            "0x0fffffffffffffff",
            " fffffffffffffff",
            "ffffffffffffff\u{e9}", // 16 bytes, not 16 digits
            "",
        ] {
            assert_eq!(key_from_wire(refused), None, "{refused:?}");
        }
    }
}
