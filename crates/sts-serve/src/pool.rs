//! A checkout pool of [`KrylovWorkspace`]s.
//!
//! Workspaces are the per-solve mutable state (six `n × nrhs` vectors);
//! everything else a solve touches is shared and
//! immutable. The pool keeps finished workspaces around keyed by their
//! `(n, nrhs)` shape so a stream of same-shaped requests allocates exactly
//! once, not per request; the service drops the idle ones of an order no
//! cached pattern has once an eviction leaves none.

use sts_krylov::KrylovWorkspace;

/// Reuse counters the `stats` op reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Checkouts served by a pooled workspace.
    pub reused: u64,
    /// Checkouts that had to allocate a fresh workspace.
    pub created: u64,
}

/// The workspace checkout pool.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Vec<KrylovWorkspace>,
    stats: PoolStats,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Checks out a workspace sized `(n, nrhs)`, reusing a pooled one of the
    /// same shape when available.
    pub fn checkout(&mut self, n: usize, nrhs: usize) -> KrylovWorkspace {
        let nrhs = nrhs.max(1);
        if let Some(i) = self
            .free
            .iter()
            .position(|ws| ws.n() == n && ws.nrhs() == nrhs)
        {
            self.stats.reused += 1;
            self.free.swap_remove(i)
        } else {
            self.stats.created += 1;
            KrylovWorkspace::with_nrhs(n, nrhs)
        }
    }

    /// Returns a workspace to the pool for reuse.
    pub fn checkin(&mut self, ws: KrylovWorkspace) {
        self.free.push(ws);
    }

    /// Drops every idle workspace whose order `n` fails `keep`.
    pub fn retain_orders(&mut self, keep: impl Fn(usize) -> bool) {
        self.free.retain(|ws| keep(ws.n()));
    }

    /// Number of idle workspaces currently pooled.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// The reuse counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_matching_shapes_only() {
        let mut pool = WorkspacePool::new();
        let a = pool.checkout(8, 1);
        pool.checkin(a);
        assert_eq!(pool.idle(), 1);
        // Different shape: allocates, leaving the idle one pooled.
        let b = pool.checkout(8, 4);
        assert_eq!(b.nrhs(), 4);
        assert_eq!(pool.idle(), 1);
        // Matching shape: reuses.
        let c = pool.checkout(8, 1);
        assert_eq!(pool.idle(), 0);
        assert_eq!(c.n(), 8);
        assert_eq!(pool.stats().created, 2);
        assert_eq!(pool.stats().reused, 1);
    }
}
