//! A placeholder kept only because the repository benchmark (`benchmark/`)
//! names it: `NumaTopology::uma(threads)` is the argument of
//! `sts_core::SimulatedExecutor::new`, which counts bytes and models no
//! machine. Nothing in the library reads it.

/// Describes no machine; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaTopology;

impl NumaTopology {
    /// The shim's one constructor; `cores` is ignored.
    pub fn uma(_cores: usize) -> Self {
        NumaTopology
    }
}
