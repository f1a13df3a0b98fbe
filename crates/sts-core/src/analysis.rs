//! Parallelism, work-distribution and traffic counts of a built structure.
//!
//! These are the quantities plotted in Figures 7 and 8 of the paper: how many
//! packs a method needs, how many solution components each pack computes on
//! average, and which fraction of the total work (nonzeros) is concentrated in
//! the few largest packs — the measure that predicts both latency masking and
//! synchronisation overhead. [`solve_bytes`] counts the compulsory memory
//! traffic of one sweep, the byte side of a roofline bound.

use serde::Serialize;

use crate::csrk::StsStructure;
use crate::options::PrecisionPolicy;

/// Parallelism statistics of one built structure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParallelismStats {
    /// Number of packs (parallel steps).
    pub num_packs: usize,
    /// Mean number of solution components per pack.
    pub mean_components_per_pack: f64,
    /// Number of parallel tasks (super-rows) over all packs.
    pub num_tasks: usize,
    /// Total work (stored nonzeros).
    pub total_work: usize,
    /// Fraction of the total work contained in the 5 largest packs (0..=1).
    pub work_fraction_top5: f64,
}

/// Computes the Figure-7/Figure-8 statistics of a structure.
pub fn parallelism_stats(s: &StsStructure) -> ParallelismStats {
    let num_packs = s.num_packs();
    let components = s.components_per_pack();
    let work = s.work_per_pack();
    let total_work: usize = work.iter().sum();
    ParallelismStats {
        num_packs,
        mean_components_per_pack: if num_packs == 0 {
            0.0
        } else {
            components.iter().sum::<usize>() as f64 / num_packs as f64
        },
        num_tasks: s.num_super_rows(),
        total_work,
        work_fraction_top5: work_fraction_in_top_packs(s, 5),
    }
}

/// Fraction of the total work (stored nonzeros) contained in the `top` largest
/// packs, the quantity of Figure 8.
pub fn work_fraction_in_top_packs(s: &StsStructure, top: usize) -> f64 {
    let mut work = s.work_per_pack();
    let total: usize = work.iter().sum();
    if total == 0 {
        return 0.0;
    }
    work.sort_unstable_by(|a, b| b.cmp(a));
    let top_sum: usize = work.iter().take(top).sum();
    top_sum as f64 / total as f64
}

/// Index of the pack computing the most solution components (ties broken by
/// the earliest pack); `None` for an empty structure.
pub fn largest_pack(s: &StsStructure) -> Option<usize> {
    (0..s.num_packs()).max_by_key(|&p| (s.pack_rows(p).len(), usize::MAX - p))
}

/// The compulsory memory traffic of one forward split sweep under a given
/// [`PrecisionPolicy`]: a count, not a timing.
///
/// The sweeps are bandwidth-bound: each solve streams the slab arrays once
/// (compulsory traffic), so this is exact arithmetic over the layout sizes,
/// not a cache simulation. Counted per solve:
///
/// * **value bytes** — the external + internal value slabs at the policy's
///   storage width, plus the reciprocal diagonal (always `f64`: the
///   storage/accumulation invariant keeps the diagonal scale exact);
/// * **index bytes** — the `u32` column slabs plus the two `usize` row
///   pointers;
/// * **vector bytes** — reading `b` and writing `x` once each (`f64`).
///   Gather *reads* of `x` are reuse-dependent and are not counted.
///
/// Demoting the slabs to `f32` halves the value-slab term and nothing else,
/// so quote [`total_bytes_per_row`](Self::total_bytes_per_row) beside
/// [`value_bytes_per_row`](Self::value_bytes_per_row): on the 200×200
/// Laplacian the values go 23.9 → 16.0 B/row (33 %) while the total goes
/// 64 → 56 (12 %); on the 56³ 27-point grid the total goes 190 → 140 (26 %).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SolveBytesModel {
    /// Rows of the counted structure.
    pub n: usize,
    /// Value-slab traffic (slabs at storage width + `f64` reciprocal
    /// diagonal).
    pub value_bytes: u64,
    /// Index traffic (`u32` columns + `usize` row pointers).
    pub index_bytes: u64,
    /// Right-hand-side read + solution write.
    pub vector_bytes: u64,
}

impl SolveBytesModel {
    /// Total traffic of one sweep.
    pub fn total_bytes(&self) -> u64 {
        self.value_bytes + self.index_bytes + self.vector_bytes
    }

    /// Value-slab traffic per row: the only term the slab precision changes.
    pub fn value_bytes_per_row(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.value_bytes as f64 / self.n as f64
        }
    }

    /// Total traffic per row.
    pub fn total_bytes_per_row(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.n as f64
        }
    }
}

/// Counts the compulsory memory traffic of one forward split sweep of `s`
/// under `precision` (see [`SolveBytesModel`] for what is counted). Forces
/// the lazy split layout; pure arithmetic otherwise.
pub fn solve_bytes(s: &StsStructure, precision: PrecisionPolicy) -> SolveBytesModel {
    let split = s.split();
    let n = split.n() as u64;
    let slab_nnz = (split.ext_nnz() + split.int_nnz()) as u64;
    let usize_bytes = std::mem::size_of::<usize>() as u64;
    SolveBytesModel {
        n: split.n(),
        value_bytes: slab_nnz * precision.value_bytes() as u64 + n * 8,
        index_bytes: slab_nnz * 4 + 2 * (n + 1) * usize_bytes,
        vector_bytes: 2 * n * 8,
    }
}

/// Kept only because the repository benchmark (`benchmark/`) names it: its
/// one method, [`model_solve_bytes`](Self::model_solve_bytes), is
/// [`solve_bytes`]. It models no machine and times nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatedExecutor;

impl SimulatedExecutor {
    /// The shim; the topology is ignored (see
    /// [`sts_numa::topology::NumaTopology`]).
    pub fn new(_topology: sts_numa::topology::NumaTopology) -> Self {
        SimulatedExecutor
    }

    /// [`solve_bytes`] of `s` under `precision`.
    pub fn model_solve_bytes(
        &self,
        s: &StsStructure,
        precision: PrecisionPolicy,
    ) -> SolveBytesModel {
        solve_bytes(s, precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::generators;

    fn structures() -> (StsStructure, StsStructure) {
        let a = generators::triangulated_grid(20, 20, 11).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        (
            Method::CsrLs.build(&l, 8).unwrap(),
            Method::Sts3.build(&l, 8).unwrap(),
        )
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (ls, sts) = structures();
        for s in [&ls, &sts] {
            let st = parallelism_stats(s);
            assert_eq!(st.num_packs, s.num_packs());
            assert_eq!(st.total_work, s.nnz());
            assert!(
                (st.mean_components_per_pack * st.num_packs as f64 - s.n() as f64).abs() < 1e-9
            );
            assert!(st.work_fraction_top5 > 0.0 && st.work_fraction_top5 <= 1.0);
        }
    }

    #[test]
    fn coloring_concentrates_work_in_few_packs() {
        // Figure 8: the 5 largest coloring packs hold the vast majority of the
        // work; level-set packs hold a small fraction.
        let (ls, sts) = structures();
        let f_ls = work_fraction_in_top_packs(&ls, 5);
        let f_sts = work_fraction_in_top_packs(&sts, 5);
        assert!(
            f_sts > 0.9,
            "STS-3 top-5 packs should hold >90% of work, got {f_sts}"
        );
        assert!(
            f_sts > f_ls,
            "coloring should concentrate more work than level sets"
        );
    }

    #[test]
    fn coloring_has_fewer_packs_with_more_components_each() {
        // Figure 7: the coloring cluster sits at few packs / many components,
        // the level-set cluster at many packs / few components.
        let (ls, sts) = structures();
        let st_ls = parallelism_stats(&ls);
        let st_sts = parallelism_stats(&sts);
        assert!(st_sts.num_packs < st_ls.num_packs);
        assert!(st_sts.mean_components_per_pack > st_ls.mean_components_per_pack);
    }

    #[test]
    fn largest_pack_is_the_biggest_by_components() {
        let (_, sts) = structures();
        let p = largest_pack(&sts).unwrap();
        let sizes = sts.components_per_pack();
        assert_eq!(sizes[p], *sizes.iter().max().unwrap());
    }

    #[test]
    fn top_fraction_with_more_packs_than_exist_is_one() {
        let (_, sts) = structures();
        assert!((work_fraction_in_top_packs(&sts, 10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_structure_stats() {
        let coo = sts_matrix::CooMatrix::new(0, 0);
        let l = sts_matrix::LowerTriangularCsr::from_csr(&coo.to_csr()).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        let st = parallelism_stats(&s);
        assert_eq!(st.num_packs, 0);
        assert_eq!(st.total_work, 0);
        assert_eq!(largest_pack(&s), None);
    }

    #[test]
    fn solve_bytes_on_the_laplacian_are_pinned_at_both_precisions() {
        let a = generators::grid2d_laplacian(200, 200).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 80).unwrap();
        let f64_bytes = solve_bytes(&s, PrecisionPolicy::ValuesF64);
        let f32_bytes = solve_bytes(&s, PrecisionPolicy::ValuesF32WithRefinement);
        // Recorded from the simulator's byte model before it became this free
        // function: the arithmetic moved unchanged.
        let expect = |value_bytes| SolveBytesModel {
            n: 40_000,
            value_bytes,
            index_bytes: 958_416,
            vector_bytes: 640_000,
        };
        assert_eq!(f64_bytes, expect(956_800));
        assert_eq!(f32_bytes, expect(638_400));
        // The doc comment's per-row figures: 23.9 → 16.0 value B/row,
        // 64 → 56 total.
        assert_eq!(format!("{:.1}", f64_bytes.value_bytes_per_row()), "23.9");
        assert_eq!(format!("{:.1}", f32_bytes.value_bytes_per_row()), "16.0");
        assert_eq!(f64_bytes.total_bytes_per_row().round(), 64.0);
        assert_eq!(f32_bytes.total_bytes_per_row().round(), 56.0);
        let shim = SimulatedExecutor::new(sts_numa::topology::NumaTopology::uma(2));
        for (precision, bytes) in [
            (PrecisionPolicy::ValuesF64, &f64_bytes),
            (PrecisionPolicy::ValuesF32WithRefinement, &f32_bytes),
        ] {
            assert_eq!(&shim.model_solve_bytes(&s, precision), bytes);
        }
    }
}
