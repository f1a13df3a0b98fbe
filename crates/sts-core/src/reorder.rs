//! The super-row input sets and the within-pack reordering through the Data
//! Affinity and Reuse graph.
//!
//! [`super_row_inputs`] reads the external inputs of every super-row straight
//! off `L` in its original numbering, given where each row lands (its
//! position) and which super-row each position belongs to: a strictly-lower
//! pair `{i, j}` of `L` makes the super-row of the later position read the
//! earlier position, unless both positions lie in one super-row. The builder
//! derives everything it needs before its final permute from these sets —
//! the super-row predecessors ([`SuperRowInputs::predecessors`]), the coarse
//! graph `G2` and the DAR graphs — so no RCM-ordered copy of `L` or of `G1`
//! is made.
//!
//! Section 3.4: for a pack `P_k`, the DAR graph connects two super-rows when
//! they consume the same solution component from an earlier pack. Reordering
//! the super-rows of the pack with RCM on that graph (equivalently, on the
//! implicit matrix `Âk`) makes the DAR approach a line graph, so that
//! consecutive tasks — which the block/guided schedule places on the same
//! core — share their inputs through that core's cache.

use sts_graph::{rcm, Graph};
use sts_matrix::LowerTriangularCsr;
use sts_sched::dar::{shared_input_adjacency, DarGraph};

/// The external input set of every super-row, as one flat CSR array: the
/// `DX` sets of the paper, restricted to components produced outside the
/// task. Inputs are positions (rows in the new numbering), sorted and
/// deduplicated per super-row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperRowInputs {
    ptr: Vec<usize>,
    inputs: Vec<usize>,
}

impl SuperRowInputs {
    /// Number of super-rows.
    pub fn num_super_rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// The external inputs of super-row `s`, in increasing position order.
    pub fn of(&self, s: usize) -> &[usize] {
        &self.inputs[self.ptr[s]..self.ptr[s + 1]]
    }

    /// The super-rows each super-row depends on: its inputs mapped through
    /// `group_of` (the per-position super-row, as passed to
    /// [`super_row_inputs`]) and deduplicated. Every super-row is a
    /// contiguous run of positions in the builder, so each list comes out
    /// sorted and below its super-row, as
    /// [`Packs::by_level_set`](crate::pack::Packs::by_level_set) and
    /// [`Graph::from_predecessors`] require.
    pub fn predecessors(&self, group_of: &[usize]) -> Vec<Vec<usize>> {
        (0..self.num_super_rows())
            .map(|s| {
                let mut preds: Vec<usize> = self.of(s).iter().map(|&x| group_of[x]).collect();
                preds.dedup();
                debug_assert!(preds.windows(2).all(|w| w[0] < w[1]));
                preds
            })
            .collect()
    }
}

/// Computes the external input set of every super-row in one counting pass
/// over `L`, in its original numbering. Row `i` of `L` lands at position
/// `position[i]`, and position `p` belongs to super-row `group_of[p]`. For
/// each strictly-lower pair `{i, j}`, the super-row of the later of the two
/// positions reads the earlier one, unless both lie in one super-row.
///
/// The builder passes its RCM positions and contiguous super-rows of `r`
/// positions; the paper's worked example passes identity positions and its
/// heavy-edge pairs.
pub fn super_row_inputs(
    l: &LowerTriangularCsr,
    position: &[usize],
    group_of: &[usize],
) -> SuperRowInputs {
    let n = l.n();
    let num_groups = group_of.iter().max().map_or(0, |&g| g + 1);
    // (reader super-row, input position) of the pair {i, j}, if external.
    let external = |i: usize, j: usize| {
        let (a, b) = (position[i], position[j]);
        let (reader, input) = if a > b { (a, b) } else { (b, a) };
        let s = group_of[reader];
        (group_of[input] != s).then_some((s, input))
    };
    let mut ptr = vec![0usize; num_groups + 1];
    for i in 0..n {
        for &j in l.row_off_diag_cols(i) {
            if let Some((s, _)) = external(i, j) {
                ptr[s + 1] += 1;
            }
        }
    }
    for s in 0..num_groups {
        ptr[s + 1] += ptr[s];
    }
    let mut inputs = vec![0usize; ptr[num_groups]];
    let mut next = ptr[..num_groups].to_vec();
    for i in 0..n {
        for &j in l.row_off_diag_cols(i) {
            if let Some((s, x)) = external(i, j) {
                inputs[next[s]] = x;
                next[s] += 1;
            }
        }
    }
    // Sort and deduplicate each segment, compacting the array in place.
    let mut len = 0;
    let mut segment_start = 0;
    for s in 0..num_groups {
        let segment_end = ptr[s + 1];
        inputs[segment_start..segment_end].sort_unstable();
        for k in segment_start..segment_end {
            if k == segment_start || inputs[k] != inputs[k - 1] {
                inputs[len] = inputs[k];
                len += 1;
            }
        }
        ptr[s + 1] = len;
        segment_start = segment_end;
    }
    inputs.truncate(len);
    SuperRowInputs { ptr, inputs }
}

/// Builds the DAR graph of one pack. `pack` lists the super-rows of the pack;
/// `inputs` holds the external input sets of all super-rows (as returned by
/// [`super_row_inputs`]). Task `t` of the result corresponds to `pack[t]`.
pub fn pack_dar(pack: &[usize], inputs: &SuperRowInputs) -> DarGraph {
    DarGraph::from_inputs(pack.iter().map(|&s| inputs.of(s).to_vec()).collect())
}

/// Reorders the super-rows of a pack by RCM on its DAR graph and returns the
/// pack's super-rows in the new order. Packs whose DAR has no edges keep
/// their original order.
pub fn reorder_pack_by_dar(pack: &[usize], inputs: &SuperRowInputs) -> Vec<usize> {
    if pack.len() <= 2 {
        return pack.to_vec();
    }
    let (adj_ptr, adj) = shared_input_adjacency(pack.len(), |t| inputs.of(pack[t]));
    if adj.is_empty() {
        return pack.to_vec();
    }
    let graph = Graph::from_raw(adj_ptr, adj, vec![1; pack.len()]);
    let perm = rcm::reverse_cuthill_mckee(&graph);
    perm.new_to_old().iter().map(|&t| pack[t]).collect()
}

/// A measure of how "line-like" an ordered pack is: the fraction of
/// consecutive task pairs that share at least one input. The paper's
/// restructuring aims to drive this toward 1.
pub fn consecutive_sharing_fraction(ordered_pack: &[usize], inputs: &SuperRowInputs) -> f64 {
    if ordered_pack.len() < 2 {
        return 1.0;
    }
    let shares = ordered_pack
        .windows(2)
        .filter(|w| {
            let a = inputs.of(w[0]);
            let b = inputs.of(w[1]);
            // both sorted: linear intersection test
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Equal => return true,
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                }
            }
            false
        })
        .count();
    shares as f64 / (ordered_pack.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::Packs;
    use sts_graph::{Coarsening, ColoringOrder};
    use sts_matrix::generators;

    /// Hand-made input sets, one per super-row.
    fn sets(sets: &[&[usize]]) -> SuperRowInputs {
        let mut ptr = vec![0];
        let mut inputs = Vec::new();
        for set in sets {
            inputs.extend_from_slice(set);
            ptr.push(inputs.len());
        }
        SuperRowInputs { ptr, inputs }
    }

    #[test]
    fn super_row_inputs_exclude_internal_columns() {
        let l = generators::paper_figure1_l();
        // Two super-rows: {0..4} and {5..8}.
        let position: Vec<usize> = (0..9).collect();
        let group_of = [0, 0, 0, 0, 0, 1, 1, 1, 1];
        let inputs = super_row_inputs(&l, &position, &group_of);
        assert_eq!(inputs.num_super_rows(), 2);
        // Super-row 0 contains rows 0..4 whose dependencies (0,1) are internal.
        assert!(inputs.of(0).is_empty());
        // Super-row 1 rows: 5 deps {2,3}, 6 deps {3,4,5}, 7 deps {4,6}, 8 deps
        // {0,1,7}; external = {0,1,2,3,4}.
        assert_eq!(inputs.of(1), &[0, 1, 2, 3, 4]);
        assert_eq!(inputs.predecessors(&group_of), vec![vec![], vec![0]]);
    }

    #[test]
    fn super_row_inputs_read_the_pairs_at_their_positions() {
        // Reversing the rows turns every pair around: the reader is the
        // super-row of the later position, whichever row of L it came from.
        let l = generators::paper_figure1_l();
        let position: Vec<usize> = (0..9).rev().collect();
        let group_of: Vec<usize> = (0..9).map(|p| p / 3).collect();
        let inputs = super_row_inputs(&l, &position, &group_of);
        for s in 0..3 {
            let mut expected: Vec<usize> = (0..9)
                .flat_map(|i| l.row_off_diag_cols(i).iter().map(move |&j| (i, j)))
                .map(|(i, j)| (position[i].max(position[j]), position[i].min(position[j])))
                .filter(|&(reader, input)| group_of[reader] == s && group_of[input] != s)
                .map(|(_, input)| input)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(inputs.of(s), expected.as_slice());
            assert!(inputs.of(s).iter().all(|&x| x < 3 * s));
        }
    }

    #[test]
    fn paper_worked_example_through_heavy_edge_groups() {
        // What `paper_figs fig_example` prints: Figure 1's pairwise collapse
        // of G1 into G2, the packs of both graphs (Figure 2) and the DAR of
        // the last pack (Figure 3).
        let l = generators::paper_figure1_l();
        let g1 = Graph::from_lower_triangular(&l);
        let coarsening = Coarsening::heavy_edge_matching(&g1);
        let g2 = coarsening.coarse_graph(&g1);
        let groups: [&[usize]; 5] = [&[0, 8], &[1, 3], &[2, 5], &[4, 6], &[7]];
        let adjacency: [&[usize]; 5] = [&[1, 2, 4], &[0, 2, 3], &[0, 1, 3], &[1, 2, 4], &[0, 3]];
        assert_eq!(coarsening.num_groups(), 5);
        for s in 0..5 {
            assert_eq!(coarsening.group(s), groups[s]);
            assert_eq!(g2.neighbors(s), adjacency[s]);
        }

        let packs_g1 = Packs::by_coloring(&g1, ColoringOrder::LargestDegreeFirst);
        let packs_g2 = Packs::by_coloring(&g2, ColoringOrder::LargestDegreeFirst);
        assert_eq!((packs_g1.num_packs(), packs_g2.num_packs()), (3, 3));
        assert_eq!(packs_g2.all(), &[vec![0, 3], vec![1, 4], vec![2]]);

        let position: Vec<usize> = (0..l.n()).collect();
        let inputs = super_row_inputs(&l, &position, coarsening.membership());
        // S2 = {3,6} reads x1 (from S0) and x4 (from S1).
        assert_eq!(inputs.of(2), &[0, 3]);
        let last = packs_g2.pack(packs_g2.num_packs() - 1);
        let dar = pack_dar(last, &inputs);
        assert_eq!(dar.num_tasks(), 1);
        assert!(dar.neighbors(0).is_empty());
    }

    #[test]
    fn pack_dar_links_tasks_sharing_inputs() {
        let inputs = sets(&[&[10, 11], &[11, 12], &[20]]);
        let dar = pack_dar(&[0, 1, 2], &inputs);
        assert_eq!(dar.num_edges(), 1);
        assert!(dar.neighbors(0).contains(&1));
        assert!(dar.neighbors(2).is_empty());
    }

    #[test]
    fn reorder_recovers_a_line_from_a_shuffled_chain() {
        // Tasks form a chain 0-1-2-3-4 via shared inputs, but the pack lists
        // them shuffled. RCM on the DAR must put chain neighbours next to each
        // other, maximising consecutive sharing.
        let inputs = sets(&[
            &[0, 1], // task 0
            &[1, 2], // task 1
            &[2, 3], // task 2
            &[3, 4], // task 3
            &[4, 5], // task 4
        ]);
        let pack = vec![2usize, 0, 4, 1, 3];
        let before = consecutive_sharing_fraction(&pack, &inputs);
        let reordered = reorder_pack_by_dar(&pack, &inputs);
        let after = consecutive_sharing_fraction(&reordered, &inputs);
        assert!(
            after > before,
            "sharing fraction should improve: {before} -> {after}"
        );
        assert!(
            (after - 1.0).abs() < 1e-12,
            "a chain must become a perfect line, got {after}"
        );
        // Same multiset of tasks.
        let mut sorted = reordered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn packs_without_sharing_keep_their_order() {
        let inputs = sets(&[&[0], &[1], &[2], &[3]]);
        let pack = vec![3usize, 1, 0, 2];
        assert_eq!(reorder_pack_by_dar(&pack, &inputs), pack);
    }

    #[test]
    fn tiny_packs_are_returned_unchanged() {
        let inputs = sets(&[&[0], &[0]]);
        assert_eq!(reorder_pack_by_dar(&[1, 0], &inputs), vec![1, 0]);
        assert_eq!(reorder_pack_by_dar(&[], &inputs), Vec::<usize>::new());
    }

    #[test]
    fn sharing_fraction_edge_cases() {
        let inputs = sets(&[&[1], &[1]]);
        assert_eq!(consecutive_sharing_fraction(&[0], &inputs), 1.0);
        assert_eq!(consecutive_sharing_fraction(&[0, 1], &inputs), 1.0);
        let disjoint = sets(&[&[1], &[2]]);
        assert_eq!(consecutive_sharing_fraction(&[0, 1], &disjoint), 0.0);
    }
}
