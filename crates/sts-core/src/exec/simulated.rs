//! The simulated NUMA executor.
//!
//! The simulator replays the exact schedule the threaded solver would run —
//! packs in order, super-rows of a pack distributed over the cores with a
//! static / dynamic / guided policy — and charges costs from the machine's
//! [`LatencyModel`](sts_numa::LatencyModel):
//!
//! * streaming the rows of `L'` (values + column indices) costs
//!   [`SimulationParams::stream_cycles_per_nnz`] per stored entry plus one
//!   fused multiply-add per entry;
//! * reading a solution component costs the *reuse* latency of the NUMA
//!   distance between the reading core and the core that produced it (L1 if
//!   this core produced or already fetched it during the current pack, local
//!   L3 within a sharing group, remote otherwise) — exactly the effect the
//!   within-pack DAR reordering and compact pinning exploit;
//! * each pack ends with a barrier whose cost grows with the core count;
//! * dynamic/guided scheduling pays a small dispatch overhead per claimed
//!   chunk.
//!
//! Absolute cycle counts are model outputs, not hardware measurements; the
//! figure harnesses only use ratios between methods, which is also how the
//! paper reports its results.

use serde::Serialize;

use sts_numa::{NumaTopology, Schedule};

use crate::csrk::StsStructure;
use crate::options::PrecisionPolicy;

/// Intra-pack scheduling policy used by the simulator (mirrors
/// [`sts_numa::Schedule`]).
pub type SimSchedule = Schedule;

/// Tunable cost parameters of the simulator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimulationParams {
    /// Cycles to stream one stored nonzero of `L'` (value + index), assuming
    /// hardware prefetching of the sequential row data.
    pub stream_cycles_per_nnz: f64,
    /// Cycles per fused multiply-add.
    pub flop_cycles: f64,
    /// Barrier cost per pack: `barrier_base_cycles * (1 + log2(cores))`.
    pub barrier_base_cycles: f64,
    /// Overhead per dynamically claimed chunk (shared-counter contention).
    pub dispatch_cycles: f64,
    /// Number of consecutive solution components per cache line (8 doubles on
    /// the evaluation machines). A core that fetches component `j` gets the
    /// rest of `j`'s line for free, which is how the super-row/RCM spatial
    /// locality shows up in the model.
    pub cache_line_doubles: usize,
}

impl Default for SimulationParams {
    fn default() -> Self {
        SimulationParams {
            stream_cycles_per_nnz: 6.0,
            flop_cycles: 1.0,
            // Chosen so the synchronisation-to-compute ratio of the reference
            // CSR-LS solver at the generated matrix sizes sits in the regime
            // the paper reports for its much larger inputs.
            barrier_base_cycles: 300.0,
            dispatch_cycles: 60.0,
            cache_line_doubles: 8,
        }
    }
}

/// The outcome of one simulated solve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    /// Total modelled cycles (compute + synchronisation).
    pub total_cycles: f64,
    /// Cycles spent in the per-pack critical paths (max over cores, summed
    /// over packs).
    pub compute_cycles: f64,
    /// Cycles spent in inter-pack barriers.
    pub sync_cycles: f64,
    /// Total converted to seconds with the machine's clock.
    pub seconds: f64,
    /// Number of cores simulated.
    pub cores: usize,
    /// Number of packs executed.
    pub num_packs: usize,
}

/// The modelled memory traffic of one split triangular sweep
/// under a given [`PrecisionPolicy`] — the bandwidth side of the simulator,
/// complementing the cycle model.
///
/// The sweeps are bandwidth-bound: each solve streams the slab arrays once
/// (compulsory traffic), so the model is exact arithmetic over the layout
/// sizes, not a cache simulation. Counted per solve:
///
/// * **value bytes** — the external + internal value slabs at the policy's
///   storage width, plus the reciprocal diagonal (always `f64`: the
///   storage/accumulation invariant keeps the diagonal scale exact);
/// * **index bytes** — the `u32` column slabs plus the two `usize` row
///   pointers;
/// * **vector bytes** — reading `b` and writing `x` once each (`f64`).
///   Gather *reads* of `x` are reuse-dependent and are priced by the cycle
///   model instead.
///
/// Demoting the slabs to `f32` halves the value-slab term and nothing else,
/// so quote [`total_bytes_per_row`](Self::total_bytes_per_row) beside
/// [`value_bytes_per_row`](Self::value_bytes_per_row): on the 200×200
/// Laplacian the values go 23.9 → 16.0 B/row (33 %) while the total goes
/// 64 → 56 (12 %); on the 56³ 27-point grid the total goes 190 → 140 (26 %).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SolveBytesModel {
    /// Rows of the modelled structure.
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
    /// Total modelled traffic of one sweep.
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

/// Simulates STS-k solves on a modelled NUMA machine.
#[derive(Debug, Clone)]
pub struct SimulatedExecutor {
    topology: NumaTopology,
    params: SimulationParams,
}

impl SimulatedExecutor {
    /// Creates a simulator for the given machine with default parameters.
    pub fn new(topology: NumaTopology) -> Self {
        SimulatedExecutor {
            topology,
            params: SimulationParams::default(),
        }
    }

    /// Creates a simulator with explicit cost parameters.
    pub fn with_params(topology: NumaTopology, params: SimulationParams) -> Self {
        SimulatedExecutor { topology, params }
    }

    /// The modelled machine.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// The cost parameters.
    pub fn params(&self) -> &SimulationParams {
        &self.params
    }

    /// Simulates a full solve of `s` on `cores` cores with the given schedule.
    pub fn simulate(&self, s: &StsStructure, cores: usize, schedule: SimSchedule) -> SimReport {
        self.simulate_packs(s, cores, schedule, 0..s.num_packs())
    }

    /// Models the compulsory memory traffic of one forward split
    /// sweep of `s` under `precision` (see [`SolveBytesModel`] for what is
    /// counted). Forces the lazy split layout; pure arithmetic otherwise.
    pub fn model_solve_bytes(
        &self,
        s: &StsStructure,
        precision: PrecisionPolicy,
    ) -> SolveBytesModel {
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

    /// Simulates a single pack (no barriers), used by the Figure-14 harness to
    /// price the largest pack in isolation.
    pub fn simulate_single_pack(
        &self,
        s: &StsStructure,
        pack: usize,
        cores: usize,
        schedule: SimSchedule,
    ) -> SimReport {
        // Warm up producer information with every earlier pack so the target
        // pack sees realistic producer placement, then report only the target
        // pack's cycles.
        let warm = self.simulate_packs(s, cores, schedule, 0..pack);
        let upto = self.simulate_packs(s, cores, schedule, 0..pack + 1);
        let compute = upto.compute_cycles - warm.compute_cycles;
        SimReport {
            total_cycles: compute,
            compute_cycles: compute,
            sync_cycles: 0.0,
            seconds: self.topology.latency.cycles_to_seconds(compute),
            cores: upto.cores,
            num_packs: 1,
        }
    }

    fn simulate_packs(
        &self,
        s: &StsStructure,
        cores: usize,
        schedule: SimSchedule,
        packs: std::ops::Range<usize>,
    ) -> SimReport {
        let cores = cores.clamp(1, self.topology.total_cores());
        let core_ids = self.topology.compact_core_order(cores);
        let lat = &self.topology.latency;
        let l = s.lower();
        let row_ptr = l.row_ptr();
        let col_idx = l.col_idx();
        let n = s.n();

        // Which core produced each solution component (usize::MAX = not yet
        // produced; reads then come from memory, e.g. the right-hand side),
        // and during which pack it was produced. Components produced by the
        // *immediately preceding* pack are assumed to still be resident in
        // their producer's cache hierarchy (reuse at the NUMA distance);
        // older components have been displaced and come from memory. Ordering
        // packs by increasing size exploits exactly this window.
        let mut producer_core = vec![usize::MAX; n];
        let mut producer_pack = vec![usize::MAX; n];
        // Stamp per (core slot, cache line of x): fetched during the current
        // pack. Line granularity rewards orderings whose tasks touch
        // neighbouring components, which is the spatial-locality effect the
        // super-row formulation targets.
        let line = self.params.cache_line_doubles.max(1);
        let num_lines = n / line + 1;
        let mut fetched = vec![vec![0u32; num_lines]; cores];
        // Which super-row owns each row (to recognise intra-task reads).
        let mut super_row_of = vec![0usize; n];
        for sr in 0..s.num_super_rows() {
            for r in s.super_row_rows(sr) {
                super_row_of[r] = sr;
            }
        }

        let mut compute_cycles = 0.0f64;
        let mut sync_cycles = 0.0f64;
        let barrier = self.params.barrier_base_cycles * (1.0 + (cores as f64).log2());
        let num_packs = packs.len();

        for p in packs {
            let pack_range = s.pack_super_rows(p);
            let tasks: Vec<usize> = pack_range.collect();
            let m = tasks.len();
            if m == 0 {
                continue;
            }
            let stamp = p as u32 + 1;
            let mut core_time = vec![0.0f64; cores];

            // Cost of running task `sr` on core slot `slot`, updating that
            // core's fetched stamps.
            let mut task_cost = |sr: usize, slot: usize, producer_core: &[usize]| -> f64 {
                let core = core_ids[slot];
                let mut cycles = 0.0;
                for i1 in s.super_row_rows(sr) {
                    let start = row_ptr[i1];
                    let end = row_ptr[i1 + 1];
                    let nnz_row = (end - start) as f64;
                    cycles +=
                        nnz_row * (self.params.stream_cycles_per_nnz + self.params.flop_cycles);
                    for &j in &col_idx[start..end - 1] {
                        let line_of_j = j / line;
                        if super_row_of[j] == sr || fetched[slot][line_of_j] == stamp {
                            cycles += lat.l1_cycles;
                            continue;
                        }
                        fetched[slot][line_of_j] = stamp;
                        let pc = producer_core[j];
                        if pc == usize::MAX {
                            // Never produced in this solve (e.g. inputs of the
                            // very first pack): comes from memory.
                            cycles += lat.dram_local_cycles;
                        } else if producer_pack[j] + 1 == p {
                            // Produced by the immediately preceding pack:
                            // still resident near its producer.
                            cycles += lat.reuse_cycles(self.topology.distance(core, pc));
                        } else {
                            // Produced long ago: displaced to memory, NUMA
                            // placement follows the producing socket.
                            cycles += lat.memory_cycles(self.topology.distance(core, pc));
                        }
                    }
                }
                cycles
            };

            // Distribute the tasks over the core slots with the requested
            // schedule, mirroring the worker pool.
            let mut assignment = vec![0usize; m];
            match schedule {
                Schedule::Static => {
                    for (t, a) in assignment.iter_mut().enumerate() {
                        *a = t * cores / m.max(1);
                    }
                    for (t, &slot) in assignment.iter().enumerate() {
                        core_time[slot] += task_cost(tasks[t], slot, &producer_core);
                    }
                }
                Schedule::Dynamic { chunk } | Schedule::Guided { min_chunk: chunk } => {
                    let guided = matches!(schedule, Schedule::Guided { .. });
                    let min_chunk = chunk.max(1);
                    let mut next = 0usize;
                    while next < m {
                        let size = if guided {
                            ((m - next) / (2 * cores)).max(min_chunk)
                        } else {
                            min_chunk
                        };
                        let slot = (0..cores)
                            .min_by(|&a, &b| core_time[a].total_cmp(&core_time[b]))
                            .unwrap_or(0);
                        core_time[slot] += self.params.dispatch_cycles;
                        for t in next..(next + size).min(m) {
                            assignment[t] = slot;
                            core_time[slot] += task_cost(tasks[t], slot, &producer_core);
                        }
                        next += size;
                    }
                }
            }

            // Record producers for subsequent packs.
            for (t, &slot) in assignment.iter().enumerate() {
                let core = core_ids[slot];
                for r in s.super_row_rows(tasks[t]) {
                    producer_core[r] = core;
                    producer_pack[r] = p;
                }
            }

            let pack_elapsed = core_time.iter().copied().fold(0.0, f64::max);
            compute_cycles += pack_elapsed;
            sync_cycles += barrier;
        }

        let total = compute_cycles + sync_cycles;
        SimReport {
            total_cycles: total,
            compute_cycles,
            sync_cycles,
            seconds: lat.cycles_to_seconds(total),
            cores,
            num_packs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::generators;
    use sts_numa::NumaTopology;

    fn build(method: Method) -> StsStructure {
        let a = generators::triangulated_grid(24, 24, 3).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        method.build(&l, 16).unwrap()
    }

    #[test]
    fn report_components_are_consistent() {
        let s = build(Method::Sts3);
        let sim = SimulatedExecutor::new(NumaTopology::intel_westmere_ex_32());
        let r = sim.simulate(&s, 16, Schedule::Guided { min_chunk: 1 });
        assert!(r.total_cycles > 0.0);
        assert!((r.total_cycles - (r.compute_cycles + r.sync_cycles)).abs() < 1e-6);
        assert_eq!(r.num_packs, s.num_packs());
        assert_eq!(r.cores, 16);
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn more_cores_do_not_increase_compute_time_for_large_packs() {
        let s = build(Method::Sts3);
        let sim = SimulatedExecutor::new(NumaTopology::intel_westmere_ex_32());
        let t1 = sim.simulate(&s, 1, Schedule::Guided { min_chunk: 1 });
        let t16 = sim.simulate(&s, 16, Schedule::Guided { min_chunk: 1 });
        assert!(
            t16.compute_cycles < t1.compute_cycles,
            "16 cores ({}) should be faster than 1 core ({})",
            t16.compute_cycles,
            t1.compute_cycles
        );
        // Speedup is bounded by the core count.
        assert!(t1.compute_cycles / t16.compute_cycles <= 16.0 + 1e-9);
    }

    #[test]
    fn core_count_is_clamped_to_the_topology() {
        let s = build(Method::Sts3);
        let sim = SimulatedExecutor::new(NumaTopology::amd_magny_cours_24());
        let r = sim.simulate(&s, 999, Schedule::Static);
        assert_eq!(r.cores, 24);
    }

    #[test]
    fn level_set_pays_more_synchronisation_than_coloring() {
        let ls = build(Method::CsrLs);
        let col = build(Method::CsrCol);
        let sim = SimulatedExecutor::new(NumaTopology::intel_westmere_ex_32());
        let r_ls = sim.simulate(&ls, 16, Schedule::Dynamic { chunk: 32 });
        let r_col = sim.simulate(&col, 16, Schedule::Dynamic { chunk: 32 });
        assert!(ls.num_packs() > col.num_packs());
        assert!(r_ls.sync_cycles > r_col.sync_cycles);
    }

    #[test]
    fn sts3_beats_the_reference_on_the_modelled_machine() {
        // The headline claim of the paper at miniature scale: STS-3 is faster
        // than CSR-LS on the modelled 16-core Intel node.
        let sim = SimulatedExecutor::new(NumaTopology::intel_westmere_ex_32());
        let ls = build(Method::CsrLs);
        let sts = build(Method::Sts3);
        let t_ls = sim
            .simulate(&ls, 16, Schedule::Dynamic { chunk: 32 })
            .total_cycles;
        let t_sts = sim
            .simulate(&sts, 16, Schedule::Guided { min_chunk: 1 })
            .total_cycles;
        assert!(
            t_sts < t_ls,
            "STS-3 ({t_sts}) should beat CSR-LS ({t_ls}) on the modelled machine"
        );
    }

    #[test]
    fn single_pack_simulation_prices_only_that_pack() {
        let s = build(Method::Sts3);
        let sim = SimulatedExecutor::new(NumaTopology::intel_westmere_ex_32());
        let largest = (0..s.num_packs())
            .max_by_key(|&p| s.pack_rows(p).len())
            .unwrap();
        let r = sim.simulate_single_pack(&s, largest, 16, Schedule::Guided { min_chunk: 1 });
        let full = sim.simulate(&s, 16, Schedule::Guided { min_chunk: 1 });
        assert!(r.total_cycles > 0.0);
        assert!(r.total_cycles < full.compute_cycles);
        assert_eq!(r.sync_cycles, 0.0);
    }

    #[test]
    fn deterministic_across_repeated_runs() {
        let s = build(Method::Csr3Ls);
        let sim = SimulatedExecutor::new(NumaTopology::amd_magny_cours_24());
        let a = sim.simulate(&s, 12, Schedule::Guided { min_chunk: 1 });
        let b = sim.simulate(&s, 12, Schedule::Guided { min_chunk: 1 });
        assert_eq!(a, b);
    }
}
