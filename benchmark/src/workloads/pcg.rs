//! `pcg_3d27` and `pcg_batch4_tri2d`: IC(0)-preconditioned CG to a relative
//! 1e-8 on seeded right-hand sides `b = A x*`, with the values rescaled and
//! the system re-bound and re-factored at the end of every cycle — the write
//! beside the reads of a time-stepping client.

use std::time::{Duration, Instant};

use sts_core::Method;
use sts_krylov::{Ic0, KrylovWorkspace, Pcg, Preconditioner, SpdSystem, SweepEngine};
use sts_matrix::CsrMatrix;

use super::{
    check_columns, pinned_pcg, window_over, Cycle, Samples, Workload, REPLAY_EVERY,
    ROWS_PER_SUPER_ROW,
};
use crate::inputs;
use crate::spans::SpanBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// `Pcg::solve`, one right-hand side.
    Single,
    /// `Pcg::solve_batch`, four interleaved right-hand sides in lockstep.
    Batch,
    /// `Pcg::solve_block`, the same four on one shared Krylov space.
    Block,
}

impl Unit {
    fn nrhs(self) -> usize {
        match self {
            Unit::Single => 1,
            Unit::Batch | Unit::Block => 4,
        }
    }
}

/// The units of one cycle; the first entry's kind is the workload's unit op
/// (its latencies are `solve_ms`), the others count towards throughput only.
pub const SINGLE_CYCLE: [Unit; 6] = [Unit::Single; 6];
pub const BATCH4_CYCLE: [Unit; 5] = [
    Unit::Batch,
    Unit::Block,
    Unit::Batch,
    Unit::Block,
    Unit::Batch,
];

pub struct PcgCycle {
    a: CsrMatrix,
    sys: SpdSystem,
    pcg: Pcg,
    pre: Ic0,
    ws: KrylovWorkspace,
    cycle: &'static [Unit],
    seed: u64,
    /// Whether `sys` and `pre` hold the generated values rather than an
    /// update's.
    on_generated_values: bool,
}

struct Solved {
    x: Vec<f64>,
    converged: bool,
    /// Iterations of each system.
    iterations: Vec<u64>,
}

impl PcgCycle {
    pub fn setup(a: CsrMatrix, seed: u64, threads: usize, cycle: &'static [Unit]) -> PcgCycle {
        let sys = SpdSystem::build(&a, Method::Sts3, ROWS_PER_SUPER_ROW)
            .expect("generated matrices are symmetric positive definite");
        let pcg = pinned_pcg(threads);
        let mut pre = Ic0::new(&sys, pcg.solver(), SweepEngine::Pipelined)
            .expect("IC(0) exists for a diagonally dominant operator");
        let nrhs = cycle[0].nrhs();
        let ws = KrylovWorkspace::with_nrhs(sys.n(), nrhs);
        warm(&pcg, &mut pre, sys.n(), nrhs).expect("a fresh factor applies");
        let mut workload = PcgCycle {
            a,
            sys,
            pcg,
            pre,
            ws,
            cycle,
            seed,
            on_generated_values: false,
        };
        // One discarded value update takes the allocator to the state every
        // later update finds.
        workload.back_to_generated_values();
        workload
    }

    /// Every window starts from the factor of the generated values.
    fn back_to_generated_values(&mut self) {
        if !self.on_generated_values {
            let generated = self.a.clone();
            self.refactor(&generated, &mut SpanBuf::off(), 0)
                .expect("the generated values refactor");
            self.on_generated_values = true;
        }
    }

    /// Value update: `a_next` (same pattern) re-bound to the analysed
    /// hierarchy, re-factored, and the new factor applied once. On failure
    /// the old system and factor stay in place.
    fn refactor(
        &mut self,
        a_next: &CsrMatrix,
        spans: &mut SpanBuf,
        op_id: u64,
    ) -> Result<(), String> {
        let open = spans.begin("krylov.rebind", op_id);
        let rebound = SpdSystem::build_with_structure(a_next, self.sys.structure());
        spans.end(open);
        let sys = rebound.map_err(|e| format!("rebinding new values failed: {e}"))?;
        let open = spans.begin("krylov.ic0_build", op_id);
        let factored = Ic0::new(&sys, self.pcg.solver(), SweepEngine::Pipelined);
        spans.end(open);
        let mut pre = factored.map_err(|e| format!("refactoring failed: {e}"))?;
        let open = spans.begin("krylov.precond_warm", op_id);
        let usable = warm(&self.pcg, &mut pre, sys.n(), self.cycle[0].nrhs());
        spans.end(open);
        (self.sys, self.pre) = (sys, pre);
        self.on_generated_values = false;
        usable
    }

    fn solve(&mut self, unit: Unit, b: &[f64]) -> Result<Solved, String> {
        let (sys, pre, ws) = (&self.sys, &mut self.pre, &mut self.ws);
        match unit {
            Unit::Single => self.pcg.solve(sys, pre, b, ws).map(|out| Solved {
                x: out.x,
                converged: out.converged,
                iterations: vec![out.iterations as u64],
            }),
            Unit::Batch => self.pcg.solve_batch(sys, pre, b, 4, ws).map(|out| Solved {
                x: out.x,
                converged: out.converged.iter().all(|&c| c),
                iterations: out.iterations.iter().map(|&i| i as u64).collect(),
            }),
            Unit::Block => self.pcg.solve_block(sys, pre, b, 4, ws).map(|out| Solved {
                x: out.x,
                converged: out.converged.iter().all(|&c| c),
                iterations: out.iterations.iter().map(|&i| i as u64).collect(),
            }),
        }
        .map_err(|e| format!("{unit:?} solve failed: {e}"))
    }

    /// One preconditioner application and one operator product on their own,
    /// as spans of the unit `op_id`; returns their summed seconds.
    fn replay_pieces(&mut self, nrhs: usize, spans: &mut SpanBuf, op_id: u64) -> f64 {
        let len = self.sys.n() * nrhs;
        let r = vec![1.0; len];
        let (mut z, mut sweep) = (vec![0.0; len], vec![0.0; len]);
        let start = Instant::now();
        let open = spans.begin("krylov.precond_apply", op_id);
        let applied = if nrhs == 1 {
            self.pre
                .apply_into(self.pcg.solver(), &r, &mut z, &mut sweep)
        } else {
            self.pre
                .apply_batch_into(self.pcg.solver(), &r, &mut z, &mut sweep, nrhs)
        };
        spans.end(open);
        let open = spans.begin("core.spmv", op_id);
        let multiplied = if nrhs == 1 {
            self.pcg.solver().spmv_into(self.sys.matrix(), &r, &mut z)
        } else {
            self.pcg
                .solver()
                .spmv_batch_into(self.sys.matrix(), &r, &mut z, nrhs)
        };
        spans.end(open);
        applied.and(multiplied).expect("replayed pieces succeed");
        start.elapsed().as_secs_f64()
    }
}

/// Applies the preconditioner once, so that its lazily built sweep layouts
/// exist before anything is timed, and checks that the factor is usable:
/// `M⁻¹ 1` must come out finite.
fn warm(pcg: &Pcg, pre: &mut Ic0, n: usize, nrhs: usize) -> Result<(), String> {
    let r = vec![1.0; n * nrhs];
    let (mut z, mut sweep) = (vec![0.0; n * nrhs], vec![0.0; n * nrhs]);
    if nrhs == 1 {
        pre.apply_into(pcg.solver(), &r, &mut z, &mut sweep)
    } else {
        pre.apply_batch_into(pcg.solver(), &r, &mut z, &mut sweep, nrhs)
    }
    .map_err(|e| format!("applying the new factor failed: {e}"))?;
    if z.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err("the new factor applies to a non-finite vector".to_string())
    }
}

impl Workload for PcgCycle {
    fn run(&mut self, budget: Duration, spans: &mut SpanBuf) -> Samples {
        self.back_to_generated_values();
        let deadline = Instant::now() + budget;
        let mut samples = Samples::default();
        let mut rhs = inputs::stream(self.seed, "rhs");
        let mut values = inputs::stream(self.seed, "values");
        // The operator the current factor belongs to, in original numbering.
        let mut a_now = self.a.clone();
        let unit_kind = self.cycle[0];
        let (mut op_id, mut units) = (0u64, 0u64);
        // (seconds of replayed pieces scaled to the unit's iterations,
        //  seconds of the unit itself)
        let mut covered = (0.0f64, 0.0f64);
        'run: loop {
            let mut cycle = Cycle::default();
            let first_cycle = samples.cycle_ops == 0;
            for &unit in self.cycle {
                if window_over(&samples, deadline) {
                    break 'run;
                }
                let nrhs = unit.nrhs();
                let b_cols = inputs::manufactured_rhs(&a_now, &mut rhs, nrhs);
                let b = inputs::interleave(&b_cols);
                op_id += 1;
                samples.attempt();
                let open = spans.begin(
                    match unit {
                        Unit::Single => "krylov.pcg_solve",
                        Unit::Batch => "krylov.pcg_solve_batch",
                        Unit::Block => "krylov.pcg_solve_block",
                    },
                    op_id,
                );
                let start = Instant::now();
                let solved = self.solve(unit, &b);
                let elapsed = start.elapsed();
                spans.end(open);
                cycle.add(elapsed);
                if unit == unit_kind {
                    units += 1;
                    samples.solve_ms.push(elapsed.as_secs_f64() * 1e3);
                }
                match solved {
                    Err(note) => samples.check(Err(note)),
                    Ok(solved) => {
                        samples.check(check_columns(&a_now, &solved.x, solved.converged, &b_cols));
                        if first_cycle {
                            samples.first_cycle_iterations.extend(&solved.iterations);
                        }
                        if spans.is_on() && unit == unit_kind && units.is_multiple_of(REPLAY_EVERY)
                        {
                            let iterations = *solved.iterations.iter().max().unwrap_or(&0);
                            let pieces = self.replay_pieces(nrhs, spans, op_id);
                            covered.0 += pieces * iterations as f64;
                            covered.1 += elapsed.as_secs_f64();
                        }
                    }
                }
            }
            // Value update, timed from rescaled values in hand to a factor
            // that has been applied once.
            let a_next = inputs::shifted_matrix(&self.a, inputs::diagonal_shift(&mut values));
            op_id += 1;
            samples.attempt();
            let update = spans.begin("bench.update", op_id);
            let start = Instant::now();
            let refactored = self.refactor(&a_next, spans, op_id);
            let elapsed = start.elapsed();
            spans.end(update);
            cycle.add(elapsed);
            samples.refactor_ms.push(elapsed.as_secs_f64() * 1e3);
            // Beyond the factor being usable, the update is checked by the
            // next cycle's solutions, each verified against the new operator.
            samples.check(refactored);
            a_now = a_next;
            cycle.commit(&mut samples);
        }
        if covered.1 > 0.0 {
            samples.cover_share = Some(covered.0 / covered.1);
        }
        samples
    }

    fn primary_operator(&self) -> &CsrMatrix {
        &self.a
    }
}
