//! `tri_3d27` and `tri_2d_small`: the paper's kernel. One unit is a forward
//! and a transpose sweep through `ParallelSolver::solve_with` (pipelined
//! engine, f64) — one preconditioner application's worth of sweeps.

use std::time::{Duration, Instant};

use sts_core::{Method, ParallelSolver, SolveOptions, StsStructure, SweepDirection};
use sts_matrix::{generators, ops, CsrMatrix, LowerTriangularCsr};

use super::{
    pinned_solver, window_over, Cycle, Samples, Workload, ROWS_PER_SUPER_ROW, SWEEP_RESIDUAL_LIMIT,
};
use crate::inputs;
use crate::spans::{self_times_ns, SpanBuf};

pub struct Tri {
    a: CsrMatrix,
    /// The analysed structure with the generated values; value updates
    /// rebind shifted copies of its operand onto the same hierarchy.
    base: StsStructure,
    solver: ParallelSolver,
    /// Right-hand side in the reordered numbering the sweeps work in.
    b: Vec<f64>,
    units_per_cycle: usize,
    seed: u64,
}

/// `y = L'⁻¹ b` then `x = L'⁻ᵀ y`.
struct SweepPair {
    y: Vec<f64>,
    x: Vec<f64>,
}

impl Tri {
    pub fn setup(a: CsrMatrix, seed: u64, threads: usize, units_per_cycle: usize) -> Tri {
        let l = generators::lower_operand(&a).expect("generated matrices have a lower operand");
        let base = Method::Sts3
            .build(&l, ROWS_PER_SUPER_ROW)
            .expect("STS-3 analysis succeeds on the generated operand");
        let solver = pinned_solver(threads);
        let b = inputs::uniform_vector(&mut inputs::stream(seed, "rhs"), base.n());
        let tri = Tri {
            a,
            base,
            solver,
            b,
            units_per_cycle,
            seed,
        };
        // The first sweep in each direction builds that direction's layout;
        // one discarded value update takes the allocator to the state every
        // later update finds.
        tri.sweep_pair(&tri.base, &mut SpanBuf::off(), 0)
            .and_then(|_| tri.update(tri.base.lower().clone(), &mut SpanBuf::off(), 0))
            .expect("warm-up sweeps succeed");
        tri
    }

    /// Value update: new values on the known pattern, rebound onto the
    /// analysed hierarchy and taken through their first sweep pair (which
    /// rebuilds both layouts).
    fn update(
        &self,
        operand: LowerTriangularCsr,
        spans: &mut SpanBuf,
        op_id: u64,
    ) -> Result<(StsStructure, SweepPair), String> {
        let open = spans.begin("core.with_operand", op_id);
        let rebound = self.base.with_operand(operand);
        spans.end(open);
        let s = rebound.map_err(|e| format!("rebinding new values failed: {e}"))?;
        let pair = self.sweep_pair(&s, spans, op_id)?;
        Ok((s, pair))
    }

    fn sweep_pair(
        &self,
        s: &StsStructure,
        spans: &mut SpanBuf,
        op_id: u64,
    ) -> Result<SweepPair, String> {
        let forward = SolveOptions::default();
        let transpose = forward.with_direction(SweepDirection::Transpose);
        let open = spans.begin("core.sweep_fwd", op_id);
        let y = self.solver.solve_with(s, &self.b, &forward);
        spans.end(open);
        let y = y.map_err(|e| format!("forward sweep failed: {e}"))?;
        let open = spans.begin("core.sweep_bwd", op_id);
        let x = self.solver.solve_with(s, &y, &transpose);
        spans.end(open);
        let x = x.map_err(|e| format!("transpose sweep failed: {e}"))?;
        Ok(SweepPair { y, x })
    }

    /// `‖L'y − b‖ / ‖b‖` and `‖L'ᵀx − y‖ / ‖y‖` against the limit.
    fn check_residuals(&self, s: &StsStructure, pair: &SweepPair) -> Result<(), String> {
        let relative = |lhs: Vec<f64>, rhs: &[f64]| {
            let r: Vec<f64> = lhs.iter().zip(rhs).map(|(l, r)| l - r).collect();
            ops::norm2(&r) / ops::norm2(rhs)
        };
        let l = s.lower();
        let forward = relative(l.multiply(&pair.y).map_err(|e| e.to_string())?, &self.b);
        let transpose = relative(
            l.multiply_transpose(&pair.x).map_err(|e| e.to_string())?,
            &pair.y,
        );
        // NaN must fail, so compare for success.
        if forward <= SWEEP_RESIDUAL_LIMIT && transpose <= SWEEP_RESIDUAL_LIMIT {
            Ok(())
        } else {
            Err(format!(
                "sweep residuals {forward:e} / {transpose:e} exceed {SWEEP_RESIDUAL_LIMIT:e}"
            ))
        }
    }
}

impl Workload for Tri {
    fn run(&mut self, budget: Duration, spans: &mut SpanBuf) -> Samples {
        let deadline = Instant::now() + budget;
        let mut samples = Samples::default();
        let mut values = inputs::stream(self.seed, "values");
        let mut current = None; // None: still on the generated values
        let mut op_id = 0u64;
        'run: loop {
            let s = current.as_ref().unwrap_or(&self.base);
            let mut cycle = Cycle::default();
            // The first unit on each set of values is checked by residual;
            // the rest must reproduce it bit for bit.
            let mut reference: Option<SweepPair> = None;
            for _ in 0..self.units_per_cycle {
                if window_over(&samples, deadline) {
                    break 'run;
                }
                op_id += 1;
                samples.attempt();
                let unit = spans.begin("bench.unit", op_id);
                let start = Instant::now();
                let pair = self.sweep_pair(s, spans, op_id);
                let elapsed = start.elapsed();
                spans.end(unit);
                cycle.add(elapsed);
                samples.solve_ms.push(elapsed.as_secs_f64() * 1e3);
                match (pair, &reference) {
                    (Err(note), _) => samples.check(Err(note)),
                    (Ok(pair), None) => {
                        samples.check(self.check_residuals(s, &pair));
                        reference = Some(pair);
                    }
                    (Ok(pair), Some(first)) => {
                        let same = pair.x == first.x && pair.y == first.y;
                        samples.check(same.then_some(()).ok_or_else(|| {
                            "sweep output differs bitwise from the first unit's".to_string()
                        }));
                    }
                }
            }
            // Value update, timed from new values in hand to the first sweep
            // pair on them.
            let shifted =
                inputs::shifted_lower(self.base.lower(), inputs::diagonal_shift(&mut values));
            op_id += 1;
            samples.attempt();
            let update = spans.begin("bench.update", op_id);
            let start = Instant::now();
            let solved = self.update(shifted, spans, op_id);
            let elapsed = start.elapsed();
            spans.end(update);
            cycle.add(elapsed);
            samples.refactor_ms.push(elapsed.as_secs_f64() * 1e3);
            match solved {
                Ok((s, pair)) => {
                    samples.check(self.check_residuals(&s, &pair));
                    current = Some(s);
                }
                Err(note) => samples.check(Err(note)),
            }
            cycle.commit(&mut samples);
        }
        if spans.is_on() {
            // The two sweeps are the whole unit: what is left as the unit's
            // self time is the benchmark's own span bookkeeping.
            let (mut unit_ns, mut self_ns) = (0u64, 0u64);
            for (s, own) in spans.spans().iter().zip(self_times_ns(spans.spans())) {
                if s.name == "bench.unit" {
                    unit_ns += s.dur_ns();
                    self_ns += own;
                }
            }
            samples.cover_share = Some(1.0 - self_ns as f64 / unit_ns as f64);
        }
        samples
    }

    fn primary_operator(&self) -> &CsrMatrix {
        &self.a
    }
}
