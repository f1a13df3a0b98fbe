//! The heap a value update needs: rebinding new values onto a cached
//! structure and factoring them, while the old system and factor are still
//! alive (as a solver that swaps them in only on success holds them), and
//! the heap the new system and factor still hold once they exist.
//!
//! The bytes come from a counting global allocator, so this binary holds a
//! single test: nothing else may allocate while it measures.

use sts_k::core::Method;
use sts_k::krylov::{Ic0, Pcg, SpdSystem, SweepEngine};
use sts_k::matrix::{generators, CsrMatrix};
use sts_k::numa::Schedule;
use sts_k::trace::CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator::new();

const MIB: f64 = (1 << 20) as f64;

/// The peak of the live heap above its level at the start while `f` runs,
/// and the live heap above that level once it returned, in bytes.
fn heap_above_start<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = GLOBAL.live_bytes();
    GLOBAL.reset_peak();
    let out = f();
    (
        out,
        GLOBAL.peak_bytes() - start,
        GLOBAL.live_bytes() - start,
    )
}

#[test]
fn a_value_update_stays_within_its_heap_budget() {
    // The 40³ 27-point operator: 64 000 rows, 1.7 M stored entries.
    let a = generators::grid3d_27point(40, 40, 40).unwrap();
    let pcg = Pcg::new(2, Schedule::Guided { min_chunk: 1 });
    let old_sys = SpdSystem::build(&a, Method::Sts3, 80).unwrap();
    let old_pre = Ic0::new(&old_sys, pcg.solver(), SweepEngine::Split).unwrap();
    // New values on the same pattern: the diagonal up by 1 %.
    let values = a
        .iter()
        .map(|(r, c, v)| if r == c { v * 1.01 } else { v })
        .collect();
    let next = CsrMatrix::from_raw(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        values,
    )
    .unwrap();
    let ((sys, pre), peak, retained) = heap_above_start(|| {
        let sys = SpdSystem::build_with_structure(&next, old_sys.structure()).unwrap();
        let pre = Ic0::new(&sys, pcg.solver(), SweepEngine::Split).unwrap();
        (sys, pre)
    });
    // The budget is the measured peak plus 5 %: 38.6 MiB, in release and
    // in debug alike. The update writes values only — the layouts' index
    // arrays are the old system's — and debug builds verify a layout's
    // schedule once per pattern, when the old system's layouts were built.
    const BUDGET_MIB: f64 = 40.5;
    let (peak_mib, retained_mib) = (peak as f64 / MIB, retained as f64 / MIB);
    eprintln!(
        "value update: peak {peak_mib:.2} MiB, retained {retained_mib:.2} MiB above its start"
    );
    assert!(
        peak_mib <= BUDGET_MIB,
        "a value update peaked {peak_mib:.1} MiB above its start, over the {BUDGET_MIB} MiB budget"
    );
    // What the new system and factor hold, measured at 31.6 MiB in both
    // profiles, plus 5 %: value arrays only (the system's lower triangle
    // and symmetric layout, the factor's two sweep layouts and reciprocal
    // diagonal), every index array being the old system's. A copy of the factor's values kept
    // beside its layouts would add 6.5 MiB (853 516 entries × 8 B).
    const RETAINED_BUDGET_MIB: f64 = 33.2;
    assert!(
        retained_mib <= RETAINED_BUDGET_MIB,
        "a value update retained {retained_mib:.2} MiB, over the {RETAINED_BUDGET_MIB} MiB budget"
    );
    drop((old_sys, old_pre, sys, pre));
}
