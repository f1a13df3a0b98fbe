//! The heap the STS-k analysis needs: `Method::Sts3.build` of the 40³
//! 27-point lower operand at the paper's 80 rows per super-row.
//!
//! The bytes come from a counting global allocator, so this binary holds a
//! single test: nothing else may allocate while it measures.

use sts_k::core::Method;
use sts_k::matrix::generators;
use sts_k::trace::CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator::new();

const MIB: f64 = (1 << 20) as f64;

/// The peak of the live heap above its level at the start, in bytes, while
/// `f` runs.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = GLOBAL.live_bytes();
    GLOBAL.reset_peak();
    let out = f();
    (out, GLOBAL.peak_bytes() - start)
}

#[test]
fn the_sts3_analysis_stays_within_its_heap_budget() {
    // 64 000 rows, 853 516 stored entries in L.
    let a = generators::grid3d_27point(40, 40, 40).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    drop(a);
    let (s, peak) = peak_above_start(|| Method::Sts3.build(&l, 80).unwrap());
    // The budget is the measured peak plus 5 %: 29.0 MiB, in release and in
    // debug alike. The analysis reads L in its original numbering through
    // the RCM positions, so its only copy of L is the reordered operand the
    // structure keeps; a build that also copies L and G1 into RCM order
    // peaks at 43.0 MiB.
    const BUDGET_MIB: f64 = 30.5;
    let peak_mib = peak as f64 / MIB;
    eprintln!("STS-3 analysis: peak {peak_mib:.1} MiB above its start");
    assert!(
        peak_mib <= BUDGET_MIB,
        "the STS-3 analysis peaked {peak_mib:.1} MiB above its start, over the {BUDGET_MIB} MiB budget"
    );
    assert_eq!(s.n(), l.n());
}
