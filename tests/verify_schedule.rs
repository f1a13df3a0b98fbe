//! Static schedule verification: the property suite and the negative
//! mutations.
//!
//! Two halves:
//!
//! * **Positive**: over random lower-triangular operands, every structure the
//!   builder produces — both orderings, both multilevel depths, every
//!   [`Method`] — passes [`StsStructure::verify_schedule`], which checks the
//!   forward and transpose split sweeps at each thread count of the sweep,
//!   and the super-row loop. The debug-build hooks inside
//!   `split()`/`transpose_split()` run the same check incidentally; this
//!   suite is the explicit, release-mode guarantee. An ignored test runs it
//!   on the `SuiteScale::Small` matrices (CI runs it in release).
//! * **Negative**: corrupting a schedule spec — dropping the barrier in
//!   front of a dispatch, handing one task to two workers — must be flagged
//!   with the *exact* `(pack, phase, row)` of the first unordered access,
//!   and the violation renderings are pinned against a committed snapshot
//!   so report wording cannot drift silently.
//!
//! To regenerate the snapshot after an intentional wording change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test verify_schedule
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use proptest::prelude::*;
use sts_k::core::verify::VERIFY_THREAD_SWEEP;
use sts_k::core::SweepDirection;
use sts_k::core::{
    solve_spec, super_row_spec, Method, Ordering, StsBuilder, StsStructure, SuperRowSizing,
};
use sts_k::matrix::generators;
use sts_k::matrix::suite::{SuiteScale, TestSuite};
use sts_k::verify::{mutate, verify, ScheduleSpec, ScheduleViolation, TaskKind};

/// Strategy mirroring `property_based.rs`: a random lower-triangular operand
/// with n in [1, 60] and up to 4 strictly-lower entries per row on average.
fn lower_triangular_strategy() -> impl Strategy<Value = sts_k::matrix::LowerTriangularCsr> {
    (1usize..60, 0u8..=4, 0u64..1000).prop_map(|(n, density, seed)| {
        generators::random_lower_triangular(n, density as f64, seed)
            .expect("random operand is always constructible")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every schedule the builder can produce verifies: orderings × k ×
    /// methods, each covering the full thread-count × direction sweep plus
    /// the super-row loop.
    #[test]
    fn every_built_schedule_verifies(l in lower_triangular_strategy()) {
        for ordering in [Ordering::LevelSet, Ordering::Coloring] {
            for k in [2usize, 3] {
                let s = StsBuilder::new(k)
                    .ordering(ordering)
                    .super_row_sizing(SuperRowSizing::Rows(8))
                    .build(&l)
                    .unwrap();
                let proof = s.verify_schedule().unwrap_or_else(|v| {
                    panic!("{ordering:?} k={k} n={}: {v}", l.n())
                });
                prop_assert!(proof.tasks > 0);
                // Each folded spec covers the whole shared vector once.
                prop_assert_eq!(proof.locations, s.n() * proof.specs);
            }
        }
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            prop_assert!(s.verify_schedule().is_ok(), "{} fails verification", method.label());
        }
    }
}

/// Every `SuiteScale::Small` matrix under every method at the paper's 80
/// rows per super-row: tens of thousands of rows per structure, far past
/// the random operands above.
#[test]
#[ignore = "2 M rows over 48 structures; run in release"]
fn small_suite_schedules_verify() {
    for m in TestSuite::generate(SuiteScale::Small).unwrap().matrices {
        let l = m.lower().unwrap();
        for method in Method::all() {
            let s = method.build(&l, 80).unwrap();
            if let Err(v) = s.verify_schedule() {
                panic!("{}/{}: {v}", m.id.label(), method.label());
            }
        }
    }
}

#[test]
fn verifying_the_super_row_loop_builds_no_split_layout() {
    let s = mutation_structure();
    s.verify_factor_schedule().unwrap();
    assert!(!s.split_built() && !s.transpose_split_built());
}

/// The deterministic structure all mutation tests corrupt: big enough that
/// every pack shape (external gathers, in-pack chains, multi-chunk stages)
/// occurs, seeded so the flagged `(pack, row)` values are stable.
fn mutation_structure() -> StsStructure {
    let l = generators::random_lower_triangular(120, 3.0, 42).unwrap();
    Method::Sts3.build(&l, 8).unwrap()
}

/// Row-granularity split-sweep spec of [`mutation_structure`]: one row per
/// gather task, so a flagged task names its row.
fn row_spec(s: &StsStructure, direction: SweepDirection) -> ScheduleSpec {
    solve_spec(s, usize::MAX, direction)
}

/// An access the checker must flag: `(pack, phase, row)` of the reader.
type Access = (usize, u8, usize);

/// The first gather dispatch `d` that reads a location dispatch `d − 1`
/// writes, with the first such read's row: dropping the barrier between
/// them races there.
fn first_gather_reading_previous(spec: &ScheduleSpec) -> (usize, Access) {
    (1..spec.dispatches.len())
        .find_map(|d| {
            let mut prev = vec![false; spec.locations];
            for task in &spec.dispatches[d - 1] {
                for rf in &task.rows {
                    prev[rf.row] = true;
                }
            }
            spec.dispatches[d]
                .iter()
                .filter(|t| t.kind == TaskKind::Gather)
                .flat_map(|t| t.rows.iter().map(move |rf| (t.pack, rf)))
                .find(|(_, rf)| rf.reads.iter().any(|&j| prev[j]))
                .map(|(pack, rf)| (d, (pack, 1, rf.row)))
        })
        .expect("some stage reads the previous one")
}

/// The first chain dispatch, with its first chain row: without the barrier
/// in front of it, that row re-reads its own partial while another task
/// gathers it.
fn first_chain(spec: &ScheduleSpec) -> (usize, Access) {
    spec.dispatches
        .iter()
        .position(|tasks| tasks.first().is_some_and(|t| t.kind == TaskKind::Chain))
        .map(|d| {
            let task = &spec.dispatches[d][0];
            (d, (task.pack, 2, task.rows[0].row))
        })
        .expect("the mutation structure has in-pack chain work")
}

/// The first super-row task whose later rows read its earlier ones, with
/// the first such row's position: handing the rows from there on to a
/// second worker races at that row.
fn first_self_reading_task(spec: &ScheduleSpec) -> (usize, usize, usize, Access) {
    spec.dispatches
        .iter()
        .enumerate()
        .flat_map(|(d, tasks)| tasks.iter().enumerate().map(move |(t, task)| (d, t, task)))
        .find_map(|(d, t, task)| {
            let first = task.rows[0].row;
            let at = task
                .rows
                .iter()
                .position(|rf| rf.reads.iter().any(|&j| j >= first && j < rf.row))?;
            Some((d, t, at, (task.pack, 1, task.rows[at].row)))
        })
        .expect("some super-row reads its own earlier rows")
}

/// Asserts `verify` flags a read race at exactly `access`.
fn assert_read_race(spec: &ScheduleSpec, access: Access) -> ScheduleViolation {
    let v = verify(spec).unwrap_err();
    match v {
        ScheduleViolation::ReadRace {
            pack, phase, row, ..
        } => assert_eq!((pack, phase, row), access, "flagged the wrong access: {v}"),
        _ => panic!("expected a read race at {access:?}, got {v}"),
    }
    v
}

#[test]
fn a_dropped_gather_barrier_is_flagged_at_its_exact_row() {
    let s = mutation_structure();
    for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
        let mut spec = row_spec(&s, direction);
        let (d, access) = first_gather_reading_previous(&spec);
        assert!(mutate::drop_barrier(&mut spec, d));
        assert_read_race(&spec, access);
    }
}

#[test]
fn a_dropped_chain_barrier_is_flagged_at_its_own_partial() {
    let s = mutation_structure();
    let mut spec = row_spec(&s, SweepDirection::Forward);
    let (d, access) = first_chain(&spec);
    assert!(mutate::drop_barrier(&mut spec, d));
    match assert_read_race(&spec, access) {
        ScheduleViolation::ReadRace {
            location,
            writer_phase,
            ..
        } => assert_eq!((location, writer_phase), (access.2, 1)),
        _ => unreachable!(),
    }
}

#[test]
fn a_super_row_on_two_workers_is_flagged_at_its_exact_row() {
    let s = mutation_structure();
    let mut spec = super_row_spec(&s);
    let (d, t, at, access) = first_self_reading_task(&spec);
    assert!(mutate::split_task(&mut spec, d, t, at));
    assert_read_race(&spec, access);
}

/// Compares `actual` against the committed snapshot, or rewrites it when
/// `UPDATE_SNAPSHOTS` is set (same contract as `contract_snapshots.rs`).
fn assert_snapshot(name: &str, actual: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("contract");
    let path = dir.join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(&dir).expect("tests/contract is creatable");
        std::fs::write(&path, actual).expect("snapshot is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; run `UPDATE_SNAPSHOTS=1 cargo test --test verify_schedule` to \
             create it, then commit the file",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "violation rendering drifted from {}; if intentional, regenerate with UPDATE_SNAPSHOTS=1 \
         and review the diff",
        path.display()
    );
}

/// Pins the `Display` rendering of each mutated schedule's violation: tools
/// and CI logs grep these lines, so the wording is part of the contract.
#[test]
fn violation_renderings_match_snapshot() {
    let s = mutation_structure();
    let mut lines = String::new();

    let mut spec = row_spec(&s, SweepDirection::Forward);
    let (d, _) = first_gather_reading_previous(&spec);
    mutate::drop_barrier(&mut spec, d);
    writeln!(
        lines,
        "drop_barrier (gather): {}",
        verify(&spec).unwrap_err()
    )
    .unwrap();

    let mut spec = row_spec(&s, SweepDirection::Forward);
    let (d, _) = first_chain(&spec);
    mutate::drop_barrier(&mut spec, d);
    writeln!(
        lines,
        "drop_barrier (chain): {}",
        verify(&spec).unwrap_err()
    )
    .unwrap();

    let mut spec = super_row_spec(&s);
    let (d, t, at, _) = first_self_reading_task(&spec);
    mutate::split_task(&mut spec, d, t, at);
    writeln!(lines, "split_task: {}", verify(&spec).unwrap_err()).unwrap();

    assert_snapshot("verify_violations.txt", &lines);
}

/// FNV-1a digest of a spec's chunk geometry: per stage (a gather dispatch
/// and the chain dispatch after it, if any) its pack, gather task count and
/// chain task count, per gather task its row range.
fn geometry_digest(spec: &ScheduleSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |v: usize| {
        for byte in (v as u64).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let is_chain =
        |tasks: &Vec<sts_k::verify::Task>| tasks.first().is_some_and(|t| t.kind == TaskKind::Chain);
    for (d, gathers) in spec.dispatches.iter().enumerate() {
        if is_chain(gathers) {
            continue;
        }
        let chains = spec.dispatches.get(d + 1).filter(|c| is_chain(c));
        feed(gathers[0].pack);
        feed(gathers.len());
        feed(chains.map_or(0, Vec::len));
        for task in gathers {
            feed(task.rows.first().map_or(usize::MAX, |rf| rf.row));
            feed(task.rows.len());
        }
    }
    h
}

/// The solve specs are cut by the same chunk functions the split driver
/// runs, and the super-row spec by the pack's super-rows. Their geometry (chunk
/// counts, chain counts, row ranges) must not drift; the digests below were
/// recorded from these fields alone, so a change to how the schedule is
/// synchronised leaves them untouched.
#[test]
fn plan_derived_specs_keep_the_recorded_chunk_geometry() {
    let s = mutation_structure();
    let mut computed = Vec::new();
    for &threads in &VERIFY_THREAD_SWEEP {
        computed.push(geometry_digest(&solve_spec(
            &s,
            threads,
            SweepDirection::Forward,
        )));
        computed.push(geometry_digest(&solve_spec(
            &s,
            threads,
            SweepDirection::Transpose,
        )));
    }
    computed.push(geometry_digest(&super_row_spec(&s)));
    assert_eq!(
        computed, RECORDED_GEOMETRY,
        "computed digests: {computed:#018x?}"
    );
}

/// `[forward, transpose]` per entry of `VERIFY_THREAD_SWEEP`, then the
/// super-row spec.
const RECORDED_GEOMETRY: [u64; 11] = [
    0x989f389ad85acac3,
    0xe0dd63c4c4da5203,
    0x2e053bf69d1ae914,
    0xe925493ef15f0c14,
    0x1fb2d0a2ab2f6c96,
    0x175a2d306cc88f96,
    0xc6cbf1ddb3ab179a,
    0xdc529562c8dbfb1a,
    0xb50e448c8e7d8c8a,
    0xa936aa753c2fd50a,
    0x5a3e56ca4b2b5513,
];
