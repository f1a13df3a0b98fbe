//! Static schedule verification: the property suite and the negative
//! mutations.
//!
//! Two halves:
//!
//! * **Positive**: over random lower-triangular operands, every structure the
//!   builder produces — both orderings, both multilevel depths, every
//!   [`Method`] — passes [`StsStructure::verify_schedule`], which checks the
//!   forward, transpose and factor schedules at each thread count of the
//!   sweep. The debug-build hooks inside `split()`/`transpose_split()` run
//!   the same check incidentally; this suite is the explicit, release-mode
//!   guarantee.
//! * **Negative**: corrupting a schedule spec — dropping a dependency edge,
//!   forging a ticket claim, reordering a gate publish — must be flagged with
//!   the *exact* `(pack, row)` of the first unordered access, and the
//!   violation renderings are pinned against a committed snapshot so report
//!   wording cannot drift silently.
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
    factor_spec, solve_spec, Method, Ordering, StsBuilder, StsStructure, SuperRowSizing,
};
use sts_k::matrix::generators;
use sts_k::verify::{mutate, verify, ScheduleSpec, ScheduleViolation};

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

    /// Every schedule the builder can produce verifies race- and
    /// deadlock-free: orderings × k × methods, each covering the full
    /// thread-count × direction sweep plus the factor schedules.
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
                prop_assert!(proof.chunks > 0);
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

/// The deterministic structure all mutation tests corrupt: big enough that
/// every pack shape (external gathers, in-pack chains, multi-chunk stages)
/// occurs, seeded so the flagged `(pack, row)` values are stable.
fn mutation_structure() -> StsStructure {
    let l = generators::random_lower_triangular(120, 3.0, 42).unwrap();
    Method::Sts3.build(&l, 8).unwrap()
}

/// Row-granularity forward spec of [`mutation_structure`]: the sharpest
/// readiness checks, and one row per chunk so a mutated chunk names its row.
fn row_spec(s: &StsStructure) -> ScheduleSpec {
    solve_spec(s, usize::MAX, SweepDirection::Forward)
}

/// First `(stage, chunk)` whose readiness wait is real (`dep > 0`); dropping
/// that edge must race, because at row granularity `dep` is the row's own
/// `ext_dep` — achieved by an actual external read.
fn first_dependent_chunk(spec: &ScheduleSpec) -> (usize, usize) {
    spec.stages
        .iter()
        .enumerate()
        .find_map(|(st, stage)| stage.chunks.iter().position(|c| c.dep > 0).map(|c| (st, c)))
        .expect("some chunk depends on an earlier pack")
}

/// First stage carrying phase-2 chain work, with its first ticket's first
/// row — the access a forged claim leaves unordered.
fn first_chain(spec: &ScheduleSpec) -> (usize, usize) {
    spec.stages
        .iter()
        .enumerate()
        .find_map(|(st, stage)| stage.chains.first().map(|ch| (st, ch.rows[0].row)))
        .expect("the suite structure has in-pack chain work")
}

#[test]
fn a_dropped_dependency_edge_is_flagged_at_its_exact_row() {
    let s = mutation_structure();
    let mut spec = row_spec(&s);
    let (st, c) = first_dependent_chunk(&spec);
    let pack = spec.stages[st].pack;
    let row = spec.stages[st].chunks[c].rows[0].row;
    assert!(mutate::drop_dependency(&mut spec, st, c));
    match verify(&spec) {
        Err(ScheduleViolation::ReadRace {
            pack: p,
            row: r,
            covered_stages,
            needed_stages,
            ..
        }) => {
            assert_eq!((p, r), (pack, row), "flagged the wrong task");
            assert_eq!(
                covered_stages + 1,
                needed_stages,
                "exactly one edge was dropped"
            );
        }
        other => panic!("expected a ReadRace at (pack {pack}, row {row}), got {other:?}"),
    }
}

#[test]
fn a_forged_ticket_claim_is_flagged_at_its_exact_row() {
    let s = mutation_structure();
    let mut spec = row_spec(&s);
    let (st, row) = first_chain(&spec);
    let pack = spec.stages[st].pack;
    assert!(mutate::forge_ticket(&mut spec, st, 0));
    match verify(&spec) {
        Err(ScheduleViolation::ForgedClaim {
            pack: p,
            row: r,
            location,
        }) => {
            assert_eq!((p, r), (pack, row), "flagged the wrong task");
            // The first unordered access is the ticket's own phase-1
            // partial, read and overwritten without the drain edge.
            assert_eq!(location, row);
        }
        other => panic!("expected a ForgedClaim at (pack {pack}, row {row}), got {other:?}"),
    }
}

#[test]
fn a_reordered_gate_publish_is_flagged_at_its_exact_row() {
    let s = mutation_structure();
    let mut spec = row_spec(&s);
    // Corrupt the publish of the chunk producing the first chain row: the
    // stage's own phase-2 correction then observes an unpublished partial,
    // which is the earliest reader in scan order.
    let (st, row) = first_chain(&spec);
    let pack = spec.stages[st].pack;
    let c = spec.stages[st]
        .chunks
        .iter()
        .position(|c| c.rows.iter().any(|rf| rf.row == row))
        .expect("every row has a phase-1 chunk");
    assert!(mutate::publish_early(&mut spec, st, c));
    match verify(&spec) {
        Err(ScheduleViolation::EarlyPublish {
            pack: p,
            row: r,
            writer_pack,
            ..
        }) => {
            assert_eq!((p, r), (pack, row), "flagged the wrong task");
            assert_eq!(
                writer_pack, pack,
                "the corrupt publisher is the chain's own stage"
            );
        }
        other => panic!("expected an EarlyPublish at (pack {pack}, row {row}), got {other:?}"),
    }
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

    let mut spec = row_spec(&s);
    let (st, c) = first_dependent_chunk(&spec);
    mutate::drop_dependency(&mut spec, st, c);
    writeln!(lines, "drop_dependency: {}", verify(&spec).unwrap_err()).unwrap();

    let mut spec = row_spec(&s);
    let (st, _) = first_chain(&spec);
    mutate::forge_ticket(&mut spec, st, 0);
    writeln!(lines, "forge_ticket: {}", verify(&spec).unwrap_err()).unwrap();

    let mut spec = row_spec(&s);
    let (st, row) = first_chain(&spec);
    let c = spec.stages[st]
        .chunks
        .iter()
        .position(|c| c.rows.iter().any(|rf| rf.row == row))
        .expect("every row has a phase-1 chunk");
    mutate::publish_early(&mut spec, st, c);
    writeln!(lines, "publish_early: {}", verify(&spec).unwrap_err()).unwrap();

    assert_snapshot("verify_violations.txt", &lines);
}

/// FNV-1a digest of a spec's chunk geometry: per stage its pack, chunk
/// count and chain count, per chunk its row range and readiness.
fn geometry_digest(spec: &ScheduleSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |v: usize| {
        for byte in (v as u64).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for stage in &spec.stages {
        feed(stage.pack);
        feed(stage.chunks.len());
        feed(stage.chains.len());
        for chunk in &stage.chunks {
            feed(chunk.rows.first().map_or(usize::MAX, |rf| rf.row));
            feed(chunk.rows.len());
            feed(chunk.dep);
        }
    }
    h
}

/// The specs are cut by the same chunk functions and factor chunking the
/// kernels run. Their geometry (chunk counts, row ranges, readiness) must equal what
/// the verifier's own copy of the chunk formula produced before it was
/// removed; the digests below were captured at that commit.
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
        computed.push(geometry_digest(&factor_spec(&s, threads)));
    }
    assert_eq!(
        computed, RECORDED_GEOMETRY,
        "computed digests: {computed:#018x?}"
    );
}

/// `[forward, transpose, factor]` per entry of `VERIFY_THREAD_SWEEP`.
const RECORDED_GEOMETRY: [u64; 15] = [
    0xefe46b2d59c4bec4,
    0x47a85d834e521084,
    0x93d193a21ac10084,
    0xf7497d9f4ed6bb55,
    0x83ac00422611b9b4,
    0x8ed7385cf154381a,
    0xf51211dc83c525b6,
    0xd80b490d43777396,
    0x7b006baf02bc7811,
    0x5c708c9260ac1b9c,
    0x3c68a2ccc87aec18,
    0x7b006baf02bc7811,
    0x3485ed6f68a1d2c9,
    0x840c4b34729eefee,
    0x7b006baf02bc7811,
];
