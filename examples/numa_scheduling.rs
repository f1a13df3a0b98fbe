//! NUMA-aware scheduling demo: the In-Pack model on a line DAR, and the
//! effect of the intra-pack schedule on the real solver's time on this host.
//!
//! Run with `cargo run --release --example numa_scheduling`.

use std::time::Instant;

use sts_k::core::{Method, ParallelSolver};
use sts_k::matrix::{generators, ops};
use sts_k::numa::affinity::available_cores;
use sts_k::numa::Schedule;
use sts_k::sched::cost::InPackCostModel;
use sts_k::sched::dar::DarGraph;
use sts_k::sched::exact::optimal_schedule;
use sts_k::sched::heuristic::{affinity_list_schedule, block_schedule, round_robin_schedule};

fn main() {
    // Part 1: the In-Pack assignment problem on a line DAR (Figure 5).
    let model = InPackCostModel {
        w: 200.0,
        e: 1.0,
        r: 4.0,
    };
    let (m, q) = (6usize, 2usize);
    let dar = DarGraph::line(m * q);
    println!(
        "In-Pack problem: {} tasks on a line DAR, {} processors",
        m * q,
        q
    );
    let block = block_schedule(m * q, q);
    let rr = round_robin_schedule(m * q, q);
    let aff = affinity_list_schedule(&dar, q, &model);
    let opt = optimal_schedule(&dar, q, &model);
    println!(
        "  block schedule cost:        {:>8.0}",
        model.makespan(&dar, &block, q)
    );
    println!(
        "  round-robin schedule cost:  {:>8.0}",
        model.makespan(&dar, &rr, q)
    );
    println!(
        "  affinity list schedule:     {:>8.0}",
        model.makespan(&dar, &aff, q)
    );
    println!("  optimal (exhaustive):       {:>8.0}", opt.makespan);

    // Part 2: STS-3 on a mesh matrix, solved by the pool under each of the
    // four intra-pack schedules and timed on this host. Every answer is
    // checked against the sequential solve before its time is printed.
    let a = generators::triangulated_grid(48, 48, 7).expect("grid dimensions are valid");
    let l = generators::lower_operand(&a).expect("solvable operand");
    let sts = Method::Sts3.build(&l, 80).expect("builder succeeds");
    let x_true: Vec<f64> = (0..sts.n()).map(|i| 1.0 + (i % 7) as f64).collect();
    let b = sts.lower().multiply(&x_true).expect("dimensions agree");
    let reference = sts.solve_sequential(&b).expect("sequential solve succeeds");
    let threads = available_cores();
    const REPEATS: u32 = 20;
    println!(
        "\nmatrix: n = {}, nnz = {}; STS-3 packs = {}",
        l.n(),
        l.nnz(),
        sts.num_packs()
    );
    println!("STS-3 on this host, {threads} threads, different intra-pack schedules:");
    for (name, schedule) in [
        ("static", Schedule::Static),
        ("dynamic,1", Schedule::Dynamic { chunk: 1 }),
        ("dynamic,32", Schedule::Dynamic { chunk: 32 }),
        ("guided,1", Schedule::Guided { min_chunk: 1 }),
    ] {
        let solver = ParallelSolver::new(threads, schedule);
        let x = solver.solve(&sts, &b).expect("parallel solve succeeds");
        assert!(
            ops::relative_error_inf(&x, &reference) <= 1e-12,
            "{name}: the parallel answer differs from the sequential one"
        );
        let start = Instant::now();
        for _ in 0..REPEATS {
            solver.solve(&sts, &b).expect("parallel solve succeeds");
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(REPEATS);
        println!("  {name:<12} {us:>10.1} us per solve");
    }
}
