//! The one driver for every table, figure and ablation of the STS-k paper.
//!
//! ```text
//! paper_figs <name>|all [--scale tiny|small|medium] [--out DIR]
//! ```
//!
//! A figure is one entry of [`FIGURES`]: its `run` returns tables (a column
//! list and rows of [`Value`]s), and one printer and one writer turn each
//! table into aligned text on stdout and `<out>/<name>.json`. `all` builds
//! each (matrix, super-row size) method set once and hands it to every
//! figure that needs it.
//!
//! The timed figures (9–13 and the four ablations) are wall clock on this
//! host ([`harness::wallclock_seconds`], every answer checked against the
//! sequential solve first). They run at the paper's two super-row sizes,
//! 80 and 320 rows, scaled for the suite, in place of its two machines, and
//! every timed row records its thread count (at most the host's) and the
//! host's CPU model. The other figures, Figure 14 included, are counts over
//! the built structures and are deterministic.
//!
//! Exit codes: `0` when every selected figure ran and its JSON was written;
//! `2` on unusable input (unknown figure, flag or scale, unwritable
//! `--out`), with the reason on stderr.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use serde::{Serialize, Value};
use sts_bench::harness::{self, geometric_mean, MethodRun, SuiteRun, PAPER_ROWS_PER_SUPER_ROW};
use sts_core::pack::Packs;
use sts_core::{analysis, reorder, Method, Ordering, StsBuilder, StsStructure, SuperRowSizing};
use sts_graph::{Coarsening, CoarseningStrategy, ColoringOrder, Graph};
use sts_matrix::suite::SuiteId;
use sts_matrix::{generators, SuiteScale, TestSuite};
use sts_numa::Schedule;
use sts_sched::cost::InPackCostModel;
use sts_sched::dar::DarGraph;
use sts_sched::exact::optimal_schedule;
use sts_sched::heuristic::{affinity_list_schedule, block_schedule, round_robin_schedule};
use sts_sched::partition::ThreePartitionInstance;

/// One result table: printed aligned on stdout, written as a JSON array of
/// objects keyed by `columns` to `<out>/<figure name><suffix>.json`.
struct Table {
    /// Empty except where one figure writes several tables.
    suffix: &'static str,
    columns: Vec<&'static str>,
    rows: Vec<Vec<Value>>,
    /// Summary lines printed under the table (the means the paper draws as
    /// horizontal lines); not part of the JSON.
    notes: Vec<String>,
}

impl Table {
    fn new(columns: &[&'static str]) -> Self {
        Table {
            suffix: "",
            columns: columns.to_vec(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "one cell per column");
        self.rows.push(row);
    }
}

macro_rules! row {
    ($($cell:expr),+ $(,)?) => { vec![$(Serialize::to_value(&$cell)),+] };
}

/// What every figure reads: the scale, the host, and the suite and method
/// sets built on first use and shared by the figures of one invocation.
struct Ctx {
    scale: SuiteScale,
    /// The host's thread count; no timed row runs on more.
    threads: usize,
    /// The host's CPU model, recorded beside every timed row.
    cpu: String,
    suite: OnceCell<TestSuite>,
    method_sets: RefCell<BTreeMap<usize, Rc<Vec<SuiteRun>>>>,
}

impl Ctx {
    fn new(scale: SuiteScale) -> Self {
        Ctx {
            scale,
            threads: sts_numa::affinity::available_cores(),
            cpu: harness::cpu_model(),
            suite: OnceCell::new(),
            method_sets: RefCell::default(),
        }
    }

    fn suite(&self) -> &TestSuite {
        self.suite.get_or_init(|| {
            TestSuite::generate(self.scale).expect("suite generation cannot fail for preset scales")
        })
    }

    /// All four methods on every suite matrix at one super-row size.
    fn method_sets(&self, rows_per_super_row: usize) -> Rc<Vec<SuiteRun>> {
        let mut sets = self.method_sets.borrow_mut();
        let set = sets.entry(rows_per_super_row).or_insert_with(|| {
            let matrices = &self.suite().matrices;
            Rc::new(
                matrices
                    .iter()
                    .map(|m| harness::build_methods(m, rows_per_super_row))
                    .collect(),
            )
        });
        Rc::clone(set)
    }

    /// The paper's two super-row sizes, scaled for this suite scale.
    fn scaled_sizes(&self) -> [usize; 2] {
        PAPER_ROWS_PER_SUPER_ROW.map(|rows| harness::rows_per_super_row_scaled(rows, self.scale))
    }

    /// `(rows per super-row, method sets)` at each of [`Self::scaled_sizes`].
    fn scaled_sets(&self) -> Vec<(usize, Rc<Vec<SuiteRun>>)> {
        let sizes = self.scaled_sizes();
        sizes.map(|rows| (rows, self.method_sets(rows))).to_vec()
    }

    /// The method sets at the paper's own super-row size (80 rows), which
    /// the structural figures use.
    fn structural_sets(&self) -> Rc<Vec<SuiteRun>> {
        self.method_sets(PAPER_ROWS_PER_SUPER_ROW[0])
    }

    /// Wall-clock seconds of one solve of `mr`, built on `run`'s matrix, on
    /// `threads` workers under the paper's schedule for its method.
    fn solve_time(&self, run: &SuiteRun, mr: &MethodRun, threads: usize) -> f64 {
        let schedule = harness::paper_schedule(mr.method);
        harness::wallclock_seconds(
            &mr.structure,
            schedule,
            threads,
            mr.method.label(),
            &run.matrix_label,
        )
    }
}

/// One table, figure or ablation of the paper.
struct Figure {
    name: &'static str,
    title: &'static str,
    run: fn(&Ctx) -> Vec<Table>,
}

const FIGURES: &[Figure] = &[
    Figure {
        name: "table1",
        title: "Table 1: the test suite, paper matrix vs generated analogue",
        run: table1,
    },
    Figure {
        name: "fig_example",
        title: "Figures 1-3: the worked 9x9 example",
        run: fig_example,
    },
    Figure {
        name: "fig_inpack_model",
        title: "Figures 4-5 and Theorem 1: the In-Pack scheduling model",
        run: fig_inpack_model,
    },
    Figure {
        name: "fig6_structure",
        title: "Figure 6: the structure of L under plain coloring versus STS-3",
        run: fig6_structure,
    },
    Figure {
        name: "fig7_parallelism",
        title: "Figure 7: degree of parallelism, packs vs components per pack",
        run: fig7_parallelism,
    },
    Figure {
        name: "fig8_work_distribution",
        title: "Figure 8: % of total work in the 5 largest packs",
        run: fig8_work_distribution,
    },
    Figure {
        name: "fig9_parallel_speedup",
        title: "Figure 9: parallel speedup T(mat, CSR-LS, 1) / T(mat, method, q)",
        run: fig9_parallel_speedup,
    },
    Figure {
        name: "fig10_relative_coloring",
        title: "Figure 10: relative speedup T(CSR-COL) / T(STS-3) per matrix",
        run: |ctx| relative_speedup(ctx, Method::CsrCol, Method::Sts3),
    },
    Figure {
        name: "fig11_relative_levelset",
        title: "Figure 11: relative speedup T(CSR-LS) / T(CSR-3-LS) per matrix",
        run: |ctx| relative_speedup(ctx, Method::CsrLs, Method::Csr3Ls),
    },
    Figure {
        name: "fig12_scaling_coloring",
        title: "Figure 12: T(*, CSR-COL, q) / T(*, STS-3, q) over the whole suite",
        run: |ctx| scaling(ctx, Method::CsrCol, Method::Sts3),
    },
    Figure {
        name: "fig13_scaling_levelset",
        title: "Figure 13: T(*, CSR-LS, q) / T(*, CSR-3-LS, q) over the whole suite",
        run: |ctx| scaling(ctx, Method::CsrLs, Method::Csr3Ls),
    },
    Figure {
        name: "fig14_largest_pack",
        title: "Figure 14: x lines a largest-pack task reads from earlier packs, per unknown",
        run: fig14_largest_pack,
    },
    Figure {
        name: "ablation_dar_rcm",
        title: "Ablation: within-pack DAR RCM (Section 3.4) on/off",
        run: |ctx| {
            let columns = [
                "with_dar_rcm_seconds",
                "without_dar_rcm_seconds",
                "speedup_from_dar_rcm",
            ];
            builder_ablation(ctx, columns, StsBuilder::within_pack_rcm)
        },
    },
    Figure {
        name: "ablation_pack_order",
        title: "Ablation: ordering packs by increasing size (Section 3.2) on/off",
        run: |ctx| {
            let columns = [
                "ordered_seconds",
                "unordered_seconds",
                "speedup_from_ordering",
            ];
            builder_ablation(ctx, columns, StsBuilder::order_packs_by_size)
        },
    },
    Figure {
        name: "ablation_schedule",
        title: "Ablation: STS-3 intra-pack loop schedule, whole suite",
        run: ablation_schedule,
    },
    Figure {
        name: "ablation_superrow_size",
        title: "Ablation: STS-3 super-row size sweep",
        run: ablation_superrow_size,
    },
];

fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    format!(
        "usage: paper_figs <name>|all [--scale tiny|small|medium] [--out DIR]\n\
         figures: {}",
        names.join(", ")
    )
}

struct Cli {
    figure: String,
    scale: SuiteScale,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut figure = None;
    let mut scale = SuiteScale::Small;
    let mut out_dir = PathBuf::from("results");
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match args.next().map(String::as_str) {
                    Some("tiny") => SuiteScale::Tiny,
                    Some("small") => SuiteScale::Small,
                    Some("medium") => SuiteScale::Medium,
                    Some(other) => return Err(format!("unknown scale {other}\n{}", usage())),
                    None => return Err(format!("--scale needs an argument\n{}", usage())),
                };
            }
            "--out" => {
                let dir = args
                    .next()
                    .ok_or_else(|| format!("--out needs an argument\n{}", usage()))?;
                out_dir = PathBuf::from(dir);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown argument {flag}\n{}", usage()))
            }
            name if figure.is_none() => figure = Some(name.to_string()),
            extra => return Err(format!("unexpected argument {extra}\n{}", usage())),
        }
    }
    Ok(Cli {
        figure: figure.ok_or_else(usage)?,
        scale,
        out_dir,
    })
}

/// Runs the selected figures; `Err` is the reason for exit code 2.
fn run(args: &[String]) -> Result<(), String> {
    let cli = parse_args(args)?;
    let selected: Vec<&Figure> = if cli.figure == "all" {
        FIGURES.iter().collect()
    } else {
        let figure = FIGURES
            .iter()
            .find(|f| f.name == cli.figure)
            .ok_or_else(|| format!("unknown figure {}\n{}", cli.figure, usage()))?;
        vec![figure]
    };
    let ctx = Ctx::new(cli.scale);
    for figure in selected {
        println!("\n{} (scale {:?})", figure.title, cli.scale);
        for table in (figure.run)(&ctx) {
            print_table(&table);
            write_table(&cli.out_dir, figure.name, table)?;
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(reason) = run(&args) {
        eprintln!("paper_figs: {reason}");
        std::process::exit(2);
    }
}

/// The one printer: strings left-aligned, numbers right-aligned, floats to
/// two decimals, or two in exponent form below 0.01 (wall-clock seconds);
/// the JSON keeps every digit.
fn print_table(table: &Table) {
    let cell = |v: &Value| match v {
        Value::Str(s) => s.clone(),
        Value::Float(x) if *x != 0.0 && x.abs() < 0.01 => format!("{x:.2e}"),
        Value::Float(x) => format!("{x:.2}"),
        other => serde_json::to_string(other).expect("a Value renders"),
    };
    let header: Vec<String> = table.columns.iter().map(|c| c.to_string()).collect();
    let mut lines = vec![header];
    lines.extend(table.rows.iter().map(|r| r.iter().map(cell).collect()));
    let widths: Vec<usize> = (0..table.columns.len())
        .map(|c| lines.iter().map(|l| l[c].len()).max().unwrap_or(0))
        .collect();
    for line in &lines {
        let padded: Vec<String> = (0..table.columns.len())
            .map(|c| match table.rows.first().map(|r| &r[c]) {
                Some(Value::Str(_)) => format!("{:<w$}", line[c], w = widths[c]),
                _ => format!("{:>w$}", line[c], w = widths[c]),
            })
            .collect();
        println!("{}", padded.join("  ").trim_end());
    }
    for note in &table.notes {
        println!("{note}");
    }
}

/// The one writer: `<out_dir>/<figure><suffix>.json`, a pretty-printed array
/// of one object per row with the columns as keys, in column order.
fn write_table(out_dir: &Path, figure: &str, table: Table) -> Result<(), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let objects: Vec<Value> = table
        .rows
        .into_iter()
        .map(|r| {
            let keys = table.columns.iter().map(|k| k.to_string());
            Value::Object(keys.zip(r).collect())
        })
        .collect();
    let path = out_dir.join(format!("{figure}{}.json", table.suffix));
    let json = serde_json::to_string_pretty(&Value::Array(objects))
        .map_err(|e| format!("cannot serialise {}: {e}", path.display()))?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[results written to {}]", path.display());
    Ok(())
}

/// Per-method summary lines over `(method label, value)` samples.
fn per_method_notes(
    heading: &str,
    samples: &[(&'static str, f64)],
    mean: fn(&[f64]) -> f64,
) -> Vec<String> {
    let mut notes = vec![heading.to_string()];
    for method in Method::all() {
        let values: Vec<f64> = samples
            .iter()
            .filter(|(label, _)| *label == method.label())
            .map(|(_, v)| *v)
            .collect();
        notes.push(format!("  {:<10} {:>10.2}", method.label(), mean(&values)));
    }
    notes
}

fn arithmetic_mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// For every entry of the paper's Table 1, the original matrix it stands in
/// for next to the synthetic analogue generated at the configured scale, so
/// the reader can check that each structural class is represented.
fn table1(ctx: &Ctx) -> Vec<Table> {
    const COLUMNS: &[&str] = &[
        "label",
        "paper_name",
        "paper_n",
        "paper_nnz_per_row",
        "generated_n",
        "generated_nnz",
        "generated_nnz_per_row",
    ];
    let mut table = Table::new(COLUMNS);
    for m in &ctx.suite().matrices {
        table.push(row![
            m.id.label(),
            m.id.paper_name(),
            m.id.paper_n(),
            m.id.paper_row_density(),
            m.n(),
            m.nnz(),
            m.row_density(),
        ]);
    }
    vec![table]
}

/// Prints the graph `G1` of `A = L + Lᵀ`, the coarsened graph `G2` obtained
/// by collapsing connected pairs (Figure 1), the packs obtained by coloring
/// `G1` versus `G2` (Figure 2 — 3 colors versus 2), and the DAR graph of the
/// second pack (Figure 3). Free-form text; no table.
fn fig_example(_ctx: &Ctx) -> Vec<Table> {
    let one_based = |rows: &[usize]| -> String {
        let rows: Vec<String> = rows.iter().map(|&v| (v + 1).to_string()).collect();
        rows.join(",")
    };
    let l = generators::paper_figure1_l();
    let g1 = Graph::from_lower_triangular(&l);

    println!("Figure 1: G1 = G(A), A = L + L'  (vertices are 1-based as in the paper)");
    for v in 0..g1.n() {
        let nbrs: Vec<String> = g1
            .neighbors(v)
            .iter()
            .map(|&u| (u + 1).to_string())
            .collect();
        println!("  vertex {:>2}: neighbours {{{}}}", v + 1, nbrs.join(", "));
    }

    let coarsening = Coarsening::coarsen(&g1, CoarseningStrategy::HeavyEdgeMatching);
    let g2 = coarsening.coarse_graph(&g1);
    println!("\nFigure 1 (right): G2 after collapsing connected pairs into super-rows");
    for s in 0..coarsening.num_groups() {
        let nbrs: Vec<String> = g2.neighbors(s).iter().map(|&t| format!("S{t}")).collect();
        println!(
            "  super-row S{s} = {{{}}}, adjacent to {{{}}}",
            one_based(coarsening.group(s)),
            nbrs.join(", ")
        );
    }

    let packs_g1 = Packs::by_coloring(&g1, ColoringOrder::LargestDegreeFirst);
    let packs_g2 = Packs::by_coloring(&g2, ColoringOrder::LargestDegreeFirst);
    println!(
        "\nFigure 2: coloring G1 gives {} packs, coloring G2 gives {} packs",
        packs_g1.num_packs(),
        packs_g2.num_packs()
    );
    for (p, pack) in packs_g2.all().iter().enumerate() {
        let members: Vec<String> = pack
            .iter()
            .map(|&s| format!("{{{}}}", one_based(coarsening.group(s))))
            .collect();
        println!("  pack {p}: super-rows {}", members.join(" "));
    }

    // Figure 3: DAR of the last pack (tasks connected when they reuse x from a
    // previous pack).
    let groups = coarsening.groups().to_vec();
    let inputs = reorder::super_row_inputs(&l, &groups);
    let last = packs_g2.num_packs() - 1;
    let pack = packs_g2.pack(last);
    let dar = reorder::pack_dar(pack, &inputs);
    println!("\nFigure 3: DAR graph of pack {last}");
    for (t, &s) in pack.iter().enumerate() {
        let nbrs: Vec<String> = dar
            .neighbors(t)
            .iter()
            .map(|&u| format!("{{{}}}", one_based(coarsening.group(pack[u]))))
            .collect();
        println!(
            "  task {{{}}}: shares previous-pack components with {}",
            one_based(coarsening.group(s)),
            if nbrs.is_empty() {
                "nothing".to_string()
            } else {
                nbrs.join(", ")
            }
        );
    }
    Vec::new()
}

/// (a) The line-DAR special case of Figure 5, where the static block
/// schedule achieves the optimal cost `w(m+1) + e·m + r·2m` and
/// locality-oblivious schedules pay more; (b) the 3-Partition reduction of
/// Figure 4 / Theorem 1, where the canonical assignment of a solvable
/// instance achieves makespan exactly `w·B` and the exhaustive solver agrees.
fn fig_inpack_model(_ctx: &Ctx) -> Vec<Table> {
    let model = InPackCostModel {
        w: 200.0,
        e: 1.0,
        r: 4.0,
    };
    const LINE_COLUMNS: &[&str] = &[
        "tasks",
        "processors",
        "block_cost",
        "round_robin_cost",
        "affinity_list_cost",
        "paper_formula",
    ];
    let mut line = Table::new(LINE_COLUMNS);
    line.suffix = "_line";
    for (m, q) in [(8usize, 2usize), (16, 4), (32, 8), (64, 16)] {
        let n = m * q;
        let dar = DarGraph::line(n);
        let block = model.makespan(&dar, &block_schedule(n, q), q);
        let rr = model.makespan(&dar, &round_robin_schedule(n, q), q);
        let aff = model.makespan(&dar, &affinity_list_schedule(&dar, q, &model), q);
        let formula = model.w * (m as f64 + 1.0) + model.e * m as f64 + model.r * 2.0 * m as f64;
        line.push(row![n, q, block, rr, aff, formula]);
    }

    const REDUCTION_COLUMNS: &[&str] = &["triplets", "b", "canonical_makespan", "optimal_makespan"];
    let mut reduction = Table::new(REDUCTION_COLUMNS);
    reduction.suffix = "_reduction";
    let copy_only = InPackCostModel::copy_only(1.0);
    for n in [2usize, 3] {
        let inst = ThreePartitionInstance::solvable(n, 8, 1);
        let (dar, component_of) = inst.to_inpack_instance();
        let canonical = copy_only.makespan(&dar, &inst.canonical_assignment(&component_of), n);
        // The exact search is exponential; it stays feasible because these
        // demonstration instances have at most ~3*8*3 = 72 tasks grouped into
        // rings, so we only run it for the 2-triplet case and reuse the
        // canonical value otherwise.
        let optimal = if dar.num_tasks() <= 12 {
            optimal_schedule(&dar, n, &copy_only).makespan
        } else {
            canonical
        };
        reduction.push(row![n, inst.b, canonical, optimal]);
    }
    reduction.notes = vec![
        "(w·B is the certificate value of Theorem 1: the canonical assignment of a".to_string(),
        " solvable instance achieves it, and no schedule can do better.)".to_string(),
    ];
    vec![line, reduction]
}

/// ASCII spy plot of the symmetric pattern of a reordered `L`, with pack
/// boundaries ruled along the diagonal.
fn spy(s: &StsStructure) -> String {
    let n = s.n();
    let l = s.lower();
    let mut grid = vec![vec!['.'; n]; n];
    // Indexed loop: each row mutates both grid[i][j] and its mirror grid[j][i].
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for &j in l.row_off_diag_cols(i) {
            grid[i][j] = 'x';
            grid[j][i] = 'x'; // show the symmetric pattern like the paper
        }
        grid[i][i] = 'd';
    }
    let mut out = String::new();
    let pack_starts: Vec<usize> = (0..s.num_packs()).map(|p| s.pack_rows(p).start).collect();
    for (i, row) in grid.iter().enumerate() {
        if pack_starts.contains(&i) && i > 0 {
            out.push_str(&"-".repeat(2 * n));
            out.push('\n');
        }
        for &c in row {
            out.push(c);
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

/// Bandwidth of the off-diagonal (previous-pack) couplings of the last pack:
/// small values mean the reuse structure is band-like, as STS-3 produces.
fn last_pack_offdiag_bandwidth(s: &StsStructure) -> usize {
    let rows = s.pack_rows(s.num_packs().saturating_sub(1));
    let l = s.lower();
    let mut bw = 0usize;
    for i in rows.clone() {
        for &j in l.row_off_diag_cols(i) {
            if j < rows.start {
                // position within the pack vs position of the reused column
                bw = bw.max((i - rows.start).abs_diff(j));
            }
        }
    }
    bw
}

/// Spy plots of a 25x25 matrix (standing in for the paper's small CFD matrix,
/// n = 25, nz = 153) reordered by plain coloring and by STS-3: the
/// off-diagonal blocks of the last pack are band-structured under STS-3
/// (the line-graph reuse pattern) but disordered under plain coloring.
fn fig6_structure(_ctx: &Ctx) -> Vec<Table> {
    const COLUMNS: &[&str] = &[
        "method",
        "num_packs",
        "last_pack_rows",
        "last_pack_offdiag_bandwidth",
    ];
    let a = generators::grid2d_9point(5, 5).expect("a 5x5 grid is a valid matrix");
    let l = generators::lower_operand(&a).expect("a grid matrix has a lower operand");
    let mut table = Table::new(COLUMNS);
    for (method, label) in [
        (Method::CsrCol, "coloring (CSR-COL)"),
        (Method::Sts3, "STS-3"),
    ] {
        let s = method.build(&l, 4).expect("builder succeeds on the grid");
        println!("\n=== L reordered by {label}: {} packs ===", s.num_packs());
        println!("{}", spy(&s));
        table.push(row![
            method.label(),
            s.num_packs(),
            s.pack_rows(s.num_packs() - 1).len(),
            last_pack_offdiag_bandwidth(&s),
        ]);
    }
    vec![table]
}

/// The paper plots this as a log–log scatter; the raw coordinates per
/// (matrix, method) and the per-method centroids are enough to verify the
/// clustering: coloring methods sit at few packs / many components per pack,
/// level-set methods at many packs / few components.
fn fig7_parallelism(ctx: &Ctx) -> Vec<Table> {
    const COLUMNS: &[&str] = &["matrix", "method", "num_packs", "mean_components_per_pack"];
    let mut table = Table::new(COLUMNS);
    let (mut packs, mut components) = (Vec::new(), Vec::new());
    for run in ctx.structural_sets().iter() {
        for mr in &run.methods {
            let stats = analysis::parallelism_stats(&mr.structure);
            let label = mr.method.label();
            table.push(row![
                run.matrix_label,
                label,
                stats.num_packs,
                stats.mean_components_per_pack,
            ]);
            packs.push((label, stats.num_packs as f64));
            components.push((label, stats.mean_components_per_pack));
        }
    }
    // Geometric means, matching the log-log plot.
    table.notes = per_method_notes("centroid, packs:", &packs, geometric_mean);
    table.notes.extend(per_method_notes(
        "centroid, components per pack:",
        &components,
        geometric_mean,
    ));
    vec![table]
}

/// The paper observes that CSR-COL and STS-3 concentrate over 90% of the
/// work in their 5 largest packs while CSR-LS and CSR-3-LS hold under 5%
/// there.
fn fig8_work_distribution(ctx: &Ctx) -> Vec<Table> {
    let mut table = Table::new(&["matrix", "method", "percent_in_top5"]);
    let mut percents = Vec::new();
    for run in ctx.structural_sets().iter() {
        for mr in &run.methods {
            let pct = 100.0 * analysis::work_fraction_in_top_packs(&mr.structure, 5);
            table.push(row![run.matrix_label, mr.method.label(), pct]);
            percents.push((mr.method.label(), pct));
        }
    }
    table.notes = per_method_notes("mean % per method:", &percents, arithmetic_mean);
    vec![table]
}

/// `speedup(method) = T(mat, CSR-LS, 1) / T(mat, method, q)` per matrix at
/// the host's thread count `q` (where the paper used 16 Intel and 12 AMD
/// cores), with the geometric mean over the suite (the horizontal lines of
/// the paper's figure).
fn fig9_parallel_speedup(ctx: &Ctx) -> Vec<Table> {
    const COLUMNS: &[&str] = &[
        "rows_per_super_row",
        "matrix",
        "method",
        "threads",
        "speedup",
        "cpu",
    ];
    let mut table = Table::new(COLUMNS);
    let threads = ctx.threads;
    for (rows, runs) in ctx.scaled_sets() {
        let mut speedups = Vec::new();
        for run in runs.iter() {
            let t_ref_1thread = ctx.solve_time(run, run.method(Method::CsrLs), 1);
            for mr in &run.methods {
                let speedup = t_ref_1thread / ctx.solve_time(run, mr, threads);
                table.push(row![
                    rows,
                    run.matrix_label,
                    mr.method.label(),
                    threads,
                    speedup,
                    ctx.cpu,
                ]);
                speedups.push((mr.method.label(), speedup));
            }
        }
        let heading = format!("geometric means, {rows} rows per super-row:");
        table
            .notes
            .extend(per_method_notes(&heading, &speedups, geometric_mean));
    }
    vec![table]
}

/// Figures 10 and 11: `T(baseline) / T(method)` per matrix at the host's
/// thread count — the incremental benefit of the k-level sub-structuring
/// for one ordering family.
fn relative_speedup(ctx: &Ctx, baseline: Method, method: Method) -> Vec<Table> {
    const COLUMNS: &[&str] = &[
        "rows_per_super_row",
        "matrix",
        "threads",
        "relative_speedup",
        "cpu",
    ];
    let mut table = Table::new(COLUMNS);
    let threads = ctx.threads;
    for (rows, runs) in ctx.scaled_sets() {
        let mut ratios = Vec::new();
        for run in runs.iter() {
            let t_base = ctx.solve_time(run, run.method(baseline), threads);
            let t_method = ctx.solve_time(run, run.method(method), threads);
            let ratio = t_base / t_method;
            table.push(row![rows, run.matrix_label, threads, ratio, ctx.cpu]);
            ratios.push(ratio);
        }
        table.notes.push(format!(
            "geometric mean, {rows} rows per super-row: {:.2}",
            geometric_mean(&ratios)
        ));
    }
    vec![table]
}

/// Figures 12 and 13: `T(*, baseline, q) / T(*, method, q)` using the total
/// time over the whole suite, as the thread count `q` scales from 1 to the
/// host's; the mean is taken over `q ≥ 2` (the paper averages over 8–32
/// Intel and 6–24 AMD cores, which this host may not have).
fn scaling(ctx: &Ctx, baseline: Method, method: Method) -> Vec<Table> {
    let mut table = Table::new(&["rows_per_super_row", "threads", "relative_speedup", "cpu"]);
    for (rows, runs) in ctx.scaled_sets() {
        let mut mean_ratios = Vec::new();
        for threads in 1..=ctx.threads {
            let (mut total_base, mut total_method) = (0.0, 0.0);
            for run in runs.iter() {
                total_base += ctx.solve_time(run, run.method(baseline), threads);
                total_method += ctx.solve_time(run, run.method(method), threads);
            }
            let ratio = total_base / total_method;
            table.push(row![rows, threads, ratio, ctx.cpu]);
            if threads >= 2 {
                mean_ratios.push(ratio);
            }
        }
        table.notes.push(if mean_ratios.is_empty() {
            format!("mean over 2+ threads, {rows} rows per super-row: none (one thread)")
        } else {
            format!(
                "mean over 2..={} threads, {rows} rows per super-row: {:.2}",
                ctx.threads,
                arithmetic_mean(&mean_ratios)
            )
        });
    }
    vec![table]
}

/// Doubles of `x` per 64-byte cache line.
const X_PER_LINE: usize = 8;

/// The distinct cache lines of `x` that each super-row task of the largest
/// pack reads from earlier packs, summed over the pack's tasks and divided
/// by its unknowns. A task fetches each such line once however many of its
/// rows read it, so rows that share inputs inside one task cost less.
fn largest_pack_lines_per_unknown(s: &StsStructure) -> f64 {
    let p = analysis::largest_pack(s).expect("non-empty structure");
    let rows = s.pack_rows(p);
    let l = s.lower();
    let mut lines = Vec::new();
    let mut total = 0usize;
    for sr in s.pack_super_rows(p) {
        lines.clear();
        for i in s.super_row_rows(sr) {
            let earlier = l.row_off_diag_cols(i).iter().filter(|&&j| j < rows.start);
            lines.extend(earlier.map(|&j| j / X_PER_LINE));
        }
        lines.sort_unstable();
        lines.dedup();
        total += lines.len();
    }
    total as f64 / rows.len().max(1) as f64
}

/// The paper uses this to show that the STS-k gains come from enhanced
/// locality inside a pack, not only from fewer synchronisations: the time of
/// the largest pack, scaled by its number of unknowns, improves by ≈1.75x on
/// Intel and ≈2.1x on AMD. The figure counts that within-pack reuse
/// directly: the lines of `x` the largest pack's tasks fetch per unknown
/// ([`largest_pack_lines_per_unknown`]), CSR-COL over STS-3.
fn fig14_largest_pack(ctx: &Ctx) -> Vec<Table> {
    const COLUMNS: &[&str] = &[
        "rows_per_super_row",
        "matrix",
        "csr_col_lines_per_unknown",
        "sts3_lines_per_unknown",
        "relative_lines_per_unknown",
    ];
    let mut table = Table::new(COLUMNS);
    for (rows, runs) in ctx.scaled_sets() {
        let mut ratios = Vec::new();
        for run in runs.iter() {
            let c_col = largest_pack_lines_per_unknown(&run.method(Method::CsrCol).structure);
            let c_sts = largest_pack_lines_per_unknown(&run.method(Method::Sts3).structure);
            let ratio = c_col / c_sts;
            table.push(row![rows, run.matrix_label, c_col, c_sts, ratio]);
            ratios.push(ratio);
        }
        table.notes.push(format!(
            "geometric mean, {rows} rows per super-row: {:.2}",
            geometric_mean(&ratios)
        ));
    }
    vec![table]
}

/// The two builder ablations: STS-3 built with one `StsBuilder` step on and
/// off, and the wall-clock solve time of both at the host's thread count.
/// `columns` names the seconds with the step, the seconds without, and their
/// ratio without / with.
fn builder_ablation(
    ctx: &Ctx,
    columns: [&'static str; 3],
    step: fn(StsBuilder, bool) -> StsBuilder,
) -> Vec<Table> {
    let [with, without, gain] = columns;
    let mut table = Table::new(&[
        "rows_per_super_row",
        "matrix",
        "threads",
        with,
        without,
        gain,
        "cpu",
    ]);
    let threads = ctx.threads;
    let (label, schedule) = (Method::Sts3.label(), harness::paper_schedule(Method::Sts3));
    for rows in ctx.scaled_sizes() {
        for m in &ctx.suite().matrices {
            let l = m
                .lower()
                .expect("suite matrices have solvable lower operands");
            let seconds = |on: bool| {
                let builder = StsBuilder::new(3)
                    .ordering(Ordering::Coloring)
                    .super_row_sizing(SuperRowSizing::Rows(rows));
                let s = step(builder, on)
                    .build(&l)
                    .expect("builder succeeds on suite matrices");
                harness::wallclock_seconds(&s, schedule, threads, label, m.id.label())
            };
            let (with, without) = (seconds(true), seconds(false));
            table.push(row![
                rows,
                m.id.label(),
                threads,
                with,
                without,
                without / with,
                ctx.cpu
            ]);
        }
    }
    vec![table]
}

/// The paper tunes `schedule(dynamic, 32)` for the flat methods and
/// `schedule(guided, 1)` for the 3-level methods; this runs STS-3 under
/// static, dynamic (chunk 1 and 32) and guided schedules and reports the
/// wall-clock solve time of the whole suite.
fn ablation_schedule(ctx: &Ctx) -> Vec<Table> {
    let schedules: [(&str, Schedule); 4] = [
        ("static", Schedule::Static),
        ("dynamic,1", Schedule::Dynamic { chunk: 1 }),
        ("dynamic,32", Schedule::Dynamic { chunk: 32 }),
        ("guided,1", Schedule::Guided { min_chunk: 1 }),
    ];
    const COLUMNS: &[&str] = &[
        "rows_per_super_row",
        "schedule",
        "threads",
        "total_seconds",
        "cpu",
    ];
    let mut table = Table::new(COLUMNS);
    let (threads, label) = (ctx.threads, Method::Sts3.label());
    for (rows, runs) in ctx.scaled_sets() {
        for (name, schedule) in schedules {
            let total: f64 = runs
                .iter()
                .map(|run| {
                    let s = &run.method(Method::Sts3).structure;
                    harness::wallclock_seconds(s, schedule, threads, label, &run.matrix_label)
                })
                .sum();
            table.push(row![rows, name, threads, total, ctx.cpu]);
        }
    }
    vec![table]
}

/// The paper fixes 80 rows per super-row on the Intel node and 320 on the
/// AMD node ("to correspond to bigger L2 cache on AMD") and suggests testing
/// ±1 neighbouring values of k in practice; this sweeps the super-row size
/// on a representative subset of the suite.
fn ablation_superrow_size(ctx: &Ctx) -> Vec<Table> {
    const COLUMNS: &[&str] = &[
        "matrix",
        "rows_per_super_row",
        "threads",
        "seconds",
        "num_packs",
        "cpu",
    ];
    let subset = [SuiteId::G1, SuiteId::D2, SuiteId::D3, SuiteId::S1];
    let sizes = [10usize, 20, 40, 80, 160, 320, 640];
    let (label, schedule) = (Method::Sts3.label(), harness::paper_schedule(Method::Sts3));
    let threads = ctx.threads;
    let mut table = Table::new(COLUMNS);
    for id in subset {
        let l = ctx
            .suite()
            .by_label(id.label())
            .expect("the suite holds every id")
            .lower()
            .expect("suite matrices have solvable lower operands");
        for size in sizes {
            let s = Method::Sts3
                .build(&l, size)
                .expect("builder succeeds on suite matrices");
            let seconds = harness::wallclock_seconds(&s, schedule, threads, label, id.label());
            table.push(row![
                id.label(),
                size,
                threads,
                seconds,
                s.num_packs(),
                ctx.cpu
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reason(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        run(&args).expect_err("unusable input is refused")
    }

    #[test]
    fn figure_names_are_unique_and_cover_the_sixteen_artifacts() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 16);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "duplicate figure name");
        assert!(!names.contains(&"all"), "`all` selects every figure");
    }

    #[test]
    fn an_unknown_figure_is_refused_with_the_list_of_names() {
        let message = reason(&["fig99_nothing"]);
        assert!(
            message.contains("unknown figure fig99_nothing"),
            "{message}"
        );
        for figure in FIGURES {
            assert!(message.contains(figure.name), "usage omits {}", figure.name);
        }
        assert!(
            reason(&[]).contains("usage:"),
            "a missing name prints usage"
        );
    }

    #[test]
    fn an_unknown_flag_or_scale_is_refused() {
        assert!(reason(&["table1", "--sacle", "tiny"]).contains("unknown argument --sacle"));
        assert!(reason(&["table1", "--scale", "huge"]).contains("unknown scale huge"));
        assert!(reason(&["table1", "--scale"]).contains("--scale needs an argument"));
        assert!(reason(&["table1", "fig6_structure"]).contains("unexpected argument"));
    }

    #[test]
    fn a_retired_flag_is_refused_as_unknown() {
        // Every timed figure is wall clock now, so the flag that selected
        // wall clock for three of them is gone.
        let flag = format!("--{}", "wallclock");
        for figure in ["fig10_relative_coloring", "all"] {
            let message = reason(&[figure, &flag]);
            assert!(
                message.contains(&format!("unknown argument {flag}")),
                "{message}"
            );
        }
    }

    #[test]
    fn the_scaling_figure_runs_every_thread_count_of_the_host() {
        let ctx = Ctx::new(SuiteScale::Tiny);
        let figure = FIGURES
            .iter()
            .find(|f| f.name == "fig12_scaling_coloring")
            .unwrap();
        let tables = (figure.run)(&ctx);
        let [table] = tables.as_slice() else {
            panic!("one table")
        };
        let column = |name: &str| table.columns.iter().position(|c| *c == name).unwrap();
        let (size, threads, ratio) = (
            column("rows_per_super_row"),
            column("threads"),
            column("relative_speedup"),
        );
        let uint = |v: &Value| match v {
            Value::UInt(u) => *u as usize,
            other => panic!("not a count: {other:?}"),
        };
        let nproc = sts_numa::affinity::available_cores();
        for rows in ctx.scaled_sizes() {
            let at_size: Vec<&Vec<Value>> = table
                .rows
                .iter()
                .filter(|r| uint(&r[size]) == rows)
                .collect();
            let counts: Vec<usize> = at_size.iter().map(|r| uint(&r[threads])).collect();
            assert_eq!(counts, (1..=nproc).collect::<Vec<_>>(), "{rows} rows");
            for r in at_size {
                let Value::Float(x) = r[ratio] else {
                    panic!("a ratio is a float")
                };
                assert!(x.is_finite() && x > 0.0, "{rows} rows: ratio {x}");
            }
        }
        assert_eq!(table.rows.len(), 2 * nproc);
    }

    #[test]
    fn an_unwritable_out_directory_is_refused() {
        // A regular file where a directory is needed.
        let blocker = std::env::temp_dir().join(format!("paper_figs_{}", std::process::id()));
        std::fs::write(&blocker, "").unwrap();
        let out = blocker.join("figs");
        let message = reason(&["fig_inpack_model", "--out", out.to_str().unwrap()]);
        std::fs::remove_file(&blocker).unwrap();
        assert!(message.contains("cannot create"), "{message}");
    }
}
