//! Golden bits of the analysis: what `StsBuilder::build` and
//! `SpdSystem::build` produce for a fixed set of inputs.
//!
//! Each analysed structure is hashed over its permutation, `index2`,
//! `index3` and the reordered operand's `row_ptr`, `col_idx` and value bits;
//! each `SpdSystem` over its permuted operator's `row_ptr`, `col_idx` and
//! value bits. The tables were recorded before the analysis was rewritten as
//! counting passes over `L`. An analysis refactor must leave them untouched:
//! a changed digest means some ordering, hierarchy or operand bit moved, and
//! with it every sweep and PCG iterate downstream. On a mismatch the failure
//! message prints the whole computed table in paste-ready form.
//!
//! The second table, over the `SuiteScale::Small` suite, is `#[ignore]`d in
//! the default run (it analyses 48 structures of tens of thousands of rows)
//! and runs in release in CI:
//! `cargo test --release -q --test analysis_golden -- --ignored`.

use sts_k::core::{Method, StsStructure};
use sts_k::krylov::SpdSystem;
use sts_k::matrix::suite::{SuiteScale, TestSuite};
use sts_k::matrix::{generators, CsrMatrix, LowerTriangularCsr};

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn indices(&mut self, xs: &[usize]) -> &mut Self {
        for &x in xs {
            self.word(x as u64);
        }
        self
    }

    fn values(&mut self, xs: &[f64]) -> &mut Self {
        for x in xs {
            self.word(x.to_bits());
        }
        self
    }
}

fn structure_digest(s: &StsStructure) -> u64 {
    let l = s.lower();
    let mut h = Fnv::new();
    h.indices(s.permutation().new_to_old())
        .indices(s.index2())
        .indices(s.index3())
        .indices(l.row_ptr())
        .indices(l.col_idx())
        .values(l.values());
    h.0
}

fn operator_digest(a: &CsrMatrix) -> u64 {
    let mut h = Fnv::new();
    h.indices(a.row_ptr())
        .indices(a.col_idx())
        .values(a.values());
    h.0
}

/// Analyses every input under every method at every super-row size.
fn analysis_table(inputs: &[(String, LowerTriangularCsr)], rows: &[usize]) -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for (name, l) in inputs {
        for method in Method::all() {
            for &r in rows {
                let s = method.build(l, r).unwrap();
                table.push((
                    format!("{name}/{}/{r}", method.label()),
                    structure_digest(&s),
                ));
            }
        }
    }
    table
}

fn suite_inputs(scale: SuiteScale) -> Vec<(String, LowerTriangularCsr)> {
    TestSuite::generate(scale)
        .unwrap()
        .matrices
        .iter()
        .map(|m| (m.id.label().to_string(), m.lower().unwrap()))
        .collect()
}

fn render(table: &[(String, u64)]) -> String {
    table
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", 0x{d:016x}),\n"))
        .collect()
}

fn assert_table(what: &str, computed: &[(String, u64)], golden: &[(&str, u64)]) {
    let golden: Vec<(String, u64)> = golden.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert!(
        computed == golden.as_slice(),
        "{what} moved; computed table:\n{}",
        render(computed)
    );
}

/// The 12 tiny suite matrices, Figure 1, a random lower-triangular matrix
/// and a 20³ 27-point grid, under all four methods at 8 and 80 rows per
/// super-row; then the permuted `SpdSystem` operators of a 2-D and a 3-D
/// grid.
#[test]
fn analysis_bits_match_the_recorded_table() {
    let mut inputs = suite_inputs(SuiteScale::Tiny);
    inputs.push(("fig1".into(), generators::paper_figure1_l()));
    inputs.push((
        "rand300".into(),
        generators::random_lower_triangular(300, 4.0, 9).unwrap(),
    ));
    let grid = generators::grid3d_27point(20, 20, 20).unwrap();
    inputs.push((
        "grid27_20".into(),
        generators::lower_operand(&grid).unwrap(),
    ));
    let mut computed = analysis_table(&inputs, &[8, 80]);
    for (name, a, rows) in [
        ("spd/grid2d_14x11", generators::grid2d_laplacian(14, 11), 8),
        ("spd/grid27_12", generators::grid3d_27point(12, 12, 12), 80),
    ] {
        let sys = SpdSystem::build(&a.unwrap(), Method::Sts3, rows).unwrap();
        computed.push((name.to_string(), operator_digest(sys.matrix())));
    }
    assert_table("analysis bits", &computed, GOLDEN_ANALYSIS);
}

/// The 12 small suite matrices under all four methods at the paper's 80
/// rows per super-row: long rows and deep RCM fronts the tiny inputs miss.
#[test]
#[ignore = "tens of thousands of rows per matrix; run in release"]
fn small_suite_analysis_bits_match_the_recorded_table() {
    let computed = analysis_table(&suite_inputs(SuiteScale::Small), &[80]);
    assert_table(
        "small-suite analysis bits",
        &computed,
        GOLDEN_ANALYSIS_SMALL,
    );
}

/// Recorded before the analysis became counting passes over `L`.
const GOLDEN_ANALYSIS: &[(&str, u64)] = &[
    ("G1/CSR-LS/8", 0xf8065ef35951ff6e),
    ("G1/CSR-LS/80", 0xf8065ef35951ff6e),
    ("G1/CSR-3-LS/8", 0x280e50b71abe8cab),
    ("G1/CSR-3-LS/80", 0x2da8ac91a18e6c0d),
    ("G1/CSR-COL/8", 0x2a04f32c70f48016),
    ("G1/CSR-COL/80", 0x2a04f32c70f48016),
    ("G1/STS-3/8", 0x664be27b8c5572d1),
    ("G1/STS-3/80", 0x1dc23a04f030bc80),
    ("D1/CSR-LS/8", 0xa2ef5f9acad2d1a8),
    ("D1/CSR-LS/80", 0xa2ef5f9acad2d1a8),
    ("D1/CSR-3-LS/8", 0xfe622f8aa3b98027),
    ("D1/CSR-3-LS/80", 0x9adc6be5e4e9cd20),
    ("D1/CSR-COL/8", 0x7d25ec09be3814ba),
    ("D1/CSR-COL/80", 0x7d25ec09be3814ba),
    ("D1/STS-3/8", 0x0e7de1a82058e43b),
    ("D1/STS-3/80", 0x7877adf827572e39),
    ("S1/CSR-LS/8", 0x67a682e4e062a12c),
    ("S1/CSR-LS/80", 0x67a682e4e062a12c),
    ("S1/CSR-3-LS/8", 0x44e177cd162ebfa6),
    ("S1/CSR-3-LS/80", 0xb528365f000b4d3e),
    ("S1/CSR-COL/8", 0x2c36be8cddaf3e22),
    ("S1/CSR-COL/80", 0x2c36be8cddaf3e22),
    ("S1/STS-3/8", 0x1e17e392ed770905),
    ("S1/STS-3/80", 0xa5a68af8d3526fe0),
    ("D2/CSR-LS/8", 0x42b1ac9311561605),
    ("D2/CSR-LS/80", 0x42b1ac9311561605),
    ("D2/CSR-3-LS/8", 0x2eb637596d0fa37a),
    ("D2/CSR-3-LS/80", 0xa08cbfed0e727eb3),
    ("D2/CSR-COL/8", 0x1aea7bc4b8209bc5),
    ("D2/CSR-COL/80", 0x1aea7bc4b8209bc5),
    ("D2/STS-3/8", 0x8591760b34b945a2),
    ("D2/STS-3/80", 0xa280577457fc0b02),
    ("D3/CSR-LS/8", 0xdc27d3108a514ccf),
    ("D3/CSR-LS/80", 0xdc27d3108a514ccf),
    ("D3/CSR-3-LS/8", 0x27bb8551f84f6d1e),
    ("D3/CSR-3-LS/80", 0xa45bc831eea38898),
    ("D3/CSR-COL/8", 0x055cb9d0049bc270),
    ("D3/CSR-COL/80", 0x055cb9d0049bc270),
    ("D3/STS-3/8", 0xe11a8bc336013d9f),
    ("D3/STS-3/80", 0x4828dbdc90a62b7b),
    ("D4/CSR-LS/8", 0x7f6e54e284781898),
    ("D4/CSR-LS/80", 0x7f6e54e284781898),
    ("D4/CSR-3-LS/8", 0x90c2c1b8619ce603),
    ("D4/CSR-3-LS/80", 0x14bd0b74e008e33f),
    ("D4/CSR-COL/8", 0xc0c5ce660ca9a39e),
    ("D4/CSR-COL/80", 0xc0c5ce660ca9a39e),
    ("D4/STS-3/8", 0x9c8af1a6368f96c3),
    ("D4/STS-3/80", 0x54c6cf537a4c33db),
    ("D5/CSR-LS/8", 0xab2045f091bd0e21),
    ("D5/CSR-LS/80", 0xab2045f091bd0e21),
    ("D5/CSR-3-LS/8", 0x89ec76b8ecad3942),
    ("D5/CSR-3-LS/80", 0x6bd79030049d92a2),
    ("D5/CSR-COL/8", 0xd74fd3579f0ab3c6),
    ("D5/CSR-COL/80", 0xd74fd3579f0ab3c6),
    ("D5/STS-3/8", 0xd9532331a8d785d6),
    ("D5/STS-3/80", 0x23c4512a72a0cd58),
    ("D6/CSR-LS/8", 0x706d39b7a170dc53),
    ("D6/CSR-LS/80", 0x706d39b7a170dc53),
    ("D6/CSR-3-LS/8", 0x47f06e736c6ef116),
    ("D6/CSR-3-LS/80", 0x699509318a18b978),
    ("D6/CSR-COL/8", 0x82664d9fcbbddbcd),
    ("D6/CSR-COL/80", 0x82664d9fcbbddbcd),
    ("D6/STS-3/8", 0x954d9a628b97be4d),
    ("D6/STS-3/80", 0xf04059470cf83b08),
    ("D7/CSR-LS/8", 0x61586c113c59e618),
    ("D7/CSR-LS/80", 0x61586c113c59e618),
    ("D7/CSR-3-LS/8", 0xcc7d5c65fbf1e693),
    ("D7/CSR-3-LS/80", 0xe63a1da6e4536837),
    ("D7/CSR-COL/8", 0x3459b32bb8ae1602),
    ("D7/CSR-COL/80", 0x3459b32bb8ae1602),
    ("D7/STS-3/8", 0xc417d8c18ec47f2e),
    ("D7/STS-3/80", 0x89d1cc6bf995852e),
    ("D8/CSR-LS/8", 0x6a1c8413e6274241),
    ("D8/CSR-LS/80", 0x6a1c8413e6274241),
    ("D8/CSR-3-LS/8", 0x71c51b63a8b817c2),
    ("D8/CSR-3-LS/80", 0x4984973e5ca366d1),
    ("D8/CSR-COL/8", 0x39a983826e1d05ec),
    ("D8/CSR-COL/80", 0x39a983826e1d05ec),
    ("D8/STS-3/8", 0xb219e075efd8c467),
    ("D8/STS-3/80", 0xea49f698d1f61fd4),
    ("D9/CSR-LS/8", 0x679228fbd707a9f7),
    ("D9/CSR-LS/80", 0x679228fbd707a9f7),
    ("D9/CSR-3-LS/8", 0x8146a6f12d7aa23c),
    ("D9/CSR-3-LS/80", 0xc7da79bee10d375f),
    ("D9/CSR-COL/8", 0xb8c89ef33d72abcf),
    ("D9/CSR-COL/80", 0xb8c89ef33d72abcf),
    ("D9/STS-3/8", 0x3bfff951db89393d),
    ("D9/STS-3/80", 0xfb041aaf2ed8a058),
    ("D10/CSR-LS/8", 0x3060c9443d3cb564),
    ("D10/CSR-LS/80", 0x3060c9443d3cb564),
    ("D10/CSR-3-LS/8", 0x0c2213eea53e0960),
    ("D10/CSR-3-LS/80", 0x27ec8649d4bf50ed),
    ("D10/CSR-COL/8", 0xf09b58db35cf7f86),
    ("D10/CSR-COL/80", 0xf09b58db35cf7f86),
    ("D10/STS-3/8", 0xdc731af53bd1296f),
    ("D10/STS-3/80", 0xbf799bb6214a189a),
    ("fig1/CSR-LS/8", 0xfecd9aa77a7a2c14),
    ("fig1/CSR-LS/80", 0xfecd9aa77a7a2c14),
    ("fig1/CSR-3-LS/8", 0x86bb6ee13b888358),
    ("fig1/CSR-3-LS/80", 0xa70ab8c3cfc26135),
    ("fig1/CSR-COL/8", 0x0bb4b1f613e04279),
    ("fig1/CSR-COL/80", 0x0bb4b1f613e04279),
    ("fig1/STS-3/8", 0x86bb6ee13b888358),
    ("fig1/STS-3/80", 0xa70ab8c3cfc26135),
    ("rand300/CSR-LS/8", 0xc8201085572d644e),
    ("rand300/CSR-LS/80", 0xc8201085572d644e),
    ("rand300/CSR-3-LS/8", 0x43dc05c53375ef03),
    ("rand300/CSR-3-LS/80", 0x6abc6f9bbea771b7),
    ("rand300/CSR-COL/8", 0x747c229f68ec3ed0),
    ("rand300/CSR-COL/80", 0x747c229f68ec3ed0),
    ("rand300/STS-3/8", 0xbfd4a96f1e8d9279),
    ("rand300/STS-3/80", 0x6abc6f9bbea771b7),
    ("grid27_20/CSR-LS/8", 0x0f8b1aaeca05e29e),
    ("grid27_20/CSR-LS/80", 0x0f8b1aaeca05e29e),
    ("grid27_20/CSR-3-LS/8", 0x20055a87440ed049),
    ("grid27_20/CSR-3-LS/80", 0x07e475afbdc219e4),
    ("grid27_20/CSR-COL/8", 0x580813c84c99a6e0),
    ("grid27_20/CSR-COL/80", 0x580813c84c99a6e0),
    ("grid27_20/STS-3/8", 0x5507c0a80548decc),
    ("grid27_20/STS-3/80", 0xe6b6d6b80caa8db6),
    ("spd/grid2d_14x11", 0x0f0c2ce3367e7fff),
    ("spd/grid27_12", 0xda8525b98fc83999),
];

/// Recorded before the analysis became counting passes over `L`.
const GOLDEN_ANALYSIS_SMALL: &[(&str, u64)] = &[
    ("G1/CSR-LS/80", 0x73c58fa8ee97f84d),
    ("G1/CSR-3-LS/80", 0xc9f1b2ea6753a27c),
    ("G1/CSR-COL/80", 0xed0a6753553cdc53),
    ("G1/STS-3/80", 0x3eeff13b05068845),
    ("D1/CSR-LS/80", 0xbffe7dc13dec65fa),
    ("D1/CSR-3-LS/80", 0x5cfa8b28b5911122),
    ("D1/CSR-COL/80", 0xf84864e867cc1c86),
    ("D1/STS-3/80", 0xff6c5378492e9a65),
    ("S1/CSR-LS/80", 0x0c8d438af12f72ab),
    ("S1/CSR-3-LS/80", 0xe98906392b176db3),
    ("S1/CSR-COL/80", 0x359a123c41059b3e),
    ("S1/STS-3/80", 0xe3aea9c991ae7c09),
    ("D2/CSR-LS/80", 0x36be8e2a77dec856),
    ("D2/CSR-3-LS/80", 0x90243619a1a80634),
    ("D2/CSR-COL/80", 0xd4505d23a4ae8755),
    ("D2/STS-3/80", 0x23e4f696bab699fe),
    ("D3/CSR-LS/80", 0x48fe0717fd460418),
    ("D3/CSR-3-LS/80", 0x9421a32c625f1576),
    ("D3/CSR-COL/80", 0xa0aac8731431fdae),
    ("D3/STS-3/80", 0xee1d8b5a6e460371),
    ("D4/CSR-LS/80", 0x83add0cc43d680ff),
    ("D4/CSR-3-LS/80", 0x3794936d8bdfaa9b),
    ("D4/CSR-COL/80", 0xffecfad2432c9b7d),
    ("D4/STS-3/80", 0x0acbc7e692b9610e),
    ("D5/CSR-LS/80", 0xb9a30f3830b41ce4),
    ("D5/CSR-3-LS/80", 0x38ad8b4281f7578b),
    ("D5/CSR-COL/80", 0x1d3d732f3a01465e),
    ("D5/STS-3/80", 0x4a9c408e64a83742),
    ("D6/CSR-LS/80", 0x7d567441c0a320e5),
    ("D6/CSR-3-LS/80", 0x5d7006afbc64df4e),
    ("D6/CSR-COL/80", 0x097922d14f74dd93),
    ("D6/STS-3/80", 0x6c45e52dcf421273),
    ("D7/CSR-LS/80", 0x2369bfe39a2cd414),
    ("D7/CSR-3-LS/80", 0x8b0ffa971c694d3a),
    ("D7/CSR-COL/80", 0xf4ab914618574766),
    ("D7/STS-3/80", 0x4ea9fcb4be6e111b),
    ("D8/CSR-LS/80", 0xfc69578d06b68f63),
    ("D8/CSR-3-LS/80", 0x40a21df2a06ec211),
    ("D8/CSR-COL/80", 0xa57f9610c247939c),
    ("D8/STS-3/80", 0x7856b73ff30c8ccf),
    ("D9/CSR-LS/80", 0xdd66401576199db7),
    ("D9/CSR-3-LS/80", 0x1057f5ed32d26af9),
    ("D9/CSR-COL/80", 0x4da8d8cfc32df7e3),
    ("D9/STS-3/80", 0x7c2627f76c81001b),
    ("D10/CSR-LS/80", 0x3483a1c65e118d2c),
    ("D10/CSR-3-LS/80", 0x08950477eb92bd84),
    ("D10/CSR-COL/80", 0x7cbd19fd2c19e605),
    ("D10/STS-3/80", 0xddbe72bf660e409b),
];
