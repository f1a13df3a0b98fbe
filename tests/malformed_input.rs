//! Failure-injection tests: malformed inputs must produce errors, never
//! panics or silent wrong answers.

use sts_k::core::{Method, ParallelSolver};
use sts_k::matrix::{generators, io, CooMatrix, CsrMatrix, LowerTriangularCsr, MatrixError};
use sts_k::numa::Schedule;

#[test]
fn zero_diagonal_operands_are_rejected_before_any_solve() {
    let mut coo = CooMatrix::new(3, 3);
    coo.push(0, 0, 1.0).unwrap();
    coo.push(1, 1, 0.0).unwrap(); // explicit zero diagonal
    coo.push(2, 2, 1.0).unwrap();
    let err = LowerTriangularCsr::from_csr(&coo.to_csr());
    assert!(matches!(err, Err(MatrixError::SingularDiagonal { row: 1 })));
}

#[test]
fn upper_triangular_entries_are_rejected() {
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, 1.0).unwrap();
    coo.push(0, 1, 2.0).unwrap();
    coo.push(1, 1, 1.0).unwrap();
    assert!(matches!(
        LowerTriangularCsr::from_csr(&coo.to_csr()),
        Err(MatrixError::NotLowerTriangular { .. })
    ));
}

#[test]
fn mismatched_rhs_lengths_error_at_every_entry_point() {
    let a = generators::grid2d_laplacian(6, 6).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let s = Method::Sts3.build(&l, 8).unwrap();
    assert!(l.solve_seq(&[1.0; 5]).is_err());
    assert!(s.solve_sequential(&[1.0; 5]).is_err());
    let solver = ParallelSolver::new(2, Schedule::Static);
    assert!(solver.solve(&s, &[1.0; 5]).is_err());
}

#[test]
fn malformed_matrix_market_inputs_error_cleanly() {
    let cases = [
        "",                                                                       // empty
        "%%MatrixMarket matrix coordinate real general\n",                        // missing size
        "%%MatrixMarket matrix coordinate real general\n2 2\n",                   // short size line
        "%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n",          // junk entry
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",        // out of bounds
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n", // unsupported field
        "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1.0\n", // unsupported symmetry
    ];
    for text in cases {
        assert!(
            io::read_matrix_market(text.as_bytes()).is_err(),
            "input {text:?} should be rejected"
        );
    }
}

#[test]
fn invalid_csr_arrays_are_rejected() {
    // Non-monotone row pointers.
    assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
    // nnz mismatch between pointer and arrays.
    assert!(CsrMatrix::from_raw(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
    // Unsorted columns.
    assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
    // Duplicate columns.
    assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
}

#[test]
fn rectangular_matrices_cannot_become_triangular_operands() {
    let coo = CooMatrix::new(3, 4);
    assert!(matches!(
        LowerTriangularCsr::from_csr(&coo.to_csr()),
        Err(MatrixError::DimensionMismatch(_))
    ));
}

#[test]
fn generator_parameter_validation() {
    assert!(generators::grid2d_laplacian(0, 4).is_err());
    assert!(generators::grid3d_27point(2, 0, 2).is_err());
    assert!(generators::road_network(4, 4, 2.0, 0).is_err());
    assert!(generators::random_geometric(0, 5.0, 0).is_err());
    assert!(generators::random_geometric(10, -1.0, 0).is_err());
    assert!(generators::random_lower_triangular(0, 1.0, 0).is_err());
}

#[test]
fn permute_symmetric_rejects_malformed_permutations() {
    let a = generators::grid2d_laplacian(3, 3).unwrap();
    assert!(a.permute_symmetric(&[0, 1]).is_err()); // wrong length
    assert!(a.permute_symmetric(&[0; 9]).is_err()); // not a bijection
}

#[test]
fn empty_system_is_handled_end_to_end() {
    let l = LowerTriangularCsr::from_csr(&CooMatrix::new(0, 0).to_csr()).unwrap();
    for method in Method::all() {
        let s = method.build(&l, 8).unwrap();
        assert_eq!(s.solve_sequential(&[]).unwrap(), Vec::<f64>::new());
        let solver = ParallelSolver::new(2, Schedule::Static);
        assert_eq!(solver.solve(&s, &[]).unwrap(), Vec::<f64>::new());
    }
}
