//! Error type shared by the matrix substrate.

use std::fmt;

/// Errors produced while building, converting or reading sparse matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// An entry referenced a row or column outside the declared dimensions.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows of the matrix being built.
        nrows: usize,
        /// Number of columns of the matrix being built.
        ncols: usize,
    },
    /// A lower-triangular matrix was requested but an entry lies above the
    /// diagonal.
    NotLowerTriangular {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A triangular solve requires a nonzero diagonal in every row; this row
    /// is missing one (or it is exactly zero).
    SingularDiagonal {
        /// Row whose diagonal entry is zero or missing.
        row: usize,
    },
    /// The CSR structural invariants (monotone row pointers, sorted columns,
    /// matching array lengths) are violated.
    InvalidStructure(String),
    /// A dimension mismatch between operands, e.g. `L x = b` with
    /// `len(b) != n`.
    DimensionMismatch(String),
    /// The Matrix Market stream could not be parsed.
    ParseError {
        /// 1-based line number where parsing failed (0 when unknown).
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O error while reading or writing a matrix file.
    Io(String),
    /// A generator or suite entry was asked for parameters it cannot satisfy.
    InvalidParameter(String),
    /// An incomplete factorization hit a non-positive pivot: the input was
    /// not (numerically) symmetric positive definite on the retained
    /// pattern.
    FactorizationBreakdown {
        /// Row whose pivot broke down.
        row: usize,
        /// The offending pivot value (`≤ 0`).
        pivot: f64,
    },
    /// A worker thread panicked inside a parallel kernel. The dispatch was
    /// quiesced (no iteration is still running) but output buffers written by
    /// the failed kernel must be considered torn.
    WorkerPanicked {
        /// Pool slot (worker index) whose body panicked.
        slot: usize,
        /// Pack / stage (or loop index) in flight when the panic fired.
        pack: usize,
        /// The panic payload, stringified when possible.
        message: String,
    },
    /// A matrix entry is NaN or infinite.
    NonFinite {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// The iterative solver's residual recurrence produced a non-finite norm
    /// (iteration 0 is the initial residual, i.e. the right-hand side).
    NonFiniteResidual {
        /// Iteration at which the residual norm stopped being finite.
        iteration: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) is outside the {nrows}x{ncols} matrix"
            ),
            MatrixError::NotLowerTriangular { row, col } => write!(
                f,
                "entry ({row}, {col}) lies above the diagonal of a lower-triangular matrix"
            ),
            MatrixError::SingularDiagonal { row } => {
                write!(f, "row {row} has a zero or missing diagonal entry")
            }
            MatrixError::InvalidStructure(msg) => write!(f, "invalid CSR structure: {msg}"),
            MatrixError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            MatrixError::ParseError { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            MatrixError::Io(msg) => write!(f, "i/o error: {msg}"),
            MatrixError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            MatrixError::FactorizationBreakdown { row, pivot } => write!(
                f,
                "factorization breakdown at row {row}: pivot {pivot} is not positive"
            ),
            MatrixError::WorkerPanicked {
                slot,
                pack,
                message,
            } => write!(
                f,
                "worker {slot} panicked while executing pack {pack}: {message}"
            ),
            MatrixError::NonFinite { row, col, value } => {
                write!(f, "entry ({row}, {col}) has non-finite value {value}")
            }
            MatrixError::NonFiniteResidual { iteration } => write!(
                f,
                "residual norm is not finite at iteration {iteration} \
                 (iteration 0 is the initial residual)"
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<std::io::Error> for MatrixError {
    fn from(e: std::io::Error) -> Self {
        MatrixError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MatrixError::IndexOutOfBounds {
            row: 5,
            col: 7,
            nrows: 3,
            ncols: 3,
        };
        let s = e.to_string();
        assert!(s.contains("(5, 7)"));
        assert!(s.contains("3x3"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: MatrixError = io.into();
        assert!(matches!(e, MatrixError::Io(_)));
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn singular_diagonal_display() {
        let e = MatrixError::SingularDiagonal { row: 42 };
        assert!(e.to_string().contains("42"));
    }
}
