//! Error type shared by all fallible operations in the sparse substrate.

use std::fmt;

/// Errors produced while constructing, converting or reading sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// Matrix dimensions are inconsistent with the data arrays.
    DimensionMismatch {
        /// Human-readable description of what disagreed.
        detail: String,
    },
    /// A column index is out of bounds for the declared number of columns.
    IndexOutOfBounds {
        /// The offending index value.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// The row-pointer array is not monotonically non-decreasing or is
    /// malformed (wrong length, wrong first/last entry).
    MalformedRowPtr {
        /// Human-readable description.
        detail: String,
    },
    /// A parse failure while reading an external format such as MatrixMarket.
    Parse {
        /// 1-based line number, when known.
        line: usize,
        /// Human-readable description.
        detail: String,
    },
    /// An I/O failure while reading or writing.
    Io(String),
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows found.
        rows: usize,
        /// Number of columns found.
        cols: usize,
    },
    /// A generator was asked for an impossible configuration.
    InvalidArgument {
        /// Human-readable description.
        detail: String,
    },
    /// The matrix would not fit 32-bit indices: its index bound
    /// `max(n_cols, nnz + 1)` exceeds
    /// [`MAX_INDEX_BOUND`](crate::MAX_INDEX_BOUND).
    IndexWidth {
        /// The offending index bound.
        bound: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch { detail } => {
                write!(f, "dimension mismatch: {detail}")
            }
            SparseError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (< {bound} required)")
            }
            SparseError::MalformedRowPtr { detail } => {
                write!(f, "malformed row pointer array: {detail}")
            }
            SparseError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            SparseError::Io(detail) => write!(f, "i/o error: {detail}"),
            SparseError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            SparseError::InvalidArgument { detail } => {
                write!(f, "invalid argument: {detail}")
            }
            SparseError::IndexWidth { bound } => write!(
                f,
                "index bound max(n_cols, nnz + 1) = {bound} exceeds the 32-bit index limit {}",
                crate::MAX_INDEX_BOUND
            ),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = SparseError::DimensionMismatch {
            detail: "val has 3 entries, colid has 4".into(),
        };
        assert!(e.to_string().contains("dimension mismatch"));
        assert!(e.to_string().contains("val has 3"));
    }

    #[test]
    fn display_out_of_bounds() {
        let e = SparseError::IndexOutOfBounds { index: 7, bound: 5 };
        assert_eq!(e.to_string(), "index 7 out of bounds (< 5 required)");
    }

    #[test]
    fn display_not_square() {
        let e = SparseError::NotSquare { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2x3"));
    }

    #[test]
    fn display_index_width() {
        let e = SparseError::IndexWidth {
            bound: (1 << 30) + 1,
        };
        assert_eq!(
            e.to_string(),
            "index bound max(n_cols, nnz + 1) = 1073741825 exceeds the 32-bit index limit 1073741824"
        );
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing.mtx");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
        assert!(e.to_string().contains("missing.mtx"));
    }
}
