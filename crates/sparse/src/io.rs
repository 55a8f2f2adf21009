//! MatrixMarket (`.mtx`) reader and writer.
//!
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` headers, which cover
//! every matrix in the paper's UFL test set. Pattern matrices get unit
//! values. Comments (`%`) and blank lines are skipped.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::Result;

/// Symmetry qualifier parsed from a MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Lower triangle stored; mirror on read.
    Symmetric,
}

/// Parses a MatrixMarket stream into CSR.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix> {
    let mut lines = BufReader::new(reader).lines();
    let mut lineno = 0usize;

    // --- header ---
    let header = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    detail: "empty stream".into(),
                })
            }
        }
    };
    let header_lc = header.to_lowercase();
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 4 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("bad MatrixMarket banner: {header}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("unsupported format {} (only coordinate)", tokens[2]),
        });
    }
    let pattern = match tokens[3] {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("unsupported field type {other}"),
            })
        }
    };
    let symmetry = match tokens.get(4).copied().unwrap_or("general") {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("unsupported symmetry {other}"),
            })
        }
    };

    // --- size line ---
    let size_line = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break l;
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    detail: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>().map_err(|_| SparseError::Parse {
                line: lineno,
                detail: format!("bad size token {t}"),
            })
        })
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("size line needs 3 tokens, got {}", dims.len()),
        });
    }
    let (n_rows, n_cols, nnz_decl) = (dims[0], dims[1], dims[2]);
    // The size line is untrusted: allocations follow what the file
    // holds, and the one sized by the row count may fail cleanly.
    if n_rows
        .checked_mul(n_cols)
        .is_some_and(|cells| nnz_decl > cells)
    {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("{nnz_decl} entries declared for a {n_rows} x {n_cols} matrix"),
        });
    }
    let mut rowptr = Vec::new();
    if n_rows
        .checked_add(1)
        .is_none_or(|len| rowptr.try_reserve_exact(len).is_err())
    {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("{n_rows} rows: no memory for the row pointer"),
        });
    }
    rowptr.resize(n_rows + 1, 0);

    // --- entries ---
    let stored = match symmetry {
        MmSymmetry::General => nnz_decl,
        MmSymmetry::Symmetric => nnz_decl.saturating_mul(2),
    };
    let mut coo = CooMatrix::with_capacity(n_rows, n_cols, stored.min(MAX_RESERVED_ENTRIES));
    let mut seen = 0usize;
    for l in lines {
        lineno += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize =
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    detail: "bad row index".into(),
                })?;
        let j: usize =
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    detail: "bad column index".into(),
                })?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    detail: "bad value".into(),
                })?
        };
        if i == 0 || j == 0 || i > n_rows || j > n_cols {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("coordinate ({i}, {j}) outside 1..={n_rows} x 1..={n_cols}"),
            });
        }
        match symmetry {
            MmSymmetry::General => coo.push(i - 1, j - 1, v),
            MmSymmetry::Symmetric => coo.push_sym(i - 1, j - 1, v),
        }
        seen += 1;
    }
    if seen != nnz_decl {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("declared {nnz_decl} entries, found {seen}"),
        });
    }
    Ok(coo.to_csr_in(rowptr))
}

/// Triplets reserved up front from a size line (24 MiB); a larger file
/// grows its buffers as its entries arrive.
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

/// Reads a MatrixMarket file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<CsrMatrix> {
    let f = std::fs::File::open(path)?;
    read_matrix_market(f)
}

/// Writes a matrix in `coordinate real general` format.
pub fn write_matrix_market<W: Write>(mut w: W, a: &CsrMatrix) -> Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by ftcg-sparse")?;
    writeln!(w, "{} {} {}", a.n_rows(), a.n_cols(), a.nnz())?;
    for i in 0..a.n_rows() {
        for (j, v) in a.row(i) {
            writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
        }
    }
    Ok(())
}

/// Writes a matrix to a `.mtx` file on disk.
pub fn write_matrix_market_file<P: AsRef<Path>>(path: P, a: &CsrMatrix) -> Result<()> {
    let f = std::fs::File::create(path)?;
    write_matrix_market(std::io::BufWriter::new(f), a)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 3 4.0
1 3 -1.0
";

    const SYMMETRIC: &str = "%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 5.0
2 1 -1.0
";

    const PATTERN: &str = "%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
";

    #[test]
    fn reads_general() {
        let a = read_matrix_market(GENERAL.as_bytes()).unwrap();
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 2), -1.0);
    }

    #[test]
    fn reads_symmetric_mirrors() {
        let a = read_matrix_market(SYMMETRIC.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(0, 0), 5.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn reads_pattern_as_ones() {
        let a = read_matrix_market(PATTERN.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_banner() {
        assert!(read_matrix_market("%%NotMM\n1 1 0\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_array_format() {
        let e = read_matrix_market("%%MatrixMarket matrix array real general\n".as_bytes());
        assert!(e.is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(s.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_coordinate() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(s.as_bytes()).is_err());
    }

    /// The size-line error, if `text` is rejected at its size line.
    fn size_line_error(text: &str) -> String {
        match read_matrix_market(text.as_bytes()) {
            Err(SparseError::Parse { line: 2, detail }) => detail,
            other => panic!("expected a parse error at line 2, got {other:?}"),
        }
    }

    #[test]
    fn rejects_more_entries_than_cells() {
        let d =
            size_line_error("%%MatrixMarket matrix coordinate real general\n3 3 1000000000000\n");
        assert!(d.contains("1000000000000 entries declared"), "{d}");
    }

    #[test]
    fn rejects_symmetric_count_that_overflows_doubling() {
        let d = size_line_error(&format!(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 {}\n",
            i64::MAX
        ));
        assert!(d.contains("entries declared"), "{d}");
    }

    #[test]
    fn rejects_row_count_past_the_allocator() {
        // 8 PB of row pointer: beyond the address space, so no
        // overcommit policy can grant it.
        let d = size_line_error(
            "%%MatrixMarket matrix coordinate real general\n1000000000000000 3 0\n",
        );
        assert!(d.contains("no memory for the row pointer"), "{d}");
    }

    #[test]
    fn large_declared_count_reserves_a_bounded_buffer() {
        // A trillion declared entries fit 10⁶ × 10⁶ cells; only what is
        // read is held, and the count mismatch is reported at the end.
        let s = "%%MatrixMarket matrix coordinate real symmetric\n1000000 1000000 1000000000000\n1 1 2.0\n";
        match read_matrix_market(s.as_bytes()) {
            Err(SparseError::Parse { line: 3, detail }) => {
                assert!(detail.contains("found 1"), "{detail}")
            }
            other => panic!("expected a count mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty() {
        assert!(read_matrix_market("".as_bytes()).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let a = crate::gen::random_spd(30, 0.1, 99).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let b = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn file_roundtrip() {
        let a = crate::gen::poisson2d(4).unwrap();
        let dir = std::env::temp_dir().join("ftcg_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p2d.mtx");
        write_matrix_market_file(&path, &a).unwrap();
        let b = read_matrix_market_file(&path).unwrap();
        assert_eq!(a.to_dense(), b.to_dense());
        std::fs::remove_file(&path).ok();
    }
}
