//! Enumeration of corruptible memory regions.
//!
//! Section 5.1: "These bit flips can strike either the matrix (the
//! elements of `Val`, `Colid` and `Rowidx`), or any entry of the CG
//! vectors `rᵢ, q, pᵢ or xᵢ`." Checksums and checksum computations are
//! reliable (selective reliability) and therefore have no variant here.

/// Which CG iteration vector a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VectorId {
    /// Residual `rᵢ`.
    R,
    /// SpMxV output `q = A·pᵢ`.
    Q,
    /// Search direction `pᵢ`.
    P,
    /// Iterate `xᵢ`.
    X,
}

impl VectorId {
    /// All vector identifiers, in layout order.
    pub(crate) const ALL: [VectorId; 4] = [VectorId::R, VectorId::Q, VectorId::P, VectorId::X];
}

/// A corruptible memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultTarget {
    /// An entry of the CSR value array.
    MatrixVal,
    /// An entry of the CSR column-index array.
    MatrixColid,
    /// An entry of the CSR row-pointer array.
    MatrixRowidx,
    /// An entry of a CG iteration vector.
    Vector(VectorId),
}

impl FaultTarget {
    /// `true` iff the target is one of the three matrix arrays.
    pub fn is_matrix(&self) -> bool {
        matches!(
            self,
            FaultTarget::MatrixVal | FaultTarget::MatrixColid | FaultTarget::MatrixRowidx
        )
    }
}

/// Word-level layout of the corruptible memory: maps a uniform draw over
/// `0..total_words()` to a `(target, offset)` pair, so every word is
/// equally likely to be struck, as in the paper. A word is one entry of
/// an array, whatever its width: an 8-byte value and a 4-byte index
/// count alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoryLayout {
    /// Number of stored nonzeros (`|Val| = |Colid| = nnz`).
    pub(crate) nnz: usize,
    /// Matrix order (`|Rowidx| = n + 1`, each vector has `n` words).
    pub(crate) n: usize,
    /// Whether the four CG vectors are part of the corruptible footprint.
    pub(crate) include_vectors: bool,
}

impl MemoryLayout {
    /// Total corruptible words `M`.
    pub(crate) fn total_words(&self) -> usize {
        let matrix = 2 * self.nnz + self.n + 1;
        if self.include_vectors {
            matrix + 4 * self.n
        } else {
            matrix
        }
    }

    /// Maps a word index in `0..total_words()` to its region and offset.
    ///
    /// # Panics
    /// Panics if `word` is out of range.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract on locate(): an out-of-range word is injector-harness misuse, not a recoverable input"
    )]
    pub(crate) fn locate(&self, word: usize) -> (FaultTarget, usize) {
        let mut w = word;
        if w < self.nnz {
            return (FaultTarget::MatrixVal, w);
        }
        w -= self.nnz;
        if w < self.nnz {
            return (FaultTarget::MatrixColid, w);
        }
        w -= self.nnz;
        if w < self.n + 1 {
            return (FaultTarget::MatrixRowidx, w);
        }
        w -= self.n + 1;
        assert!(self.include_vectors, "word index out of matrix-only range");
        for id in VectorId::ALL {
            if w < self.n {
                return (FaultTarget::Vector(id), w);
            }
            w -= self.n;
        }
        panic!("word index {word} out of range {}", self.total_words());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's setting: matrix plus the four CG vectors.
    fn with_vectors(nnz: usize, n: usize) -> MemoryLayout {
        MemoryLayout {
            nnz,
            n,
            include_vectors: true,
        }
    }

    #[test]
    fn total_words_with_vectors() {
        let l = with_vectors(100, 10);
        assert_eq!(l.total_words(), 200 + 11 + 40);
    }

    #[test]
    fn total_words_matrix_only() {
        let l = MemoryLayout {
            nnz: 100,
            n: 10,
            include_vectors: false,
        };
        assert_eq!(l.total_words(), 211);
    }

    #[test]
    fn locate_boundaries() {
        let l = with_vectors(5, 3);
        assert_eq!(l.locate(0), (FaultTarget::MatrixVal, 0));
        assert_eq!(l.locate(4), (FaultTarget::MatrixVal, 4));
        assert_eq!(l.locate(5), (FaultTarget::MatrixColid, 0));
        assert_eq!(l.locate(9), (FaultTarget::MatrixColid, 4));
        assert_eq!(l.locate(10), (FaultTarget::MatrixRowidx, 0));
        assert_eq!(l.locate(13), (FaultTarget::MatrixRowidx, 3));
        assert_eq!(l.locate(14), (FaultTarget::Vector(VectorId::R), 0));
        assert_eq!(l.locate(17), (FaultTarget::Vector(VectorId::Q), 0));
        assert_eq!(l.locate(20), (FaultTarget::Vector(VectorId::P), 0));
        assert_eq!(l.locate(23), (FaultTarget::Vector(VectorId::X), 0));
        assert_eq!(l.locate(25), (FaultTarget::Vector(VectorId::X), 2));
    }

    #[test]
    #[should_panic]
    fn locate_out_of_range_panics() {
        with_vectors(5, 3).locate(26);
    }

    #[test]
    fn locate_covers_every_word_exactly_once() {
        let l = with_vectors(7, 4);
        let mut counts = std::collections::BTreeMap::new();
        for w in 0..l.total_words() {
            *counts.entry(l.locate(w)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), l.total_words());
        assert!(counts.values().all(|&c| c == 1));
    }

    #[test]
    fn is_matrix_separates_matrix_from_vectors() {
        assert!(FaultTarget::MatrixRowidx.is_matrix());
        assert!(!FaultTarget::Vector(VectorId::X).is_matrix());
    }
}
