//! The checkpointed solver state.

use ftcg_sparse::CsrMatrix;

/// Snapshot of a CG run: the iteration vectors of Algorithm 1 plus the
/// matrix image (the paper checkpoints `A` so memory corruption of the
/// matrix is recoverable). A state filled by
/// [`SolverState::store_vectors`] keeps the matrix empty: its matrix is
/// the reliable input it was taken over, which is how the resilient
/// executor checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverState {
    /// Iteration index at which the snapshot was taken.
    pub iteration: usize,
    /// Iterate `xᵢ`.
    pub x: Vec<f64>,
    /// Residual `rᵢ`.
    pub r: Vec<f64>,
    /// Search direction `pᵢ`.
    pub p: Vec<f64>,
    /// Squared residual norm `‖rᵢ‖²` carried by the CG recurrence.
    pub rnorm_sq: f64,
    /// Image of the sparse matrix.
    pub matrix: CsrMatrix,
}

impl SolverState {
    /// An empty placeholder state (`n = 0`), the starting point for a
    /// retained snapshot buffer that [`SolverState::store`] will size on
    /// first use.
    pub fn empty() -> Self {
        Self {
            iteration: 0,
            x: Vec::new(),
            r: Vec::new(),
            p: Vec::new(),
            rnorm_sq: 0.0,
            matrix: CsrMatrix::default(),
        }
    }

    /// Captures a snapshot *into this buffer*. Contents end up
    /// bit-identical to a fresh buffer's; the existing vector and matrix
    /// allocations are reused whenever their capacity suffices (always,
    /// once the buffer has seen this problem shape).
    pub fn store(
        &mut self,
        iteration: usize,
        x: &[f64],
        r: &[f64],
        p: &[f64],
        rnorm_sq: f64,
        matrix: &CsrMatrix,
    ) {
        self.store_vectors(iteration, x, r, p, rnorm_sq);
        self.matrix.clone_from(matrix);
    }

    /// [`SolverState::store`] without the matrix, which is left as it
    /// is: for a state whose matrix lives elsewhere — every rollback of
    /// the executor restores the caller's own pristine input, so its
    /// checkpoints retain vectors only.
    pub fn store_vectors(
        &mut self,
        iteration: usize,
        x: &[f64],
        r: &[f64],
        p: &[f64],
        rnorm_sq: f64,
    ) {
        self.iteration = iteration;
        self.x.clear();
        self.x.extend_from_slice(x);
        self.r.clear();
        self.r.extend_from_slice(r);
        self.p.clear();
        self.p.extend_from_slice(p);
        self.rnorm_sq = rnorm_sq;
    }

    /// Number of 8-byte words the snapshot occupies (vectors + matrix
    /// arrays, [`CsrMatrix::memory_words`]) — proportional to the
    /// checkpoint time `Tcp`.
    pub fn size_words(&self) -> usize {
        3 * self.x.len() + self.matrix.memory_words() + 2
    }

    /// Problem size `n`.
    pub fn n(&self) -> usize {
        self.x.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    /// A snapshot stored into a fresh buffer.
    fn capture(
        iteration: usize,
        x: &[f64],
        r: &[f64],
        p: &[f64],
        rnorm_sq: f64,
        matrix: &CsrMatrix,
    ) -> SolverState {
        let mut s = SolverState::empty();
        s.store(iteration, x, r, p, rnorm_sq, matrix);
        s
    }

    #[test]
    fn capture_clones_everything() {
        let a = gen::tridiagonal(4, 3.0, -1.0).unwrap();
        let s = capture(7, &[1.0; 4], &[2.0; 4], &[3.0; 4], 16.0, &a);
        assert_eq!(s.iteration, 7);
        assert_eq!(s.n(), 4);
        assert_eq!(s.rnorm_sq, 16.0);
        assert_eq!(s.matrix, a);
    }

    #[test]
    fn size_words_accounts_vectors_and_matrix() {
        let a = gen::tridiagonal(4, 3.0, -1.0).unwrap();
        let s = capture(0, &[0.0; 4], &[0.0; 4], &[0.0; 4], 0.0, &a);
        assert_eq!(s.size_words(), 12 + a.memory_words() + 2);
    }

    #[test]
    fn store_matches_capture_bit_for_bit() {
        let a = gen::tridiagonal(5, 4.0, -1.0).unwrap();
        let fresh = capture(3, &[1.5; 5], &[-2.0; 5], &[0.25; 5], 20.0, &a);
        let mut retained = SolverState::empty();
        retained.store(3, &[1.5; 5], &[-2.0; 5], &[0.25; 5], 20.0, &a);
        assert_eq!(retained, fresh);
        // Re-store over live contents (the steady-state checkpoint path).
        let b = gen::tridiagonal(5, 5.0, -2.0).unwrap();
        retained.store(9, &[0.0; 5], &[1.0; 5], &[2.0; 5], 5.0, &b);
        assert_eq!(
            retained,
            capture(9, &[0.0; 5], &[1.0; 5], &[2.0; 5], 5.0, &b)
        );
    }

    #[test]
    fn store_vectors_leaves_the_matrix_alone() {
        let a = gen::tridiagonal(5, 4.0, -1.0).unwrap();
        let mut st = SolverState::empty();
        st.store_vectors(2, &[1.0; 5], &[2.0; 5], &[3.0; 5], 20.0);
        assert_eq!((st.iteration, st.n(), st.rnorm_sq), (2, 5, 20.0));
        assert_eq!(st.matrix, SolverState::empty().matrix);
        assert_eq!(
            st.size_words(),
            15 + 1 + 2,
            "no matrix words beyond the empty rowptr"
        );
        // Over a full state only the vectors change.
        st.store(0, &[0.0; 5], &[0.0; 5], &[0.0; 5], 0.0, &a);
        st.store_vectors(7, &[9.0; 5], &[8.0; 5], &[7.0; 5], 1.0);
        assert_eq!(st, capture(7, &[9.0; 5], &[8.0; 5], &[7.0; 5], 1.0, &a));
    }

    #[test]
    fn empty_is_zero_sized() {
        let e = SolverState::empty();
        assert_eq!(e.n(), 0);
        assert_eq!(e.iteration, 0);
    }

    #[test]
    fn snapshot_is_independent_of_source() {
        let a = gen::tridiagonal(4, 3.0, -1.0).unwrap();
        let mut x = vec![1.0; 4];
        let s = capture(0, &x, &x, &x, 0.0, &a);
        x[0] = 99.0;
        assert_eq!(s.x[0], 1.0);
    }
}
