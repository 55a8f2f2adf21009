//! [`RowOrder`] — the row *visit order* of the defensive CSR traversal.
//!
//! SELL-C-σ is fast on short, variable rows because it sorts rows by
//! length inside a window of σ rows, so the rows that advance together
//! have one length: no per-lane tails and one loop trip count that the
//! branch predictor learns. That needs no second copy of the matrix —
//! only the *order* in which the one CSR traversal
//! ([`CsrMatrix::spmv_clamped_probe_ordered_into`] and siblings) picks
//! its rows. Each row still sums its own nonzeros in ascending storage
//! order and finished rows reach the caller in ascending row order, so
//! the order changes no bit of any output.
//!
//! A `RowOrder` is reliable derived metadata, like the ABFT checksums:
//! built from the caller's pristine matrix, 4 bytes per row, never a
//! fault target. It carries **no invalidation duty**: whatever happens
//! to the live matrix afterwards, a stale order costs speed only, since
//! the traversal reads every row's range from the live `rowptr` and
//! absorbs any length mismatch. What the traversal does rely on is that
//! the order is a permutation of `0..n` that permutes each
//! [`RowOrder::WINDOW`]-row window onto itself; the field is private and
//! [`RowOrder::rebuild`] is the only writer, so that holds by
//! construction, and an order of the wrong length is ignored.

use crate::csr::CsrMatrix;

/// Rows that advance in lockstep in the defensive traversal.
pub(crate) const LANES: usize = 4;

/// Percentage of a window's nonzeros its natural (ascending) bands must
/// already cover in lockstep for the window to keep the natural order.
const NATURAL_LOCKSTEP_PCT: usize = 85;

/// A length-sorted row visit order (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowOrder {
    /// `perm[k]` is the `k`-th row to visit; window `w` of `perm` is a
    /// permutation of the rows `w·WINDOW .. (w+1)·WINDOW`.
    perm: Vec<u32>,
}

impl RowOrder {
    /// Rows per sorting window (SELL's σ). Finished rows of a window are
    /// parked in a stack buffer of this many values, so they can be
    /// handed on in ascending order.
    pub const WINDOW: usize = 64;

    /// The empty order: matches no matrix with rows, so every traversal
    /// given it visits rows in natural order.
    pub const fn new() -> Self {
        RowOrder { perm: Vec::new() }
    }

    /// Rebuilds the order for `a` in place, reusing the buffer (it grows
    /// to exactly `n_rows` entries, never by doubling).
    ///
    /// Inside each window rows are sorted by clamped length
    /// ([`CsrMatrix::row_range_clamped`]), ties in ascending row order.
    /// A window whose natural bands already run at least 85 % of their
    /// nonzeros in lockstep (long rows of similar length) keeps the
    /// natural order: sorting gains nothing there and gives up the
    /// sequential walk through `colid`/`val`. A matrix with more than
    /// `u32::MAX` rows gets the empty order.
    pub fn rebuild(&mut self, a: &CsrMatrix) {
        let n = a.n_rows();
        self.perm.clear();
        let Ok(n32) = u32::try_from(n) else {
            return;
        };
        self.perm.reserve_exact(n);
        self.perm.extend(0..n32);
        let mut lens = [0usize; Self::WINDOW];
        for (w, window) in self.perm.chunks_mut(Self::WINDOW).enumerate() {
            let w0 = w * Self::WINDOW;
            let lens = &mut lens[..window.len()];
            for (k, len) in lens.iter_mut().enumerate() {
                *len = a.row_range_clamped(w0 + k).len();
            }
            let total: usize = lens.iter().sum();
            let lockstep: usize = lens
                .chunks_exact(LANES)
                .map(|band| LANES * band.iter().min().copied().unwrap_or(0))
                .sum();
            if lockstep * 100 < NATURAL_LOCKSTEP_PCT * total {
                window.sort_unstable_by_key(|&r| (lens[r as usize - w0], r));
            }
        }
    }

    /// The visit order as row indices; `order.as_slice()[k]` is the
    /// `k`-th row visited.
    pub fn as_slice(&self) -> &[u32] {
        &self.perm
    }

    /// Bytes the order keeps reserved (capacity, not length).
    pub fn capacity_bytes(&self) -> usize {
        self.perm.capacity() * std::mem::size_of::<u32>()
    }

    /// The order if it was built for `n_rows` rows, else `None` (the
    /// traversal then visits rows in natural order).
    #[inline]
    pub(crate) fn for_rows(&self, n_rows: usize) -> Option<&[u32]> {
        (self.perm.len() == n_rows).then_some(&self.perm[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn is_window_permutation(order: &RowOrder, n: usize) -> bool {
        order.as_slice().len() == n
            && order
                .as_slice()
                .chunks(RowOrder::WINDOW)
                .enumerate()
                .all(|(w, window)| {
                    let mut rows: Vec<usize> = window.iter().map(|&r| r as usize).collect();
                    rows.sort_unstable();
                    rows.into_iter()
                        .eq((w * RowOrder::WINDOW..).take(window.len()))
                })
    }

    #[test]
    fn short_variable_rows_are_sorted_by_length_inside_windows() {
        let a = gen::random_spd(200, 0.04, 5).unwrap();
        let mut order = RowOrder::new();
        order.rebuild(&a);
        assert!(is_window_permutation(&order, 200));
        let mut sorted_windows = 0;
        for window in order.as_slice().chunks(RowOrder::WINDOW) {
            let lens: Vec<usize> = window
                .iter()
                .map(|&r| a.row_range(r as usize).len())
                .collect();
            let natural = window.windows(2).all(|p| p[0] < p[1]);
            if !natural {
                sorted_windows += 1;
                assert!(lens.windows(2).all(|p| p[0] <= p[1]), "{lens:?}");
            }
        }
        assert!(sorted_windows > 0, "8 ± 3 nonzeros per row must sort");
    }

    #[test]
    fn uniform_rows_keep_the_natural_order() {
        // Interior rows of a 2-D Poisson matrix all hold 5 nonzeros.
        let a = gen::poisson2d(20).unwrap();
        let mut order = RowOrder::new();
        order.rebuild(&a);
        let natural: Vec<u32> = (0..400).collect();
        assert_eq!(&order.as_slice()[64..320], &natural[64..320]);
        assert!(is_window_permutation(&order, 400));
    }

    #[test]
    fn rebuild_reuses_the_buffer_and_survives_corrupt_lengths() {
        let big = gen::random_spd(300, 0.03, 1).unwrap();
        let mut small = gen::random_spd(70, 0.1, 2).unwrap();
        let mut order = RowOrder::new();
        order.rebuild(&big);
        let (ptr, bytes) = (order.as_slice().as_ptr(), order.capacity_bytes());
        assert_eq!(bytes, 4 * 300);
        small.rowptr_mut()[3] = u32::MAX;
        small.rowptr_mut()[40] = 0;
        order.rebuild(&small);
        assert!(is_window_permutation(&order, 70));
        order.rebuild(&big);
        assert_eq!(
            (order.as_slice().as_ptr(), order.capacity_bytes()),
            (ptr, bytes)
        );
        order.rebuild(&CsrMatrix::default());
        assert!(order.as_slice().is_empty());
    }
}
