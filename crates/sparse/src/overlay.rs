//! The corruptible matrix as its pristine image plus the words struck
//! since the last reload: [`CsrWords`], [`Flips`] and [`CsrOverlay`].
//!
//! In the paper's model `A` sits in unreliable memory, a fault is a bit
//! flip in one of its words, and recovery re-reads `A` from reliable
//! storage. When the reliable copy is the caller's own pristine matrix,
//! the unreliable matrix at any moment *is* that matrix plus the flips
//! struck since the last reload. A [`CsrOverlay`] holds exactly that: a
//! borrowed base [`CsrMatrix`] and a short sorted list of the words that
//! differ from it ([`Flips`], a retained buffer). A reload — a rollback —
//! clears the list: O(flips), not an O(nnz) copy, and no second image of
//! the matrix exists.
//!
//! [`CsrWords`] is the one interface over the three CSR word arrays
//! (read a word, write a word, the clamped row range) that the fault
//! injector, the ABFT tests and corrections and ONLINE-DETECTION's
//! residual check are written against. A [`CsrMatrix`] implements it as
//! a matrix with no flips; the overlay as its base plus its flips. Every
//! read stays on the base's contiguous slices: a row with no flipped word
//! is read as base slices, and a row with flipped words (even a wild
//! `Rowidx` range) as base runs split at the flipped positions.
//!
//! The products run the one defensive traversal
//! ([`CsrMatrix::spmv_clamped_probe_ordered_into`] and siblings) on the
//! base, exactly as for a plain matrix. Once per [`RowOrder::WINDOW`],
//! before the window's rows reach the caller, the outputs of the
//! window's *flipped rows* are recomputed from the overlay with
//! [`CsrWords::row_product_clamped`]'s chain and skip rule. A flipped
//! row is one whose `Rowidx` bound is flipped or whose base range holds
//! a flipped `Val`/`Colid` word; every other row reads exactly the words
//! the base holds, so every output bit is the one a materialized
//! corrupted matrix gives. The exact `Rowidx` checksums are the cached
//! sums of the base plus each flipped word's integer delta
//! ([`CsrWords::rowptr_sums`]), O(flips) per product instead of an O(n)
//! sweep.

use std::ops::Range;

use crate::csr::{clamped_range, CsrMatrix};
use crate::order::RowOrder;

/// The address of one word of the three CSR arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrWord {
    /// `Val[k]`, an `f64`.
    Val(usize),
    /// `Colid[k]`, a `u32`.
    Colid(usize),
    /// `Rowidx[t]`, a `u32`.
    Rowidx(usize),
}

/// The live column index and value of a stored entry where either word
/// differs from the base.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    pos: usize,
    colid: u32,
    val: f64,
}

/// The words of a matrix that differ from its base, kept sorted, plus
/// the rows they make differ (see the module docs). A retained buffer:
/// clearing keeps the capacity, and only a write that adds a flip may
/// grow it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flips {
    /// Flipped `Val`/`Colid` positions, ascending.
    entries: Vec<Entry>,
    /// Flipped `Rowidx` words `(position, live word)`, ascending.
    rowptr: Vec<(usize, u32)>,
    /// The flipped rows, ascending and distinct.
    rows: Vec<usize>,
}

/// The flips of a [`CsrMatrix`], which are none.
static NO_FLIPS: Flips = Flips::new();

impl Flips {
    /// No flips.
    pub const fn new() -> Self {
        Flips {
            entries: Vec::new(),
            rowptr: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// `true` iff no word differs from the base.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.rowptr.is_empty()
    }

    /// Bytes the lists keep reserved (capacity, not length).
    pub fn capacity_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
            + self.rowptr.capacity() * std::mem::size_of::<(usize, u32)>()
            + self.rows.capacity() * std::mem::size_of::<usize>()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.rowptr.clear();
        self.rows.clear();
    }

    fn entry(&self, k: usize) -> Option<&Entry> {
        let i = self.entries.partition_point(|e| e.pos < k);
        self.entries.get(i).filter(|e| e.pos == k)
    }

    fn rowptr_word(&self, t: usize) -> Option<u32> {
        let i = self.rowptr.partition_point(|&(p, _)| p < t);
        self.rowptr
            .get(i)
            .filter(|&&(p, _)| p == t)
            .map(|&(_, w)| w)
    }

    /// Re-derives the flipped rows after a write: the base row holding
    /// each flipped entry (base rows tile `0..nnz`) and both rows each
    /// flipped `Rowidx` word bounds.
    fn refresh_rows(&mut self, base: &CsrMatrix) {
        let n = base.n_rows();
        self.rows.clear();
        for e in &self.entries {
            let after = base.rowptr().partition_point(|&p| p as usize <= e.pos);
            self.rows.push(after.saturating_sub(1));
        }
        for &(t, _) in &self.rowptr {
            if t > 0 {
                self.rows.push(t - 1);
            }
            if t < n {
                self.rows.push(t);
            }
        }
        self.rows.sort_unstable();
        self.rows.dedup();
    }
}

/// Exact weighted sums `[Σᵢ pᵢ, Σᵢ (i+1)·pᵢ]` of a row-pointer array as
/// stored. Each term `(i+1)·pᵢ` of a 32-bit word is below 2⁶⁴ for arrays
/// of up to 2³² words (a square matrix has at most 2³⁰ + 1), and the
/// sums accumulate in `u128`.
#[inline]
fn rowptr_sums(rowptr: &[u32]) -> [u128; 2] {
    let mut s = [0u128; 2];
    for (w, &p) in (1u64..).zip(rowptr) {
        s[0] += u128::from(p);
        s[1] += u128::from(w.wrapping_mul(u64::from(p)));
    }
    s
}

/// The low 32 bits of `bits`, the contents of an index word.
fn index_word(bits: u64) -> u32 {
    // The mask makes the conversion exact.
    u32::try_from(bits & u64::from(u32::MAX)).unwrap_or(u32::MAX)
}

/// Visits `k, Colid[k], Val[k]` of the base for every `k` in `range`.
#[inline]
fn base_run(a: &CsrMatrix, range: Range<usize>, visit: &mut impl FnMut(usize, u32, f64)) {
    let start = range.start;
    let (colid, val) = (&a.colid()[range.clone()], &a.val()[range]);
    for (k, (&c, &v)) in (start..).zip(colid.iter().zip(val)) {
        visit(k, c, v);
    }
}

/// The per-window hook of the traversal for `w`: overwrites the outputs
/// of the window's flipped rows with their products over `w`. Windows
/// arrive in ascending order from row `from`.
fn refresh_flipped_rows<'s, W: CsrWords + ?Sized>(
    w: &'s W,
    x: &'s [f64],
    from: usize,
) -> impl FnMut(Range<usize>, &mut [f64; RowOrder::WINDOW]) + 's {
    let rows = &w.flips().rows[..];
    let mut next = rows.partition_point(|&r| r < from);
    move |window, out| {
        while let Some(&r) = rows.get(next).filter(|&&r| r < window.end) {
            out[r % RowOrder::WINDOW] = w.row_product_clamped(x, r);
            next += 1;
        }
    }
}

/// Read and write access to the three CSR word arrays of a matrix that
/// may carry corruption: a [`CsrMatrix`] (a matrix with no flips) or a
/// [`CsrOverlay`] (a base matrix plus its flipped words). See the module
/// docs.
///
/// Shapes (`n_rows`, `n_cols`, `nnz`) are the base's: a flip changes a
/// word, never an array length.
pub trait CsrWords {
    /// The matrix that holds every word not flipped, and the shape.
    fn base(&self) -> &CsrMatrix;

    /// The words that differ from [`CsrWords::base`] (none for a
    /// [`CsrMatrix`]).
    fn flips(&self) -> &Flips;

    /// Writes the word at `at`: an `f64`'s bits, or an index word in the
    /// low 32 bits of `bits`.
    ///
    /// # Panics
    /// Panics if the position is past its array.
    fn write(&mut self, at: CsrWord, bits: u64);

    /// The exact weighted sums `[Σᵢ pᵢ, Σᵢ (i+1)·pᵢ]` of the live
    /// `Rowidx` words, the row-pointer checksums of both ABFT schemes.
    fn rowptr_sums(&self) -> [u128; 2];

    /// Reads the word at `at`: an `f64`'s bits, or an index word
    /// zero-extended.
    ///
    /// # Panics
    /// Panics if the position is past its array.
    fn read(&self, at: CsrWord) -> u64 {
        let (a, f) = (self.base(), self.flips());
        match at {
            CsrWord::Val(k) => f.entry(k).map_or(a.val()[k], |e| e.val).to_bits(),
            CsrWord::Colid(k) => u64::from(f.entry(k).map_or(a.colid()[k], |e| e.colid)),
            CsrWord::Rowidx(t) => u64::from(f.rowptr_word(t).unwrap_or(a.rowptr()[t])),
        }
    }

    /// Storage range of row `i` under the defensive clamping rule of
    /// [`CsrMatrix::row_range_clamped`], read from the live `Rowidx`
    /// words.
    ///
    /// # Panics
    /// Panics if `i >= n_rows`.
    fn row_range_clamped(&self, i: usize) -> Range<usize> {
        let (a, f) = (self.base(), self.flips());
        if f.rowptr.is_empty() {
            return a.row_range_clamped(i);
        }
        let word = |t: usize| f.rowptr_word(t).unwrap_or(a.rowptr()[t]);
        clamped_range(word(i), word(i + 1), a.nnz())
    }

    /// Calls `visit(k, Colid[k], Val[k])` with the live words of every
    /// storage position `k` in `range`, ascending: base runs split at the
    /// flipped positions.
    ///
    /// # Panics
    /// Panics if `range` reaches past `nnz`.
    fn entries(&self, range: Range<usize>, mut visit: impl FnMut(usize, u32, f64)) {
        let (a, f) = (self.base(), self.flips());
        if f.entries.is_empty() {
            return base_run(a, range, &mut visit);
        }
        let first = f.entries.partition_point(|e| e.pos < range.start);
        let mut k = range.start;
        for e in f.entries[first..].iter().take_while(|e| e.pos < range.end) {
            base_run(a, k..e.pos, &mut visit);
            visit(e.pos, e.colid, e.val);
            k = e.pos + 1;
        }
        base_run(a, k..range.end, &mut visit);
    }

    /// Product of row `i` with `x` over the live words, with
    /// [`CsrMatrix::row_product_clamped`]'s chain and skip rule: the
    /// clamped range, out-of-range column indices skipped.
    fn row_product_clamped(&self, x: &[f64], i: usize) -> f64 {
        let mut acc = 0.0;
        self.entries(self.row_range_clamped(i), |_, c, v| {
            let j = c as usize;
            if j < x.len() {
                acc += v * x[j];
            }
        });
        acc
    }

    /// [`CsrMatrix::row_band_product_clamped`] over the live words:
    /// bit-identical to [`CsrWords::row_product_clamped`] per row (the
    /// band `0..n_rows` is the whole product).
    ///
    /// # Panics
    /// Panics if `rows.end > n_rows` or `y.len() != rows.len()`.
    fn row_band_product_clamped(
        &self,
        rows: Range<usize>,
        order: &RowOrder,
        x: &[f64],
        y: &mut [f64],
    ) {
        let a = self.base();
        assert!(rows.end <= a.n_rows(), "row band out of range");
        assert_eq!(y.len(), rows.len(), "row band: y length mismatch");
        let from = rows.start;
        let refresh = refresh_flipped_rows(self, x, from);
        a.row_band_clamped_each(rows, order, x, refresh, |i, v| y[i - from] = v);
    }

    /// [`CsrMatrix::spmv_clamped_probe_ordered_into`] over the live
    /// words: the product and its probe `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]` in one
    /// pass.
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows`.
    fn spmv_clamped_probe_ordered_into(
        &self,
        order: &RowOrder,
        x: &[f64],
        y: &mut [f64],
    ) -> [f64; 2] {
        let a = self.base();
        let n = a.n_rows();
        assert_eq!(y.len(), n, "spmv_clamped: y length mismatch");
        let mut p0 = -0.0;
        let mut p1 = -0.0;
        // Rows arrive in ascending order from 0, so the weight `i + 1`
        // is counted in `f64` (exact below 2⁵³ rows) instead of being
        // converted from `usize` once per row.
        let mut weight = 0.0;
        let refresh = refresh_flipped_rows(self, x, 0);
        a.row_band_clamped_each(0..n, order, x, refresh, |i, v| {
            weight += 1.0;
            debug_assert_eq!(weight, (i + 1) as f64);
            y[i] = v;
            p0 += v;
            p1 += weight * v;
        });
        [p0, p1]
    }
}

impl CsrWords for CsrMatrix {
    fn base(&self) -> &CsrMatrix {
        self
    }

    fn flips(&self) -> &Flips {
        &NO_FLIPS
    }

    fn write(&mut self, at: CsrWord, bits: u64) {
        match at {
            CsrWord::Val(k) => self.val_mut()[k] = f64::from_bits(bits),
            CsrWord::Colid(k) => self.colid_mut()[k] = index_word(bits),
            CsrWord::Rowidx(t) => self.rowptr_mut()[t] = index_word(bits),
        }
    }

    fn rowptr_sums(&self) -> [u128; 2] {
        rowptr_sums(self.rowptr())
    }

    // A matrix with no flips reads its own arrays directly, without the
    // provided methods' flip checks: a forward correction's row sweeps
    // on a plain matrix ran ≈ 10 % faster this way.
    fn row_range_clamped(&self, i: usize) -> Range<usize> {
        CsrMatrix::row_range_clamped(self, i)
    }

    fn entries(&self, range: Range<usize>, mut visit: impl FnMut(usize, u32, f64)) {
        base_run(self, range, &mut visit);
    }
}

/// A matrix as a well-formed base plus its flipped words (see the
/// module docs): the unreliable matrix of a resilient solve, whose base
/// is the caller's pristine input.
#[derive(Debug)]
pub struct CsrOverlay<'a> {
    base: &'a CsrMatrix,
    flips: &'a mut Flips,
    /// [`CsrWords::rowptr_sums`] of the base, computed once.
    base_sums: [u128; 2],
}

impl<'a> CsrOverlay<'a> {
    /// `base` with no flips, keeping its flips in the retained buffer
    /// `flips` (cleared here). `base` must be well-formed
    /// ([`CsrMatrix::validate`]; debug builds check it): its row pointer
    /// locates the row of every flipped entry.
    pub fn new(base: &'a CsrMatrix, flips: &'a mut Flips) -> Self {
        debug_assert!(base.validate().is_ok(), "an overlay's base is well-formed");
        flips.clear();
        CsrOverlay {
            base,
            flips,
            base_sums: rowptr_sums(base.rowptr()),
        }
    }

    /// Drops every flip: the overlay reads as its base again — the
    /// reload of a rollback, O(flips).
    pub fn clear(&mut self) {
        self.flips.clear();
    }
}

impl CsrWords for CsrOverlay<'_> {
    fn base(&self) -> &CsrMatrix {
        self.base
    }

    fn flips(&self) -> &Flips {
        self.flips
    }

    /// Records the word as a flip, or drops its flip when `bits` are the
    /// base's own.
    fn write(&mut self, at: CsrWord, bits: u64) {
        let (a, f) = (self.base, &mut *self.flips);
        match at {
            CsrWord::Val(k) | CsrWord::Colid(k) => {
                let (c0, v0) = (a.colid()[k], a.val()[k]);
                let i = f.entries.partition_point(|e| e.pos < k);
                let held = f.entries.get(i).is_some_and(|e| e.pos == k);
                let mut e = if held {
                    f.entries[i]
                } else {
                    Entry {
                        pos: k,
                        colid: c0,
                        val: v0,
                    }
                };
                match at {
                    CsrWord::Val(_) => e.val = f64::from_bits(bits),
                    _ => e.colid = index_word(bits),
                }
                let pristine = e.colid == c0 && e.val.to_bits() == v0.to_bits();
                match (held, pristine) {
                    (true, true) => {
                        f.entries.remove(i);
                    }
                    (true, false) => f.entries[i] = e,
                    (false, false) => f.entries.insert(i, e),
                    (false, true) => {}
                }
            }
            CsrWord::Rowidx(t) => {
                let (p0, p) = (a.rowptr()[t], index_word(bits));
                let i = f.rowptr.partition_point(|&(q, _)| q < t);
                let held = f.rowptr.get(i).is_some_and(|&(q, _)| q == t);
                match (held, p == p0) {
                    (true, true) => {
                        f.rowptr.remove(i);
                    }
                    (true, false) => f.rowptr[i] = (t, p),
                    (false, false) => f.rowptr.insert(i, (t, p)),
                    (false, true) => {}
                }
            }
        }
        f.refresh_rows(a);
    }

    /// The base's cached sums plus each flipped word's exact delta.
    fn rowptr_sums(&self) -> [u128; 2] {
        let mut s = self.base_sums;
        for &(t, p) in &self.flips.rowptr {
            let (p0, weight) = (self.base.rowptr()[t], t as u64 + 1);
            // Each partial sum is a sum of non-negative terms, so neither
            // subtraction can wrap.
            s[0] = s[0] - u128::from(p0) + u128::from(p);
            s[1] = s[1] - u128::from(weight.wrapping_mul(u64::from(p0)))
                + u128::from(weight.wrapping_mul(u64::from(p)));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn writing_the_base_bits_back_drops_the_flip() {
        let a = gen::poisson2d(6).unwrap();
        let mut flips = Flips::new();
        let mut o = CsrOverlay::new(&a, &mut flips);
        let (v, p) = (a.val()[7].to_bits(), u64::from(a.rowptr()[4]));
        o.write(CsrWord::Val(7), v ^ 1);
        o.write(CsrWord::Rowidx(4), p ^ 2);
        assert!(!o.flips().is_empty());
        o.write(CsrWord::Val(7), v);
        o.write(CsrWord::Rowidx(4), p);
        assert!(o.flips().is_empty());
        assert_eq!(o.rowptr_sums(), a.rowptr_sums());
        o.write(CsrWord::Colid(3), 0);
        o.clear();
        assert!(o.flips().is_empty());
        assert_eq!(o.read(CsrWord::Colid(3)), u64::from(a.colid()[3]));
    }
}
