//! Single-bit corruption of the word types the paper's model strikes.

/// Which bits of a word a flip may land on. A range applies to a word of
/// `word_bits` bits: 64 for an `f64` (`Val` and the vectors), 32 for an
/// index (`Colid`, `Rowidx`).
///
/// The paper flips bits anywhere in the representation. For the *index*
/// arrays (`Colid`, `Rowidx`) a flip in a high bit produces an index that
/// is out of bounds and trivially caught, so experiments may optionally
/// restrict flips to the low bits to exercise the interesting
/// valid-but-wrong case: an index that stays in range, which only the
/// checksums can catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BitRange {
    /// Any bit of the word.
    Full,
    /// Only bits `0..k` (the value-changing low bits).
    Low(u32),
    /// Only the top `k` bits (`word_bits−k..word_bits`): sign and
    /// exponent for `f64`, guaranteeing a *large*, always-detectable
    /// perturbation. Used by the calibrated model-validation
    /// experiments, where every fault must be above the detection
    /// tolerance.
    High(u32),
}

impl BitRange {
    /// Number of candidate bit positions in a `word_bits`-bit word.
    pub(crate) fn width(&self, word_bits: u32) -> u32 {
        match *self {
            BitRange::Full => word_bits,
            BitRange::Low(k) | BitRange::High(k) => k.min(word_bits),
        }
    }

    /// Maps a draw in `0..width(word_bits)` to an actual bit position.
    pub(crate) fn position(&self, draw: u32, word_bits: u32) -> u32 {
        debug_assert!(draw < self.width(word_bits));
        match *self {
            BitRange::Full | BitRange::Low(_) => draw,
            BitRange::High(k) => word_bits - k.min(word_bits) + draw,
        }
    }

    /// The smallest range that still lets a flip reach any valid index in
    /// `0..bound`, plus one spare bit so flips can also *increase* an index
    /// past the bound (detectable case). Every bound a `CsrMatrix` can
    /// have (at most `ftcg_sparse::MAX_INDEX_BOUND` = 2³⁰) gets at most
    /// `Low(32)`: all of it lies inside the 32-bit index word.
    pub(crate) fn for_index_bound(bound: usize) -> BitRange {
        let bits = usize::BITS - bound.next_power_of_two().leading_zeros();
        BitRange::Low((bits + 1).min(u32::BITS))
    }
}

/// Flips bit `bit` of an `f64`, operating on the IEEE-754 representation.
#[inline]
pub fn flip_f64(v: f64, bit: u32) -> f64 {
    debug_assert!(bit < 64);
    f64::from_bits(v.to_bits() ^ (1u64 << bit))
}

/// Flips bit `bit` of a 32-bit index word.
#[inline]
pub fn flip_u32(v: u32, bit: u32) -> u32 {
    debug_assert!(bit < u32::BITS);
    v ^ (1u32 << bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involution_f64() {
        for bit in [0u32, 5, 31, 52, 62, 63] {
            let v = std::f64::consts::PI;
            assert_eq!(flip_f64(flip_f64(v, bit), bit), v);
        }
    }

    #[test]
    fn flip_changes_value_f64() {
        let v = 1.0;
        for bit in 0..64 {
            let w = flip_f64(v, bit);
            assert_ne!(w.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn flip_sign_bit() {
        assert_eq!(flip_f64(2.5, 63), -2.5);
    }

    #[test]
    fn flip_mantissa_lsb_is_tiny() {
        let v = 1.0;
        let w = flip_f64(v, 0);
        assert!((w - v).abs() < 1e-15);
        assert_ne!(w, v);
    }

    #[test]
    fn flip_exponent_is_large() {
        let v = 1.0;
        let w = flip_f64(v, 62); // top exponent bit
        assert!(w.abs() > 1e100 || w.abs() < 1e-100);
    }

    #[test]
    fn flip_is_involution_u32() {
        for bit in [0u32, 1, 17, 30, 31] {
            assert_eq!(flip_u32(flip_u32(12345, bit), bit), 12345);
        }
        assert_eq!(flip_u32(0, 31), 1 << 31);
    }

    #[test]
    fn low_range_width() {
        assert_eq!(BitRange::Full.width(64), 64);
        assert_eq!(BitRange::Low(8).width(64), 8);
        assert_eq!(BitRange::Low(100).width(64), 64);
    }

    #[test]
    fn ranges_fit_an_index_word() {
        // `Full` on an index word is its 32 bits, and no range reaches
        // past them.
        assert_eq!(BitRange::Full.width(32), 32);
        assert_eq!(BitRange::Low(40).width(32), 32);
        assert_eq!(BitRange::High(4).position(3, 32), 31);
    }

    #[test]
    fn high_range_targets_top_bits() {
        let r = BitRange::High(12);
        assert_eq!(r.width(64), 12);
        assert_eq!(r.position(0, 64), 52); // lowest exponent bit
        assert_eq!(r.position(11, 64), 63); // sign bit
                                            // Every high-bit flip of a normal float changes it massively
                                            // (possibly all the way to NaN/Inf).
        for d in 0..12 {
            let v = 1.2345;
            let w = flip_f64(v, r.position(d, 64));
            assert!(
                !w.is_finite() || (w - v).abs() > 1e-4 * v.abs(),
                "bit {d}: {w}"
            );
        }
    }

    #[test]
    fn for_index_bound_covers_bound() {
        let r = BitRange::for_index_bound(1000); // needs 10 bits, +1 spare
        assert!(r.width(32) >= 11);
        // Any index < 1000 can become any other index < 1024 via flips in range.
        match r {
            BitRange::Low(k) => assert!((1usize << (k - 1)) >= 1000),
            _ => panic!("expected Low"),
        }
    }

    #[test]
    fn for_index_bound_small() {
        let r = BitRange::for_index_bound(2);
        assert!(r.width(32) >= 2);
    }

    /// Why 32-bit indices move no fault stream: the largest paper
    /// matrix's bound (`paper:341:1`, 1 142 499) draws from bits 0..23,
    /// and the largest bound a matrix may have still fits the word.
    #[test]
    fn index_bounds_stay_inside_the_index_word() {
        assert_eq!(BitRange::for_index_bound(1_142_499), BitRange::Low(23));
        assert_eq!(BitRange::for_index_bound(1 << 30), BitRange::Low(32));
        assert_eq!(
            BitRange::for_index_bound(ftcg_sparse::MAX_INDEX_BOUND),
            BitRange::Low(u32::BITS)
        );
    }
}
