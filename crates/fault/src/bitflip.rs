//! Single-bit corruption of the word types the paper's model strikes.

/// Which bits of a word a flip may land on.
///
/// The paper flips bits anywhere in the representation. For the *index*
/// arrays (`Colid`, `Rowidx`) a flip in a high bit produces an index that
/// is out of bounds and trivially caught, so experiments may optionally
/// restrict flips to the low bits to exercise the interesting
/// valid-but-wrong case: an index that stays in range, which only the
/// checksums can catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitRange {
    /// Any of the 64 bits.
    Full,
    /// Only bits `0..k` (the value-changing low bits).
    Low(u32),
    /// Only the top `k` bits (`64−k..64`): sign and exponent for `f64`,
    /// guaranteeing a *large*, always-detectable perturbation. Used by
    /// the calibrated model-validation experiments, where every fault
    /// must be above the detection tolerance.
    High(u32),
}

impl BitRange {
    /// Number of candidate bit positions.
    pub fn width(&self) -> u32 {
        match *self {
            BitRange::Full => 64,
            BitRange::Low(k) | BitRange::High(k) => k.min(64),
        }
    }

    /// Maps a draw in `0..width()` to an actual bit position.
    pub fn position(&self, draw: u32) -> u32 {
        debug_assert!(draw < self.width());
        match *self {
            BitRange::Full | BitRange::Low(_) => draw,
            BitRange::High(k) => 64 - k.min(64) + draw,
        }
    }

    /// The smallest range that still lets a flip reach any valid index in
    /// `0..bound`, plus one spare bit so flips can also *increase* an index
    /// past the bound (detectable case).
    pub fn for_index_bound(bound: usize) -> BitRange {
        let bits = usize::BITS - bound.next_power_of_two().leading_zeros();
        BitRange::Low((bits + 1).min(64))
    }
}

/// Flips bit `bit` of an `f64`, operating on the IEEE-754 representation.
#[inline]
pub fn flip_f64(v: f64, bit: u32) -> f64 {
    debug_assert!(bit < 64);
    f64::from_bits(v.to_bits() ^ (1u64 << bit))
}

/// Flips bit `bit` of a `usize` (as a 64-bit word).
#[inline]
pub fn flip_usize(v: usize, bit: u32) -> usize {
    debug_assert!(bit < usize::BITS);
    v ^ (1usize << bit)
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
    fn flip_is_involution_usize() {
        for bit in [0u32, 1, 17, 40, 63] {
            assert_eq!(flip_usize(flip_usize(12345, bit), bit), 12345);
        }
    }

    #[test]
    fn low_range_width() {
        assert_eq!(BitRange::Full.width(), 64);
        assert_eq!(BitRange::Low(8).width(), 8);
        assert_eq!(BitRange::Low(100).width(), 64);
    }

    #[test]
    fn high_range_targets_top_bits() {
        let r = BitRange::High(12);
        assert_eq!(r.width(), 12);
        assert_eq!(r.position(0), 52); // lowest exponent bit
        assert_eq!(r.position(11), 63); // sign bit
                                        // Every high-bit flip of a normal float changes it massively
                                        // (possibly all the way to NaN/Inf).
        for d in 0..12 {
            let v = 1.2345;
            let w = flip_f64(v, r.position(d));
            assert!(
                !w.is_finite() || (w - v).abs() > 1e-4 * v.abs(),
                "bit {d}: {w}"
            );
        }
    }

    #[test]
    fn for_index_bound_covers_bound() {
        let r = BitRange::for_index_bound(1000); // needs 10 bits, +1 spare
        assert!(r.width() >= 11);
        // Any index < 1000 can become any other index < 1024 via flips in range.
        match r {
            BitRange::Low(k) => assert!((1usize << (k - 1)) >= 1000),
            _ => panic!("expected Low"),
        }
    }

    #[test]
    fn for_index_bound_small() {
        let r = BitRange::for_index_bound(2);
        assert!(r.width() >= 2);
    }
}
