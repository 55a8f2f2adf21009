//! Triple modular redundancy for vector data.
//!
//! Section 3.1: "As ABFT methods for vector operations is as costly as a
//! repeated computation, we use triple modular redundancy (TMR) for them
//! for simplicity … we compute the dots, norms and axpy operations in the
//! resilient mode." A single silent error striking one replica is
//! outvoted by the other two (2-of-3 majority); two colliding errors in
//! one vote window are detected as unresolved and force a rollback.

/// A vector held in three replicas with bitwise majority voting.
#[derive(Debug, Clone, PartialEq)]
pub struct TmrVector {
    replicas: [Vec<f64>; 3],
}

/// Result of a majority vote over all elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VoteOutcome {
    /// Elements where one replica disagreed and was repaired.
    pub corrected: usize,
    /// Elements where all three replicas disagreed (no majority).
    pub unresolved: usize,
}

impl VoteOutcome {
    /// `true` iff the vote produced a trustworthy value everywhere.
    pub fn is_trusted(&self) -> bool {
        self.unresolved == 0
    }
}

impl TmrVector {
    /// Creates three identical replicas of `data`.
    pub fn new(data: &[f64]) -> Self {
        Self {
            replicas: [data.to_vec(), data.to_vec(), data.to_vec()],
        }
    }

    /// Zero-initialized TMR vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self::new(&vec![0.0; n])
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        self.replicas[0].len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.replicas[0].is_empty()
    }

    /// Read-only view of the primary replica (callers should vote first).
    pub fn primary(&self) -> &[f64] {
        &self.replicas[0]
    }

    /// Mutable access to a single replica — the fault injector's door.
    ///
    /// # Panics
    /// Panics if `r >= 3`.
    pub fn replica_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.replicas[r]
    }

    /// Overwrites all three replicas with `data` (a resilient-mode write).
    pub fn store(&mut self, data: &[f64]) {
        for rep in &mut self.replicas {
            rep.clear();
            rep.extend_from_slice(data);
        }
    }

    /// Bitwise 2-of-3 majority vote; repairs outvoted replicas in place.
    pub fn vote(&mut self) -> VoteOutcome {
        let mut out = VoteOutcome::default();
        let n = self.len();
        for i in 0..n {
            let b0 = self.replicas[0][i].to_bits();
            let b1 = self.replicas[1][i].to_bits();
            let b2 = self.replicas[2][i].to_bits();
            if b0 == b1 && b1 == b2 {
                continue;
            }
            let winner = if b0 == b1 || b0 == b2 {
                Some(b0)
            } else if b1 == b2 {
                Some(b1)
            } else {
                None
            };
            match winner {
                Some(w) => {
                    let v = f64::from_bits(w);
                    self.replicas[0][i] = v;
                    self.replicas[1][i] = v;
                    self.replicas[2][i] = v;
                    out.corrected += 1;
                }
                None => out.unresolved += 1,
            }
        }
        out
    }

    /// Votes and returns the repaired primary replica.
    pub fn voted(&mut self) -> (&[f64], VoteOutcome) {
        let o = self.vote();
        (&self.replicas[0], o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vector_votes_clean() {
        let mut v = TmrVector::new(&[1.0, 2.0, 3.0]);
        let o = v.vote();
        assert_eq!(o, VoteOutcome::default());
        assert!(o.is_trusted());
    }

    #[test]
    fn single_replica_fault_corrected() {
        let mut v = TmrVector::new(&[1.0, 2.0, 3.0]);
        v.replica_mut(1)[2] = -99.0;
        let o = v.vote();
        assert_eq!(o.corrected, 1);
        assert_eq!(o.unresolved, 0);
        assert_eq!(v.primary(), &[1.0, 2.0, 3.0]);
        // all replicas repaired
        assert_eq!(v.replica_mut(1)[2], 3.0);
    }

    #[test]
    fn faults_in_different_elements_all_corrected() {
        let mut v = TmrVector::new(&[1.0, 2.0, 3.0, 4.0]);
        v.replica_mut(0)[0] = 9.0;
        v.replica_mut(1)[1] = 9.0;
        v.replica_mut(2)[3] = 9.0;
        let o = v.vote();
        assert_eq!(o.corrected, 3);
        assert_eq!(o.unresolved, 0);
        assert_eq!(v.primary(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn colliding_faults_unresolved() {
        let mut v = TmrVector::new(&[1.0, 2.0]);
        v.replica_mut(0)[0] = 7.0;
        v.replica_mut(1)[0] = 8.0; // same element, different corruption
        let o = v.vote();
        assert_eq!(o.unresolved, 1);
        assert!(!o.is_trusted());
    }

    #[test]
    fn identical_double_corruption_outvotes_truth() {
        // The known TMR failure mode: two replicas corrupted identically.
        let mut v = TmrVector::new(&[1.0]);
        v.replica_mut(0)[0] = 5.0;
        v.replica_mut(1)[0] = 5.0;
        let o = v.vote();
        assert_eq!(o.corrected, 1);
        assert_eq!(v.primary(), &[5.0]); // silently wrong — by design
    }

    #[test]
    fn store_resets_all_replicas() {
        let mut v = TmrVector::new(&[1.0]);
        v.replica_mut(2)[0] = 4.0;
        v.store(&[8.0]);
        assert_eq!(v.vote(), VoteOutcome::default());
        assert_eq!(v.primary(), &[8.0]);
    }

    #[test]
    fn nan_corruption_corrected() {
        let mut v = TmrVector::new(&[1.0, 2.0]);
        v.replica_mut(0)[1] = f64::NAN;
        let o = v.vote();
        assert_eq!(o.corrected, 1);
        assert_eq!(v.primary(), &[1.0, 2.0]);
    }

    #[test]
    fn zeros_and_len() {
        let v = TmrVector::zeros(5);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert!(TmrVector::zeros(0).is_empty());
    }
}
