//! Triple modular redundancy for vector data.
//!
//! Section 3.1: "As ABFT methods for vector operations is as costly as a
//! repeated computation, we use triple modular redundancy (TMR) for them
//! for simplicity … we compute the dots, norms and axpy operations in the
//! resilient mode." A single silent error striking one replica is
//! outvoted by the other two (2-of-3 majority); two colliding errors in
//! one vote window are detected as unresolved and force a rollback.
//!
//! Replicas that were stored equal differ afterwards only by the bits
//! flipped in them since, so the vote is a function of those flips:
//! [`vote_flips`] takes them as a list of [`ReplicaFlip`]s and returns
//! exactly what [`TmrVector::vote`] would on the replicas, without
//! keeping any. The resilient executor records its injected `r`/`x`
//! faults that way and votes them after every step; [`TmrVector`]
//! itself stays as the reference the flip vote is tested against and
//! as the benchmark's cost probe of an element-by-element vote.

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
    pub(crate) unresolved: usize,
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

    /// Vector length.
    pub(crate) fn len(&self) -> usize {
        self.replicas[0].len()
    }

    /// Mutable access to a single replica — the tests' fault door.
    ///
    /// # Panics
    /// Panics if `r >= 3`.
    #[cfg(test)]
    fn replica_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.replicas[r]
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
}

/// One bit flipped in one replica of a TMR-held word since the three
/// replicas were last stored equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFlip {
    /// The word struck, in the caller's numbering of its protected data.
    pub word: usize,
    /// The replica struck, `0..3`.
    pub replica: usize,
    /// The bit flipped, `0..64`.
    pub bit: u32,
}

/// The 2-of-3 majority vote of three replicas that were stored equal
/// and have since taken exactly `flips`, in any order: the
/// [`VoteOutcome`] [`TmrVector::vote`] returns on such replicas.
///
/// Per word, each replica's flips XOR into one mask. Three equal masks
/// leave the word agreed; exactly two equal masks outvote the third
/// (one correction — even when the two are the flipped ones, the known
/// TMR failure mode); three different masks leave it unresolved. A bit
/// flipped twice in one replica cancels. Allocation-free: each word is
/// voted at its first flip by a scan of the list, so the cost is
/// quadratic in the (small) number of flips of one vote window.
///
/// # Panics
/// Panics if a flip names a replica `>= 3` or a bit `>= 64`.
pub fn vote_flips(flips: &[ReplicaFlip]) -> VoteOutcome {
    let mut out = VoteOutcome::default();
    for (i, f) in flips.iter().enumerate() {
        if flips[..i].iter().any(|g| g.word == f.word) {
            continue; // voted at its first flip
        }
        let mut masks = [0u64; 3];
        for g in flips[i..].iter().filter(|g| g.word == f.word) {
            masks[g.replica] ^= 1u64 << g.bit;
        }
        let [m0, m1, m2] = masks;
        if m0 == m1 && m1 == m2 {
            continue;
        }
        if m0 == m1 || m0 == m2 || m1 == m2 {
            out.corrected += 1;
        } else {
            out.unresolved += 1;
        }
    }
    out
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
        assert_eq!(v.replicas[0], [1.0, 2.0, 3.0]);
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
        assert_eq!(v.replicas[0], [1.0, 2.0, 3.0, 4.0]);
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
        assert_eq!(v.replicas[0], [5.0]); // silently wrong — by design
    }

    #[test]
    fn nan_corruption_corrected() {
        let mut v = TmrVector::new(&[1.0, 2.0]);
        v.replica_mut(0)[1] = f64::NAN;
        let o = v.vote();
        assert_eq!(o.corrected, 1);
        assert_eq!(v.replicas[0], [1.0, 2.0]);
    }

    /// The vote [`TmrVector::vote`] takes on replicas of `data` struck
    /// by `flips` (words numbered from 0 over `data`).
    fn vote_replicas(data: &[f64], flips: &[ReplicaFlip]) -> VoteOutcome {
        let mut v = TmrVector::new(data);
        for f in flips {
            let w = &mut v.replica_mut(f.replica)[f.word];
            *w = f64::from_bits(w.to_bits() ^ (1u64 << f.bit));
        }
        v.vote()
    }

    #[test]
    fn flip_vote_matches_replicas_on_every_small_multiset() {
        // Every multiset of at most three flips over 2 words × 3
        // replicas × 2 bits (455 of them), each in one order.
        let kinds: Vec<ReplicaFlip> = (0..2)
            .flat_map(|word| {
                (0..3)
                    .flat_map(move |replica| [0, 63].map(|bit| ReplicaFlip { word, replica, bit }))
            })
            .collect();
        let k = kinds.len();
        let mut cases = 0;
        for size in 0..=3usize {
            let mut idx = vec![0usize; size];
            loop {
                let flips: Vec<ReplicaFlip> = idx.iter().map(|&i| kinds[i]).collect();
                let want = vote_replicas(&[1.5, -0.25], &flips);
                assert_eq!(vote_flips(&flips), want, "{flips:?}");
                cases += 1;
                // Next non-decreasing index tuple (a multiset).
                let Some(p) = (0..size).rev().find(|&p| idx[p] + 1 < k) else {
                    break;
                };
                let next = idx[p] + 1;
                idx[p..].fill(next);
            }
        }
        assert_eq!(cases, 1 + 12 + 78 + 364);
    }

    #[test]
    fn flip_vote_matches_replicas_on_a_seeded_sweep() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // Two vectors of 4 words, numbered 0..4 and 4..8 in the flip
        // list; up to 6 flips over few bits, so cancelling, outvoting
        // and colliding flips all occur.
        let mut rng = StdRng::seed_from_u64(38);
        let (r0, x0) = ([1.0, -2.0, 0.5, 3.0], [0.0, 7.0, -1e-3, 4.0]);
        let mut outcomes = [0usize; 3];
        for _ in 0..20_000 {
            let len = rng.random_range(0..7usize);
            let flips: Vec<ReplicaFlip> = (0..len)
                .map(|_| ReplicaFlip {
                    word: rng.random_range(0..8),
                    replica: rng.random_range(0..3),
                    bit: [0, 1, 52, 63][rng.random_range(0..4usize)],
                })
                .collect();
            let on = |lo: usize| -> Vec<ReplicaFlip> {
                flips
                    .iter()
                    .filter(|f| (lo..lo + 4).contains(&f.word))
                    .map(|f| ReplicaFlip {
                        word: f.word - lo,
                        ..*f
                    })
                    .collect()
            };
            let vr = vote_replicas(&r0, &on(0));
            let vx = vote_replicas(&x0, &on(4));
            let want = VoteOutcome {
                corrected: vr.corrected + vx.corrected,
                unresolved: vr.unresolved + vx.unresolved,
            };
            assert_eq!(vote_flips(&flips), want, "{flips:?}");
            // Clean, corrected, or unresolved somewhere.
            let class = if want.is_trusted() {
                usize::from(want.corrected > 0)
            } else {
                2
            };
            outcomes[class] += 1;
        }
        assert!(outcomes.iter().all(|&c| c > 0), "{outcomes:?}");
    }
}
