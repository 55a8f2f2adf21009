//! The allocation-free rolling checkpoint: a double-buffered
//! [`SnapshotSlot`].
//!
//! The paper's protocol keeps exactly one live checkpoint (the last
//! verified one). `SnapshotSlot` keeps it in **retained buffers**:
//! saves are `copy_from_slice` into warm memory, restores hand out a
//! borrowed [`SolverState`], and steady state performs zero heap
//! allocations.
//! The resilient executor saves with [`SolverState::store_vectors`]
//! (its checkpoints' matrix is the reliable input): O(n) words, no image.
//!
//! ## Why double-buffered
//!
//! The slot holds *two* retained buffers and alternates between them: a
//! save writes into the buffer **not** holding the live checkpoint and
//! only then marks it live. The previous checkpoint therefore stays
//! intact until its replacement is complete — a half-written save (a
//! panic mid-copy, however unlikely) can never destroy the only valid
//! rollback target (the in-memory form of write-to-temp-then-rename).
//!
//! ## Reuse contract (why bit-exactness holds)
//!
//! `copy_from_slice`/[`SolverState::store`] reproduce the source bytes
//! exactly — no floating-point operation touches the data on either the
//! save or the restore path — so a trajectory driven through a
//! `SnapshotSlot` is bit-for-bit the trajectory driven through
//! allocating snapshots. The regression and property suites in
//! `ftcg-solvers` pin this.

use crate::state::SolverState;

/// Double-buffered single-checkpoint store with retained buffers (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct SnapshotSlot {
    bufs: [SolverState; 2],
    live: Option<usize>,
    pending: Option<usize>,
}

impl Default for SnapshotSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotSlot {
    /// An empty slot; buffers are sized by the first save.
    pub fn new() -> Self {
        Self {
            bufs: [SolverState::empty(), SolverState::empty()],
            live: None,
            pending: None,
        }
    }

    /// Hands out the inactive buffer for the caller to fill in place
    /// (e.g. via `SolverState::store` or a solver's `snapshot_into`);
    /// the previous checkpoint stays live until [`SnapshotSlot::commit`].
    pub fn begin_save(&mut self) -> &mut SolverState {
        let next = match self.live {
            Some(i) => 1 - i,
            None => 0,
        };
        self.pending = Some(next);
        &mut self.bufs[next]
    }

    /// Marks the buffer handed out by the last
    /// [`SnapshotSlot::begin_save`] as the live checkpoint.
    ///
    /// # Panics
    /// Panics if no save was begun.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract: commit() without a begin_save is API misuse, and silently ignoring it would corrupt the double-buffer discipline"
    )]
    pub fn commit(&mut self) {
        let i = self.pending.take().expect("commit without begin_save");
        self.live = Some(i);
    }

    /// Discards the live checkpoint (and any uncommitted save); the
    /// buffers stay allocated. The resilient executor calls this at
    /// solve start and on escalation, when the only trusted state is
    /// the input data again.
    pub fn clear(&mut self) {
        self.live = None;
        self.pending = None;
    }

    /// Borrowed view of the live checkpoint, if any.
    pub fn latest(&self) -> Option<&SolverState> {
        self.live.map(|i| &self.bufs[i])
    }

    /// Matrix bytes both buffers keep reserved (capacity, not length) —
    /// the slot's share of a workspace's retained memory: two empty row
    /// pointers unless full states were saved through
    /// [`SolverState::store`].
    pub fn retained_matrix_bytes(&self) -> usize {
        self.bufs.iter().map(|b| b.matrix.capacity_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    fn state(iter: usize, v: f64) -> SolverState {
        let a = gen::tridiagonal(6, 4.0, -1.0).unwrap();
        let mut s = SolverState::empty();
        s.store(iter, &[v; 6], &[2.0 * v; 6], &[3.0 * v; 6], v * v, &a);
        s
    }

    /// One full save of `s`: fill the inactive buffer, then commit.
    fn save(slot: &mut SnapshotSlot, s: &SolverState) {
        slot.begin_save()
            .store(s.iteration, &s.x, &s.r, &s.p, s.rnorm_sq, &s.matrix);
        slot.commit();
    }

    #[test]
    fn save_then_latest_roundtrips() {
        let mut slot = SnapshotSlot::new();
        assert!(slot.latest().is_none());
        save(&mut slot, &state(3, 1.0));
        assert_eq!(slot.latest().unwrap(), &state(3, 1.0));
    }

    #[test]
    fn saves_alternate_buffers_and_replace_latest() {
        let mut slot = SnapshotSlot::new();
        save(&mut slot, &state(1, 1.0));
        let p1 = slot.latest().unwrap().x.as_ptr();
        save(&mut slot, &state(2, 2.0));
        let p2 = slot.latest().unwrap().x.as_ptr();
        assert_ne!(p1, p2, "double buffer must alternate");
        assert_eq!(slot.latest().unwrap(), &state(2, 2.0));
        save(&mut slot, &state(3, 3.0));
        // Third save lands back in the first buffer: retained, not new.
        assert_eq!(slot.latest().unwrap().x.as_ptr(), p1);
    }

    #[test]
    fn begin_save_keeps_previous_checkpoint_until_commit() {
        let mut slot = SnapshotSlot::new();
        save(&mut slot, &state(1, 1.0));
        let s = state(9, 9.0);
        let buf = slot.begin_save();
        buf.store(s.iteration, &s.x, &s.r, &s.p, s.rnorm_sq, &s.matrix);
        // Not committed: the live checkpoint is still the old one.
        assert_eq!(slot.latest().unwrap(), &state(1, 1.0));
        slot.commit();
        assert_eq!(slot.latest().unwrap(), &state(9, 9.0));
    }

    #[test]
    fn buffers_are_retained_at_the_largest_matrix_saved() {
        let mut slot = SnapshotSlot::new();
        assert_eq!(slot.retained_matrix_bytes(), 2 * 4); // two empty rowptrs
        let big = state(1, 1.0);
        save(&mut slot, &big);
        save(&mut slot, &big);
        let bytes = 2 * big.matrix.image_bytes();
        assert_eq!(slot.retained_matrix_bytes(), bytes);
        // Smaller states reuse both buffers in place.
        let a = gen::tridiagonal(3, 4.0, -1.0).unwrap();
        let mut small = SolverState::empty();
        small.store(2, &[0.0; 3], &[0.0; 3], &[0.0; 3], 0.0, &a);
        save(&mut slot, &small);
        save(&mut slot, &small);
        assert_eq!(slot.latest().unwrap(), &small);
        assert_eq!(slot.retained_matrix_bytes(), bytes);
    }

    #[test]
    #[should_panic(expected = "commit without begin_save")]
    fn commit_without_begin_panics() {
        SnapshotSlot::new().commit();
    }
}
