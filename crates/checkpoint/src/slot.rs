//! The allocation-free rolling checkpoint: a [`SnapshotSlot`].
//!
//! The paper's protocol keeps exactly one live checkpoint (the last
//! verified one). `SnapshotSlot` keeps it in **one retained buffer**:
//! saves are `copy_from_slice` into warm memory, restores hand out a
//! borrowed [`SolverState`], and steady state performs zero heap
//! allocations.
//! The resilient executor saves with [`SolverState::store_vectors`]
//! (its checkpoints' matrix is the reliable input): O(n) words, no image.
//!
//! ## Why one buffer
//!
//! A save overwrites the previous checkpoint in place: between
//! [`SnapshotSlot::begin_save`] and [`SnapshotSlot::commit`] the slot
//! holds no live checkpoint ([`SnapshotSlot::latest`] is `None`). A save
//! can only stop half-way by panicking, and nothing reads the slot after
//! that: the campaign engine records the run as failed without looking
//! at it, and the next solve's prologue [`clear`](SnapshotSlot::clear)s
//! it. A second buffer keeping the previous checkpoint intact across the
//! save would guard nothing.
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

/// Single-checkpoint store with one retained buffer (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct SnapshotSlot {
    buf: SolverState,
    /// The buffer holds a committed checkpoint.
    live: bool,
    /// A save was begun and not yet committed.
    pending: bool,
}

impl Default for SnapshotSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotSlot {
    /// An empty slot; the buffer is sized by the first save.
    pub fn new() -> Self {
        Self {
            buf: SolverState::empty(),
            live: false,
            pending: false,
        }
    }

    /// Hands out the buffer for the caller to fill in place (e.g. via
    /// `SolverState::store` or a solver's `snapshot_into`); the slot
    /// holds no live checkpoint until [`SnapshotSlot::commit`].
    pub fn begin_save(&mut self) -> &mut SolverState {
        self.live = false;
        self.pending = true;
        &mut self.buf
    }

    /// Marks the buffer filled since the last
    /// [`SnapshotSlot::begin_save`] as the live checkpoint.
    ///
    /// # Panics
    /// Panics if no save was begun.
    pub fn commit(&mut self) {
        assert!(self.pending, "commit without begin_save");
        self.pending = false;
        self.live = true;
    }

    /// Discards the live checkpoint (and any uncommitted save); the
    /// buffer stays allocated. The resilient executor calls this at
    /// solve start and on escalation, when the only trusted state is
    /// the input data again.
    pub fn clear(&mut self) {
        self.live = false;
        self.pending = false;
    }

    /// Borrowed view of the live checkpoint, if any.
    pub fn latest(&self) -> Option<&SolverState> {
        self.live.then_some(&self.buf)
    }

    /// Matrix bytes the buffer keeps reserved (capacity, not length) —
    /// the slot's share of a workspace's retained memory: one empty row
    /// pointer unless full states were saved through
    /// [`SolverState::store`].
    pub fn retained_matrix_bytes(&self) -> usize {
        self.buf.matrix.capacity_bytes()
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

    /// One full save of `s`: fill the buffer, then commit.
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
    fn saves_reuse_the_one_buffer_in_place() {
        let mut slot = SnapshotSlot::new();
        save(&mut slot, &state(1, 1.0));
        let p1 = slot.latest().unwrap().x.as_ptr();
        for i in 2..5 {
            save(&mut slot, &state(i, i as f64));
            assert_eq!(slot.latest().unwrap(), &state(i, i as f64));
            assert_eq!(slot.latest().unwrap().x.as_ptr(), p1, "save {i}");
        }
    }

    #[test]
    fn an_uncommitted_save_leaves_no_checkpoint() {
        let mut slot = SnapshotSlot::new();
        save(&mut slot, &state(1, 1.0));
        let s = state(9, 9.0);
        let buf = slot.begin_save();
        buf.store(s.iteration, &s.x, &s.r, &s.p, s.rnorm_sq, &s.matrix);
        // Not committed: the overwritten buffer is not a checkpoint.
        assert!(slot.latest().is_none());
        slot.commit();
        assert_eq!(slot.latest().unwrap(), &state(9, 9.0));
        // Clearing drops a begun save too.
        slot.begin_save();
        slot.clear();
        assert!(slot.latest().is_none());
    }

    #[test]
    fn buffers_are_retained_at_the_largest_matrix_saved() {
        let mut slot = SnapshotSlot::new();
        assert_eq!(slot.retained_matrix_bytes(), 4); // one empty rowptr
        let big = state(1, 1.0);
        save(&mut slot, &big);
        let bytes = big.matrix.image_bytes();
        assert_eq!(slot.retained_matrix_bytes(), bytes);
        // Smaller states reuse the buffer in place.
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
