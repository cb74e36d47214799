//! `cp.async` commit-group semantics.
//!
//! Ampere's asynchronous copies (`LDGSTS`) are grouped: a thread issues
//! copies, `commit_group()` seals them into a group, and
//! `wait_group(N)` blocks until at most `N` groups remain in flight.
//! SpInfer's kernel (paper Algorithm 1) relies on *two independent groups
//! per iteration* — one for the bitmap/sparse data and one for the dense
//! tile — waiting on the sparse group first (`wait_group(1)`) so SMBD can
//! start while the dense copy is still in flight.
//!
//! In the functional simulator, data is copied eagerly; this tracker
//! verifies the *ordering discipline* (no reads of a buffer before the
//! matching wait) and counts groups for the pipeline model.

use crate::counters::Counters;
use crate::fault::{CommitFault, FaultInjector};

/// Tracks cp.async group state for one thread block.
#[derive(Debug, Default)]
pub struct AsyncCopyState {
    /// Copies issued since the last commit.
    uncommitted: u32,
    /// Committed groups still "in flight", oldest first. Each entry is the
    /// number of copies in that group.
    in_flight: Vec<u32>,
    /// Total groups committed over the block's lifetime.
    pub groups_committed: u64,
    /// Total wait operations executed.
    pub waits: u64,
}

impl AsyncCopyState {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        AsyncCopyState::default()
    }

    /// Records one issued `cp.async` copy.
    pub fn issue(&mut self) {
        self.uncommitted += 1;
    }

    /// Seals all uncommitted copies into a new group
    /// (`cp.async.commit_group`). Committing with zero pending copies
    /// creates an empty group, as on hardware.
    pub fn commit_group(&mut self) {
        self.in_flight.push(self.uncommitted);
        self.uncommitted = 0;
        self.groups_committed += 1;
    }

    /// Fault-aware variant of [`AsyncCopyState::commit_group`]: the
    /// group is sealed exactly as on the golden path, then — when an
    /// injector is supplied — a deterministic draw keyed by `key`
    /// (typically the group's source address) decides whether the
    /// committed payload lands intact, corrupted, or not at all. The
    /// *group tracking* is unaffected either way: a dropped group still
    /// occupies a commit slot and must still be awaited, exactly like a
    /// hardware `LDGSTS` whose data was lost in flight.
    pub fn commit_group_f(
        &mut self,
        counters: &mut Counters,
        fault: Option<&FaultInjector>,
        key: u64,
    ) -> CommitFault {
        self.commit_group();
        match fault {
            Some(inj) => inj.commit_fault(counters, key),
            None => CommitFault::None,
        }
    }

    /// Blocks until at most `n` groups remain in flight
    /// (`cp.async.wait_group N`). Returns the number of groups retired.
    pub fn wait_group(&mut self, n: usize) -> usize {
        self.waits += 1;
        let mut retired = 0;
        while self.in_flight.len() > n {
            self.in_flight.remove(0);
            retired += 1;
        }
        retired
    }

    /// Asserts that every group has been retired — call at block exit to
    /// catch kernels that read a buffer whose copy was never awaited.
    pub fn assert_drained(&self) {
        assert_eq!(
            self.in_flight.len(),
            0,
            "block exited with {} cp.async groups in flight",
            self.in_flight.len()
        );
        assert_eq!(
            self.uncommitted, 0,
            "block exited with {} uncommitted cp.async copies",
            self.uncommitted
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_wait_retire_in_order() {
        let mut s = AsyncCopyState::new();
        s.issue();
        s.commit_group(); // Group A.
        s.issue();
        s.issue();
        s.commit_group(); // Group B.
        assert_eq!(s.in_flight.len(), 2);
        // wait_group(1): only the oldest (A) retires.
        assert_eq!(s.wait_group(1), 1);
        assert_eq!(s.in_flight.len(), 1);
        assert_eq!(s.wait_group(0), 1);
        s.assert_drained();
    }

    #[test]
    fn algorithm1_two_group_pattern() {
        // Mirrors Algorithm 1 lines 16-26: sparse group then dense group;
        // wait_group(1) retires sparse, wait_group(0) retires dense.
        let mut s = AsyncCopyState::new();
        for _ in 0..4 {
            s.issue();
            s.commit_group(); // Bitmap + sparse values.
            s.issue();
            s.commit_group(); // Dense tile.
            assert_eq!(s.wait_group(1), 1, "sparse group must retire first");
            assert_eq!(s.wait_group(0), 1, "dense group retires second");
        }
        s.assert_drained();
        assert_eq!(s.groups_committed, 8);
        assert_eq!(s.waits, 8);
    }

    #[test]
    fn commit_group_f_tracks_groups_regardless_of_outcome() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut c = Counters::new();
        // No injector: plain commit, CommitFault::None.
        let mut s = AsyncCopyState::new();
        s.issue();
        assert_eq!(s.commit_group_f(&mut c, None, 7), CommitFault::None);
        assert_eq!(s.in_flight.len(), 1);
        s.wait_group(0);
        s.assert_drained();
        assert_eq!(c.faults_injected, 0);
        // Drop-everything injector: the outcome reports the drop but the
        // group still occupies a commit slot and drains normally.
        let plan = FaultPlan {
            commit_drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let mut s = AsyncCopyState::new();
        s.issue();
        assert_eq!(
            s.commit_group_f(&mut c, Some(&inj), 7),
            CommitFault::Dropped
        );
        assert_eq!(s.in_flight.len(), 1);
        s.wait_group(0);
        s.assert_drained();
        assert_eq!(c.faults_injected, 1);
    }

    #[test]
    fn wait_with_enough_slack_is_noop() {
        let mut s = AsyncCopyState::new();
        s.issue();
        s.commit_group();
        assert_eq!(s.wait_group(2), 0);
        s.wait_group(0);
    }

    #[test]
    #[should_panic(expected = "groups in flight")]
    fn undrained_block_panics() {
        let mut s = AsyncCopyState::new();
        s.issue();
        s.commit_group();
        s.assert_drained();
    }

    #[test]
    #[should_panic(expected = "uncommitted")]
    fn uncommitted_copies_panic() {
        let mut s = AsyncCopyState::new();
        s.issue();
        s.assert_drained();
    }
}
