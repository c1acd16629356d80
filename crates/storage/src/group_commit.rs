//! The group-commit write path of the durable WAL: staging, cohort
//! flushing, and the snapshot-chain bookkeeping behind incremental
//! snapshots.
//!
//! PR 4's commit path paid one `write`+`flush` (and, under
//! `sync_commits`, one `fsync`) **per commit**, all under a single
//! appender mutex — N concurrent committers paid N syncs, serialized.
//! This module splits that path in two so the expensive half is shared:
//!
//! * `StagedWal` — the cheap half, held under the appender mutex for
//!   microseconds: frames are encoded into an in-memory buffer, the
//!   commit sequence is assigned (so **WAL order == commit order**
//!   stays an invariant), and the decoded batch is parked on a pending
//!   list for ordered application.
//! * `SegmentFile` — the expensive half, held under a separate
//!   flusher mutex: a cohort **leader** elected by
//!   [`CommitGroup`] swaps the staged buffer out (appenders keep
//!   staging into the next cohort meanwhile), performs ONE
//!   `write_all` + optional `fsync` for every staged frame, applies the
//!   parked batches in sequence order, and releases every covered
//!   ticket at once.
//!
//! Lock order is always flusher → appender; the append fast-path takes
//! only the appender, so staging never waits on an in-flight fsync —
//! that is the entire point.
//!
//! `ChainState` tracks the incremental-snapshot chain (`snap-<seq>`
//! base + `delta-<seq>` deltas) so the flusher can decide, at snapshot
//! time, whether the next snapshot is a cheap delta or a compaction
//! back into a full base. See `docs/DURABILITY.md` for the file
//! formats.

pub use om_common::commit_group::{CommitGroup, CommitGroupStats};

use crate::backend::WriteOp;
use crate::vfs::VfsFile;
use std::path::PathBuf;

/// One staged commit: its sequence number and its decoded ops, parked
/// until the cohort flush applies it.
pub(crate) type StagedBatch = (u64, Vec<WriteOp>);

/// The staged (not yet durable) half of the WAL, guarded by the
/// appender mutex. Everything here is memory-only and cheap to touch;
/// a cohort leader drains it wholesale.
pub(crate) struct StagedWal {
    /// Encoded frames appended since the last leader drain, in commit
    /// order — the bytes the next drain writes as one `write_all`.
    pub buf: Vec<u8>,
    /// The staged batches themselves, parked for ordered application
    /// after their bytes are durable (durability before visibility).
    pub pending: Vec<StagedBatch>,
    /// Next commit sequence number to assign.
    pub next_seq: u64,
    /// Current segment length **including** still-staged bytes, so the
    /// roll decision accounts for what the next drain will write.
    pub seg_len: u64,
    /// Commits since the last snapshot (the snapshot trigger).
    pub commits_since_snapshot: u64,
}

impl StagedWal {
    /// Swaps out everything staged, leaving the stage empty. Returns
    /// `(frame_bytes, pending_batches, highest_staged_seq)`.
    pub fn take(&mut self) -> (Vec<u8>, Vec<StagedBatch>, u64) {
        (
            std::mem::take(&mut self.buf),
            std::mem::take(&mut self.pending),
            self.next_seq - 1,
        )
    }
}

/// The durable half of the WAL, guarded by the flusher mutex: the open
/// segment file plus the snapshot-chain bookkeeping. Only cohort
/// leaders (and the snapshot/unwedge maintenance hooks) hold this.
pub(crate) struct SegmentFile {
    /// Open WAL segment, in append mode (behind the VFS seam so fault
    /// injection sees every byte).
    pub file: Box<dyn VfsFile>,
    /// Path of the open segment (diagnostics and unwedge re-open).
    pub path: PathBuf,
    /// Bytes of this segment known written successfully — the truncate
    /// point [`crate::FileBackend::unwedge`] rolls the torn tail back
    /// to. Advanced only after a cohort's `write_all` (+ fsync, when
    /// configured) returns `Ok`.
    pub durable_len: u64,
    /// State of the snapshot chain this WAL tail builds on.
    pub chain: ChainState,
}

/// Where the snapshot chain currently stands: which full base exists
/// and how much delta weight hangs off it. Rebuilt on recovery from the
/// files themselves; consulted at snapshot time for the
/// delta-vs-compaction decision.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChainState {
    /// Commit seq of the newest full base snapshot (0 = none yet).
    pub base_seq: u64,
    /// Byte size of that base (the compaction-ratio denominator).
    pub base_bytes: u64,
    /// Deltas currently chained on the base.
    pub deltas: u64,
    /// Total bytes across those deltas.
    pub delta_bytes: u64,
}

impl ChainState {
    /// Whether writing one more delta of `delta_len` bytes should fold
    /// the chain into a fresh full base instead: the chain is longer
    /// than `max_deltas`, or its cumulative bytes exceed
    /// `ratio_pct` percent of the base.
    pub fn compaction_due(&self, delta_len: u64, max_deltas: u64, ratio_pct: u64) -> bool {
        // u128 arithmetic: `ratio_pct` is config-supplied and the
        // benches legitimately pass u64::MAX for "never compact" — the
        // products must not wrap.
        self.deltas.saturating_add(1) > max_deltas
            || (self.delta_bytes + delta_len) as u128 * 100
                > self.base_bytes.max(1) as u128 * ratio_pct as u128
    }

    /// Resets the chain onto a freshly-written base.
    pub fn rebase(&mut self, seq: u64, base_bytes: u64) {
        *self = ChainState {
            base_seq: seq,
            base_bytes,
            deltas: 0,
            delta_bytes: 0,
        };
    }

    /// Records one more delta chained on the current base.
    pub fn chain_delta(&mut self, seq: u64, delta_len: u64) {
        debug_assert!(seq > self.base_seq);
        self.deltas += 1;
        self.delta_bytes += delta_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_wal_take_empties_the_stage() {
        let mut wal = StagedWal {
            buf: vec![1, 2, 3],
            pending: vec![(
                1,
                vec![WriteOp {
                    key: b"k".to_vec(),
                    value: None,
                }],
            )],
            next_seq: 2,
            seg_len: 3,
            commits_since_snapshot: 1,
        };
        let (bytes, pending, upto) = wal.take();
        assert_eq!(bytes, vec![1, 2, 3]);
        assert_eq!(pending.len(), 1);
        assert_eq!(upto, 1);
        assert!(wal.buf.is_empty() && wal.pending.is_empty());
        // seg_len / seq bookkeeping is untouched by a drain.
        assert_eq!(wal.seg_len, 3);
        assert_eq!(wal.next_seq, 2);
    }

    #[test]
    fn compaction_triggers_on_length_and_ratio() {
        let mut chain = ChainState::default();
        chain.rebase(10, 1_000);
        assert!(!chain.compaction_due(100, 4, 100), "young chain stays");
        for i in 0..4 {
            chain.chain_delta(11 + i, 100);
        }
        assert!(chain.compaction_due(100, 4, 100), "5th delta exceeds max");
        let mut heavy = ChainState::default();
        heavy.rebase(10, 1_000);
        assert!(
            heavy.compaction_due(1_500, 16, 100),
            "one delta heavier than the base trips the ratio"
        );
        heavy.rebase(20, 2_000);
        assert_eq!(heavy.deltas, 0, "rebase clears the chain");
        assert_eq!(heavy.base_seq, 20);
    }
}
