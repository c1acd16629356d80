//! The timestamp oracle: a single source of snapshot and commit timestamps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// A commit/snapshot timestamp. `0` means "before all transactions".
pub type Timestamp = u64;

/// Issues snapshot timestamps (the last *published* commit) and tracks
/// active snapshots so the garbage collector knows the GC horizon.
#[derive(Debug, Default)]
pub struct TsOracle {
    /// Last published commit timestamp.
    last_commit: AtomicU64,
    /// Active snapshot reference counts: snapshot_ts -> count.
    active: Mutex<BTreeMap<Timestamp, usize>>,
}

impl TsOracle {
    /// An oracle at timestamp `0` with no active snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires a snapshot at the newest published commit and registers it
    /// as active (must be paired with [`TsOracle::release_snapshot`]).
    pub fn acquire_snapshot(&self) -> Timestamp {
        // Register under the lock, re-reading last_commit inside to avoid a
        // race where a commit publishes between the read and registration
        // (which could otherwise let GC collect versions the snapshot
        // needs).
        let mut active = self.active.lock();
        let ts = self.last_commit.load(Ordering::SeqCst);
        *active.entry(ts).or_insert(0) += 1;
        ts
    }

    /// Releases a snapshot previously acquired.
    pub fn release_snapshot(&self, ts: Timestamp) {
        let mut active = self.active.lock();
        if let Some(count) = active.get_mut(&ts) {
            *count -= 1;
            if *count == 0 {
                active.remove(&ts);
            }
        }
    }

    /// Last published commit timestamp.
    pub fn current(&self) -> Timestamp {
        self.last_commit.load(Ordering::SeqCst)
    }

    /// Reserves the next commit timestamp (caller must publish it).
    pub fn next_commit_ts(&self) -> Timestamp {
        self.last_commit.load(Ordering::SeqCst) + 1
    }

    /// Publishes `ts` as the newest committed timestamp. Must be called in
    /// commit order (enforced by the TxManager's commit mutex).
    pub fn publish(&self, ts: Timestamp) {
        debug_assert!(ts > self.last_commit.load(Ordering::SeqCst));
        self.last_commit.store(ts, Ordering::SeqCst);
    }

    /// The oldest snapshot still active, or the current timestamp if none.
    /// Versions strictly older than this horizon and superseded are safe to
    /// collect.
    pub fn gc_horizon(&self) -> Timestamp {
        let active = self.active.lock();
        active
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.last_commit.load(Ordering::SeqCst))
    }

    /// Number of active snapshots (diagnostics).
    pub fn active_snapshots(&self) -> usize {
        self.active.lock().values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_tracks_last_commit() {
        let o = TsOracle::new();
        assert_eq!(o.current(), 0);
        let s = o.acquire_snapshot();
        assert_eq!(s, 0);
        let c = o.next_commit_ts();
        assert_eq!(c, 1);
        o.publish(c);
        assert_eq!(o.current(), 1);
        let s2 = o.acquire_snapshot();
        assert_eq!(s2, 1);
        o.release_snapshot(s);
        o.release_snapshot(s2);
    }

    #[test]
    fn gc_horizon_is_oldest_active_snapshot() {
        let o = TsOracle::new();
        o.publish(1);
        let s1 = o.acquire_snapshot(); // 1
        o.publish(2);
        let s2 = o.acquire_snapshot(); // 2
        assert_eq!(o.gc_horizon(), 1);
        o.release_snapshot(s1);
        assert_eq!(o.gc_horizon(), 2);
        o.release_snapshot(s2);
        assert_eq!(o.gc_horizon(), 2, "falls back to last commit");
    }

    #[test]
    fn duplicate_snapshots_are_reference_counted() {
        let o = TsOracle::new();
        o.publish(5);
        let a = o.acquire_snapshot();
        let b = o.acquire_snapshot();
        assert_eq!(a, b);
        assert_eq!(o.active_snapshots(), 2);
        o.release_snapshot(a);
        assert_eq!(o.gc_horizon(), 5);
        assert_eq!(o.active_snapshots(), 1);
        o.release_snapshot(b);
        assert_eq!(o.active_snapshots(), 0);
    }
}
