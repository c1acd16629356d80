//! The primary→secondary replication channel and its apply discipline.
//!
//! The primary appends every write to an in-order stream of
//! [`ReplicationRecord`]s. An **applier** installs them on the secondary
//! replica through a small reorder window that it drains in a randomly
//! permuted order (seeded, deterministic) once the window is full. This
//! models the multi-connection fan-in of real asynchronous replication,
//! where two writes may arrive over different connections and be applied
//! inverted; last-writer-wins by per-key sequence keeps the replica
//! convergent.

use crate::kv_store::{Store, VersionedValue};
use om_common::rng::SplitMix64;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One replicated write.
#[derive(Debug, Clone)]
pub struct ReplicationRecord<K, V> {
    /// The key the write targets.
    pub key: K,
    /// `None` replicates a delete (tombstone).
    pub value: Option<V>,
    /// Per-key write counter (for last-writer-wins staleness filtering).
    pub key_seq: u64,
}

/// Counters exposed by the applier.
#[derive(Debug, Default)]
pub struct ReplicationStats {
    /// Records applied to the secondary.
    pub applied: AtomicU64,
    /// Records dropped as stale by last-writer-wins.
    pub stale_drops: AtomicU64,
}

impl ReplicationStats {
    /// Records applied to the secondary.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }
    /// Records dropped as stale by last-writer-wins.
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops.load(Ordering::Relaxed)
    }
}

/// The apply-side state machine. The eventual backend drives it under a
/// mutex from its writing threads: the write that fills the window
/// applies it.
pub struct Applier<K, V> {
    secondary: Arc<Store<K, V>>,
    stats: Arc<ReplicationStats>,
    window: Vec<ReplicationRecord<K, V>>,
    window_cap: usize,
    rng: SplitMix64,
}

impl<K: Hash + Eq + Clone, V: Clone> Applier<K, V> {
    /// An applier over `secondary`, reordering within `reorder_window`
    /// records.
    pub fn new(
        secondary: Arc<Store<K, V>>,
        stats: Arc<ReplicationStats>,
        reorder_window: usize,
        seed: u64,
    ) -> Self {
        Self {
            secondary,
            stats,
            window: Vec::new(),
            window_cap: reorder_window.max(1),
            rng: SplitMix64::new(seed),
        }
    }

    /// Offers one record from the replication stream.
    pub fn offer(&mut self, record: ReplicationRecord<K, V>) {
        self.window.push(record);
        if self.window.len() >= self.window_cap {
            self.flush();
        }
    }

    /// Applies everything buffered (end of stream).
    pub fn flush(&mut self) {
        // Random permutation simulates out-of-order arrival.
        let mut batch = std::mem::take(&mut self.window);
        self.rng.shuffle(&mut batch);
        for rec in batch {
            self.apply(rec);
        }
    }

    fn apply(&mut self, rec: ReplicationRecord<K, V>) {
        let installed = self.secondary.put_if_newer(
            rec.key,
            VersionedValue {
                value: rec.value,
                key_seq: rec.key_seq,
            },
        );
        if !installed {
            self.stats.stale_drops.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.applied.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: u32, value: Option<i32>, key_seq: u64) -> ReplicationRecord<u32, i32> {
        ReplicationRecord {
            key,
            value,
            key_seq,
        }
    }

    #[test]
    fn stale_writes_to_same_key_are_dropped_lww() {
        let secondary: Arc<Store<u32, i32>> = Arc::new(Store::new(2));
        let stats = Arc::new(ReplicationStats::default());
        let mut applier = Applier::new(secondary.clone(), stats.clone(), 1, 3);
        applier.offer(record(5, Some(100), 2));
        applier.offer(record(5, Some(50), 1));
        applier.flush();
        assert_eq!(secondary.get(&5), Some(100), "newer value must win");
        assert_eq!(stats.stale_drops(), 1);
    }

    #[test]
    fn tombstone_replication_deletes_on_secondary() {
        let secondary: Arc<Store<u32, i32>> = Arc::new(Store::new(2));
        let stats = Arc::new(ReplicationStats::default());
        let mut applier = Applier::new(secondary.clone(), stats, 1, 3);
        applier.offer(record(9, Some(1), 1));
        applier.offer(record(9, None, 2));
        applier.flush();
        assert_eq!(secondary.get(&9), None);
        assert!(secondary.get_versioned(&9).unwrap().is_tombstone());
    }
}
