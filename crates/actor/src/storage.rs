//! Grain storage: durable state snapshots surviving silo failures.
//!
//! Mirrors the "grain storage to manage grain states" box of the paper's
//! Fig. 1. The storage outlives silos; a reactivated grain receives the
//! last snapshot saved by any previous activation, and a row-keyed grain
//! its stored rows too.
//!
//! Key layout: a grain's snapshot lives under `<kind>/<key be64>`, and
//! each of its rows under that key followed by the row name, so one prefix
//! scan returns a grain's whole state in row order and a turn writes only
//! the rows it names.
//!
//! State lives in a pluggable [`StateBackend`] — the sharded eventual
//! KV by default, or any backend injected through
//! [`crate::ClusterBuilder::storage_backend`]. Loads go to the backend's
//! authoritative copy, so reactivation always observes the newest save
//! regardless of the backend's replication discipline.

use crate::grain::{GrainId, Row, RowWrite};
use om_common::config::BackendKind;
use om_storage::{make_backend, StateBackend, WriteBatch, WriteOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shard count for grain-storage backends (only the eventual backend is
/// sharded; the snapshot and file backends keep one image). Grain saves
/// are the actor hot path (every persisting grain writes per turn), so
/// this leans high; power-of-two masking makes routing cheap. Callers
/// injecting their own backend (the platform bindings) reuse this so the
/// injected and default configurations agree on lock-domain count.
pub const GRAIN_STORAGE_SHARDS: usize = 64;

/// Cluster-wide grain state storage over a pluggable backend.
pub struct StorageMap {
    backend: Arc<dyn StateBackend>,
    saves: AtomicU64,
    failed_saves: AtomicU64,
}

impl std::fmt::Debug for StorageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageMap")
            .field("backend", &self.backend.kind())
            .field("grains", &self.len())
            .field("saves", &self.save_count())
            .finish()
    }
}

impl Default for StorageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl StorageMap {
    /// Storage over the default sharded eventual backend.
    pub fn new() -> Self {
        Self::with_backend(make_backend(BackendKind::Eventual, GRAIN_STORAGE_SHARDS))
    }

    /// Storage over an injected backend (how the platform bindings thread
    /// their `RunConfig`-selected backend into the cluster).
    pub fn with_backend(backend: Arc<dyn StateBackend>) -> Self {
        Self {
            backend,
            saves: AtomicU64::new(0),
            failed_saves: AtomicU64::new(0),
        }
    }

    /// Encodes a grain id as a backend key: `kind` bytes, a `/` separator
    /// (grain kinds are static identifiers that never contain one), and
    /// the big-endian key so sibling grains sort together under scans.
    fn storage_key(id: &GrainId) -> Vec<u8> {
        let mut key = Vec::with_capacity(id.kind.len() + 9);
        key.extend_from_slice(id.kind.as_bytes());
        key.push(b'/');
        key.extend_from_slice(&id.key.to_be_bytes());
        key
    }

    /// Stores one turn of `id`: the snapshot, if the turn saved one, under
    /// the grain's storage key, and each row write under that key followed
    /// by the row name — all as **one** backend commit, so the snapshot
    /// and its rows move together (atomically on the transactional
    /// backends) and a turn costs one commit whatever it wrote. Rows apply
    /// in the order the turn wrote them; a row the turn did not name keeps
    /// its stored value.
    ///
    /// Grain state is written post-ack (the turn already replied), so a
    /// storage fault here must not take down the thread that ran the turn
    /// (a silo worker or a caller): a failed save is counted in
    /// [`StorageMap::failed_save_count`] and the state stored before it
    /// stays authoritative. The wedge surfaces to
    /// clients through the platform's commit path, not through this one.
    pub fn save(&self, id: GrainId, snapshot: Option<Vec<u8>>, rows: Vec<RowWrite>) {
        let key = Self::storage_key(&id);
        let mut ops = Vec::with_capacity(rows.len() + 1);
        for (row, value) in rows {
            let mut row_key = Vec::with_capacity(key.len() + row.len());
            row_key.extend_from_slice(&key);
            row_key.extend_from_slice(&row);
            ops.push(WriteOp {
                key: row_key,
                value,
            });
        }
        if let Some(snapshot) = snapshot {
            ops.push(WriteOp {
                key,
                value: Some(snapshot),
            });
        }
        match self.backend.commit(WriteBatch::from_ops(ops)) {
            Ok(_) => {
                self.saves.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.failed_saves.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Loads the last snapshot for `id` (authoritative read).
    pub fn load(&self, id: &GrainId) -> Option<Vec<u8>> {
        self.backend.get(&Self::storage_key(id))
    }

    /// Loads the last snapshot for `id` and its rows, in row order, from
    /// one prefix scan of the grain's storage key. The key's fixed-width
    /// id keeps sibling grains out of the scan.
    pub fn load_rows(&self, id: &GrainId) -> (Option<Vec<u8>>, Vec<Row>) {
        let key = Self::storage_key(id);
        let mut snapshot = None;
        let mut rows = Vec::new();
        for (mut stored, value) in self.backend.scan_prefix(&key) {
            if stored.len() == key.len() {
                snapshot = Some(value);
            } else {
                rows.push((stored.split_off(key.len()), value));
            }
        }
        (snapshot, rows)
    }

    /// Number of stored keys: one per grain snapshot plus one per row.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Total saves, one per turn that stored state (write-amplification
    /// diagnostics).
    pub fn save_count(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Saves rejected by the backend (a wedged durable store). Non-zero
    /// here while clients saw successful acks is expected during a wedge:
    /// the snapshots are best-effort and the last good one still loads.
    pub fn failed_save_count(&self) -> u64 {
        self.failed_saves.load(Ordering::Relaxed)
    }

    /// Which storage discipline holds the snapshots.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The backend itself (diagnostics / backend counters).
    pub fn backend(&self) -> &Arc<dyn StateBackend> {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(row: &[u8], value: u8) -> RowWrite {
        (row.to_vec(), Some(vec![value]))
    }

    #[test]
    fn save_load_overwrite() {
        let s = StorageMap::new();
        let id = GrainId::new("cart", 1);
        assert!(s.load(&id).is_none());
        s.save(id, Some(vec![1]), Vec::new());
        s.save(id, Some(vec![2, 3]), Vec::new());
        assert_eq!(s.load(&id), Some(vec![2, 3]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.save_count(), 2);
        assert_eq!(s.backend_kind(), BackendKind::Eventual);
    }

    #[test]
    fn works_over_every_backend_kind() {
        for kind in BackendKind::ALL {
            let s = StorageMap::with_backend(make_backend(kind, 8));
            let a = GrainId::new("stock", 7);
            let b = GrainId::new("stock", 8);
            s.save(a, Some(vec![7]), Vec::new());
            s.save(b, Some(vec![8]), Vec::new());
            assert_eq!(s.load(&a), Some(vec![7]), "{kind:?}");
            assert_eq!(s.load(&b), Some(vec![8]), "{kind:?}");
            assert_eq!(s.len(), 2, "{kind:?}");
            assert_eq!(s.backend_kind(), kind);
        }
    }

    #[test]
    fn rows_live_beside_the_snapshot_and_reload_in_row_order() {
        for kind in BackendKind::ALL {
            let s = StorageMap::with_backend(make_backend(kind, 8));
            let a = GrainId::new("seller", 7);
            let b = GrainId::new("seller", 8);
            s.save(
                a,
                Some(vec![1]),
                vec![put(b"z", 26), put(b"a", 1), put(b"m", 13)],
            );
            s.save(b, Some(vec![2]), vec![put(b"a", 99)]);
            // A later turn rewrites one row, deletes one and leaves `m` be;
            // a put then a delete of the same row in one batch leaves nothing.
            s.save(
                a,
                None,
                vec![
                    put(b"a", 2),
                    (b"z".to_vec(), None),
                    put(b"q", 17),
                    (b"q".to_vec(), None),
                ],
            );
            assert_eq!(
                s.load_rows(&a),
                (
                    Some(vec![1]),
                    vec![(b"a".to_vec(), vec![2]), (b"m".to_vec(), vec![13])]
                ),
                "{kind:?}"
            );
            assert_eq!(
                s.load_rows(&b),
                (Some(vec![2]), vec![(b"a".to_vec(), vec![99])])
            );
            assert_eq!(s.load(&a), Some(vec![1]), "the snapshot alone");
            assert_eq!(s.len(), 5, "{kind:?}: two snapshots + three rows");
            assert_eq!(s.save_count(), 3, "{kind:?}: one commit per save");
        }
    }

    #[test]
    fn distinct_kinds_with_same_key_do_not_collide() {
        let s = StorageMap::new();
        s.save(GrainId::new("cart", 1), Some(vec![1]), Vec::new());
        s.save(GrainId::new("order", 1), Some(vec![2]), Vec::new());
        assert_eq!(s.load(&GrainId::new("cart", 1)), Some(vec![1]));
        assert_eq!(s.load(&GrainId::new("order", 1)), Some(vec![2]));
    }
}
