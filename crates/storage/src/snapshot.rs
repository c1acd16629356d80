//! The snapshot-isolation backend: sharded MVCC tables under one
//! transaction manager and timestamp oracle.
//!
//! Keys route to a fixed power-of-two array of `om-mvcc` tables (each with
//! its own row lock), while a single [`TxManager`] drives validation and
//! installation across every shard a commit touched — so a multi-key
//! commit is **atomic across shards**: any snapshot taken after its commit
//! timestamp observes all of its writes, never a torn subset. Conflicting
//! commits take the abort path (first-committer-wins) and surface as
//! retryable [`om_common::OmError::Conflict`] errors once retries are
//! exhausted.
//!
//! The transaction carries its own writes, so a commit costs the shards
//! it writes, not the shard count, and a `get` — one snapshot, opened and
//! dropped — reads one shard and leaves nothing in any.

use crate::backend::{shard_of, StateBackend, StateSession, WriteBatch, WriteOp};
use crate::shards_pow2;
use om_common::config::BackendKind;
use om_common::{OmError, OmResult};
use om_mvcc::{prefix_range, IsolationLevel, Table, TxManager};
use std::collections::BTreeMap;
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Commit retries before a conflicting batch takes the abort path.
const COMMIT_RETRIES: usize = 16;

/// The snapshot-isolation implementation of [`StateBackend`].
pub struct SnapshotBackend {
    mgr: TxManager,
    /// Power-of-two shard array; each shard is an independent MVCC table.
    shards: Vec<Arc<Table<Vec<u8>, Vec<u8>>>>,
    mask: u64,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl SnapshotBackend {
    /// Builds the backend with at least `shards` tables (rounded up to a
    /// power of two), all registered under one transaction manager.
    pub fn new(shards: usize) -> Self {
        let shards = shards_pow2(shards);
        let mgr = TxManager::new();
        let tables = (0..shards)
            .map(|i| mgr.create_table::<Vec<u8>, Vec<u8>>(format!("shard_{i}")))
            .collect();
        Self {
            mgr,
            shards: tables,
            mask: shards as u64 - 1,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    fn table_for(&self, key: &[u8]) -> &Arc<Table<Vec<u8>, Vec<u8>>> {
        &self.shards[shard_of(key, self.mask)]
    }

    /// The underlying transaction manager (tests/diagnostics).
    pub fn tx_manager(&self) -> &TxManager {
        &self.mgr
    }

    /// Number of shard tables (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn run_batch(&self, ops: &[WriteOp]) -> OmResult<usize> {
        let result = self.mgr.run(IsolationLevel::Snapshot, COMMIT_RETRIES, |tx| {
            for WriteOp { key, value } in ops {
                match value {
                    Some(v) => self.table_for(key).put(tx, key.clone(), v.clone()),
                    None => self.table_for(key).delete(tx, key.clone()),
                }
            }
            Ok(ops.len())
        });
        match &result {
            Ok(_) => self.commits.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.aborts.fetch_add(1, Ordering::Relaxed),
        };
        result.map_err(|e| match e {
            OmError::Conflict(reason) => OmError::Conflict(format!("commit aborted: {reason}")),
            other => other,
        })
    }

    /// Runs a single-key blind write to completion. Every
    /// first-committer-wins loss means some other transaction committed
    /// (system-wide progress), so retrying until success cannot stall —
    /// and the trait's "immediately visible to `get`" contract requires
    /// the write to actually land.
    fn run_blind(&self, op: WriteOp) {
        let ops = [op];
        while self.run_batch(&ops).is_err() {
            std::hint::spin_loop();
        }
    }
}

impl StateBackend for SnapshotBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SnapshotIsolation
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let tx = self.mgr.begin(IsolationLevel::Snapshot);
        self.table_for(key).get(&tx, key)
    }

    fn put(&self, key: &[u8], value: &[u8]) {
        self.run_blind(WriteOp {
            key: key.to_vec(),
            value: Some(value.to_vec()),
        });
    }

    fn delete(&self, key: &[u8]) {
        self.run_blind(WriteOp {
            key: key.to_vec(),
            value: None,
        });
    }

    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        // One snapshot serves every key: torn multi-key commits are
        // unobservable by construction.
        let tx = self.mgr.begin(IsolationLevel::Snapshot);
        keys.iter()
            .map(|k| self.table_for(k).get(&tx, *k))
            .collect()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let tx = self.mgr.begin(IsolationLevel::Snapshot);
        let range = prefix_range(prefix);
        let bounds = (range.start_bound(), range.end_bound());
        let mut out = Vec::new();
        let mut contributing = 0;
        for table in &self.shards {
            let rows = table.scan_filter::<[u8], _, _>(&tx, bounds, |_, _| true);
            contributing += usize::from(!rows.is_empty());
            out.extend(rows);
        }
        // Each shard's rows arrive in key order and a key lives on one
        // shard, so only a result drawn from several shards needs sorting.
        if contributing > 1 {
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }

    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        self.run_batch(batch.ops())
    }

    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        self.run_batch(ops)
    }

    fn session(&self) -> Box<dyn StateSession + '_> {
        Box::new(SnapshotSession {
            backend: self,
            fallbacks: 0,
        })
    }

    fn quiesce(&self) {
        // Nothing is asynchronous; reclaim superseded versions instead.
        self.mgr.gc();
    }

    fn len(&self) -> usize {
        let tx = self.mgr.begin(IsolationLevel::Snapshot);
        self.shards.iter().map(|t| t.count(&tx)).sum()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        out.insert("backend.commits".into(), self.commits.load(Ordering::Relaxed));
        out.insert(
            "backend.commit_aborts".into(),
            self.aborts.load(Ordering::Relaxed),
        );
        out.insert("backend.shards".into(), self.shards.len() as u64);
        out
    }
}

/// Sessions are trivial under snapshot isolation: every write is durably
/// committed before `put` returns, so a later read (fresh snapshot) always
/// observes it. No fallback path exists.
struct SnapshotSession<'a> {
    backend: &'a SnapshotBackend,
    fallbacks: u64,
}

impl StateSession for SnapshotSession<'_> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.backend.get(key)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.backend.put(key, value);
    }

    fn delete(&mut self, key: &[u8]) {
        self.backend.delete(key);
    }

    fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let b = SnapshotBackend::new(4);
        assert!(b.get(b"k").is_none());
        b.put(b"k", b"v1");
        b.put(b"k", b"v2");
        assert_eq!(b.get(b"k"), Some(b"v2".to_vec()));
        b.delete(b"k");
        assert_eq!(b.get(b"k"), None);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn commit_is_atomic_across_shards() {
        let b = Arc::new(SnapshotBackend::new(8));
        let keys: Vec<Vec<u8>> = (0..16u8).map(|i| vec![b'k', i]).collect();
        let writer = {
            let b = b.clone();
            let keys = keys.clone();
            std::thread::spawn(move || {
                for round in 0..200u64 {
                    let mut batch = WriteBatch::new();
                    for k in &keys {
                        batch = batch.put(k.clone(), round.to_le_bytes().to_vec());
                    }
                    b.commit(batch).expect("single writer never conflicts");
                }
            })
        };
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for _ in 0..500 {
            let values = b.get_many(&key_refs);
            let distinct: std::collections::HashSet<_> = values.iter().collect();
            assert!(
                distinct.len() <= 1,
                "snapshot read observed a torn commit: {distinct:?}"
            );
        }
        writer.join().unwrap();
    }

    #[test]
    fn conflicting_commits_take_the_abort_path() {
        let b = SnapshotBackend::new(2);
        let mgr = b.tx_manager().clone();
        let table = b.table_for(b"x").clone();
        let tx1 = mgr.begin(IsolationLevel::Snapshot);
        let tx2 = mgr.begin(IsolationLevel::Snapshot);
        table.put(&tx1, b"x".to_vec(), b"first".to_vec());
        table.put(&tx2, b"x".to_vec(), b"second".to_vec());
        mgr.commit(tx1).expect("first committer wins");
        let err = mgr.commit(tx2).unwrap_err();
        assert!(err.is_retryable(), "loser aborts with a retryable error");
        assert_eq!(b.get(b"x"), Some(b"first".to_vec()));
    }

    #[test]
    fn scan_prefix_spans_shards_in_order() {
        let b = SnapshotBackend::new(8);
        for i in 0..20u8 {
            b.put(&[b'p', b'/', i], &[i]);
        }
        b.put(b"q/1", b"other");
        let hits = b.scan_prefix(b"p/");
        assert_eq!(hits.len(), 20);
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn quiesce_garbage_collects_versions() {
        let b = SnapshotBackend::new(2);
        for _ in 0..10 {
            b.put(b"hot", b"v");
        }
        let before: usize = b.shards.iter().map(|t| t.total_versions()).sum();
        b.quiesce();
        let after: usize = b.shards.iter().map(|t| t.total_versions()).sum();
        assert!(after < before, "GC must drop superseded versions");
    }
}
