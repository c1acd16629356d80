//! The eventually consistent backend: per-key last-writer-wins over
//! `om-kv`'s sharded store, with an asynchronous secondary replica.
//!
//! Writes land on the **primary** synchronously (so [`StateBackend::get`]
//! is authoritative and grain reactivation never reads stale snapshots)
//! and stream to a **secondary** through a background applier that drains
//! a small reorder window — the multi-connection fan-in of a real
//! asynchronous deployment. Sessions read the secondary first and fall
//! back to the primary when read-your-writes would be violated, counting
//! every fallback. Multi-key commits are applied key by key: there is no
//! abort path, and a concurrent reader may observe a torn subset until
//! the per-key writes have all landed.

use crate::backend::{StateBackend, StateSession, WriteBatch, WriteOp};
use crate::shards_pow2;
use om_common::config::BackendKind;
use om_common::pool::WorkQueue;
use om_common::OmResult;
use om_kv::replication::{Applier, ReplicationRecord, ReplicationStats};
use om_kv::store::{Store, VersionedValue};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Records the applier buffers before draining a (shuffled) window.
const REORDER_WINDOW: usize = 8;

enum ApplierMsg {
    Record(ReplicationRecord<Vec<u8>, Vec<u8>>),
    /// Flush buffered records and acknowledge via the enclosed sender.
    Quiesce(SyncSender<()>),
}

/// The eventual (LWW + async replica) implementation of [`StateBackend`].
pub struct EventualBackend {
    primary: Arc<Store<Vec<u8>, Vec<u8>>>,
    secondary: Arc<Store<Vec<u8>, Vec<u8>>>,
    stats: Arc<ReplicationStats>,
    /// Primary → secondary feed; closed on drop, after which the applier
    /// drains what is queued and exits.
    feed: Arc<WorkQueue<ApplierMsg>>,
    applier_handle: Mutex<Option<JoinHandle<()>>>,
    commits: AtomicU64,
    session_fallbacks: AtomicU64,
}

impl EventualBackend {
    /// Builds the replica pair with at least `shards` lock domains each
    /// (rounded up to a power of two) and spawns the applier thread.
    pub fn new(shards: usize) -> Self {
        let shards = shards_pow2(shards);
        let primary = Arc::new(Store::new(shards));
        let secondary = Arc::new(Store::new(shards));
        let stats = Arc::new(ReplicationStats::default());
        let feed = Arc::new(WorkQueue::default());
        let applier_feed = Arc::clone(&feed);
        let applier_secondary = secondary.clone();
        let applier_stats = stats.clone();
        let handle = std::thread::Builder::new()
            .name("om-storage-applier".into())
            .spawn(move || {
                let mut applier =
                    Applier::new(applier_secondary, applier_stats, REORDER_WINDOW, 0xE7E7);
                while let Some(msg) = applier_feed.pop() {
                    match msg {
                        ApplierMsg::Record(r) => applier.offer(r),
                        ApplierMsg::Quiesce(ack) => {
                            applier.flush();
                            let _ = ack.send(());
                        }
                    }
                }
            })
            .expect("spawn backend applier");
        Self {
            primary,
            secondary,
            stats,
            feed,
            applier_handle: Mutex::new(Some(handle)),
            commits: AtomicU64::new(0),
            session_fallbacks: AtomicU64::new(0),
        }
    }

    /// Installs one write on the primary (assigning its per-key sequence
    /// under the shard lock) and streams it to the secondary. Returns the
    /// assigned key sequence.
    fn write_one(&self, key: &[u8], value: Option<&[u8]>) -> u64 {
        let installed = self.primary.update(key.to_vec(), |cur| {
            let key_seq = cur.map(|c| c.key_seq + 1).unwrap_or(1);
            VersionedValue {
                value: value.map(<[u8]>::to_vec),
                key_seq,
            }
        });
        let record = ReplicationRecord {
            key: key.to_vec(),
            value: value.map(<[u8]>::to_vec),
            key_seq: installed.key_seq,
        };
        self.feed.push(ApplierMsg::Record(record));
        installed.key_seq
    }

    /// The authoritative replica (tests/diagnostics).
    pub fn primary_store(&self) -> &Store<Vec<u8>, Vec<u8>> {
        &self.primary
    }

    /// The asynchronous replica (tests/diagnostics).
    pub fn secondary_store(&self) -> &Store<Vec<u8>, Vec<u8>> {
        &self.secondary
    }

    /// Whether both replicas expose the same live state (true after
    /// [`StateBackend::quiesce`] once writers have stopped).
    pub fn replicas_converged(&self) -> bool {
        let mut a = self.primary.dump();
        let mut b = self.secondary.dump();
        a.sort();
        b.sort();
        a == b
    }

    /// Replication statistics (applied, stale drops).
    pub fn replication_stats(&self) -> &ReplicationStats {
        &self.stats
    }
}

impl StateBackend for EventualBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Eventual
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.primary.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) {
        self.write_one(key, Some(value));
    }

    fn delete(&self, key: &[u8]) {
        self.write_one(key, None);
    }

    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        // Independent per-key reads: a concurrent commit() interleaves.
        keys.iter().map(|k| self.primary.get(*k)).collect()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        // Keys are tested before they are cloned.
        let mut out = Vec::new();
        self.primary.for_each(|k, v| {
            if k.starts_with(prefix) {
                out.push((k.clone(), v.clone()));
            }
        });
        out.sort();
        out
    }

    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        self.commit_ops(batch.ops())
    }

    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        for WriteOp { key, value } in ops {
            self.write_one(key, value.as_deref());
        }
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(ops.len())
    }

    fn session(&self) -> Box<dyn StateSession + '_> {
        Box::new(EventualSession {
            backend: self,
            known: HashMap::new(),
            fallbacks: 0,
        })
    }

    fn quiesce(&self) {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.feed.push(ApplierMsg::Quiesce(ack_tx));
        let _ = ack_rx.recv();
    }

    fn len(&self) -> usize {
        self.primary.len()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        out.insert("backend.commits".into(), self.commits.load(Ordering::Relaxed));
        out.insert("backend.replica_applied".into(), self.stats.applied());
        out.insert("backend.replica_stale_drops".into(), self.stats.stale_drops());
        out.insert(
            "backend.session_fallbacks".into(),
            self.session_fallbacks.load(Ordering::Relaxed),
        );
        out.insert(
            "backend.shards".into(),
            self.primary.shard_count() as u64,
        );
        out
    }
}

impl Drop for EventualBackend {
    fn drop(&mut self) {
        self.feed.close();
        if let Some(h) = self.applier_handle.lock().take() {
            let _ = h.join();
        }
    }
}

/// Read-your-writes session over the replica pair: reads prefer the
/// secondary, falling back to the primary when the secondary has not yet
/// caught up with a write this session has observed.
struct EventualSession<'a> {
    backend: &'a EventualBackend,
    /// Newest per-key write sequence this session has observed.
    known: HashMap<Vec<u8>, u64>,
    fallbacks: u64,
}

impl EventualSession<'_> {
    fn observe(&mut self, key: &[u8], key_seq: u64) {
        let e = self.known.entry(key.to_vec()).or_insert(0);
        *e = (*e).max(key_seq);
    }
}

impl StateSession for EventualSession<'_> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let known = self.known.get(key).copied().unwrap_or(0);
        if let Some(v) = self.backend.secondary.get_versioned(key) {
            if v.key_seq >= known {
                self.observe(key, v.key_seq);
                return v.value;
            }
        } else if known == 0 {
            return None;
        }
        // The secondary lags behind this session: authoritative fallback.
        self.fallbacks += 1;
        self.backend
            .session_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        let v = self.backend.primary.get_versioned(key)?;
        self.observe(key, v.key_seq);
        v.value
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        let seq = self.backend.write_one(key, Some(value));
        self.observe(key, seq);
    }

    fn delete(&mut self, key: &[u8]) {
        let seq = self.backend.write_one(key, None);
        self.observe(key, seq);
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
        let b = EventualBackend::new(4);
        assert!(b.get(b"k").is_none());
        b.put(b"k", b"v1");
        b.put(b"k", b"v2");
        assert_eq!(b.get(b"k"), Some(b"v2".to_vec()));
        b.delete(b"k");
        assert_eq!(b.get(b"k"), None);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn secondary_converges_after_quiesce() {
        let b = EventualBackend::new(8);
        for i in 0..100u64 {
            b.put(format!("key/{}", i % 10).as_bytes(), &i.to_le_bytes());
        }
        b.quiesce();
        assert!(b.replicas_converged());
        assert_eq!(b.replication_stats().applied(), 100);
    }

    #[test]
    fn session_reads_its_own_writes_despite_replica_lag() {
        let b = EventualBackend::new(4);
        let mut s = b.session();
        s.put(b"mine", b"1");
        // The applier may not have caught up; the session must still see
        // the write (falling back to the primary if needed).
        assert_eq!(s.get(b"mine"), Some(b"1".to_vec()));
    }

    #[test]
    fn scan_prefix_orders_and_filters() {
        let b = EventualBackend::new(4);
        b.put(b"a/2", b"x");
        b.put(b"a/1", b"y");
        b.put(b"b/1", b"z");
        let hits = b.scan_prefix(b"a/");
        assert_eq!(
            hits,
            vec![
                (b"a/1".to_vec(), b"y".to_vec()),
                (b"a/2".to_vec(), b"x".to_vec())
            ]
        );
    }

    #[test]
    fn commit_applies_every_op_without_abort() {
        let b = EventualBackend::new(4);
        b.put(b"gone", b"x");
        let n = b
            .commit(WriteBatch::new().put(b"a".to_vec(), b"1".to_vec()).delete(b"gone".to_vec()))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(b.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(b.get(b"gone"), None);
    }
}
