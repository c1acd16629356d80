//! Durable checkpoint storage for the dataflow runtime.
//!
//! The runtime commits one checkpoint per epoch: the epoch number, the
//! per-partition ingress offsets, and every state **row** the epoch
//! touched (the state of an address `(fn_type, key)` is an ordered set of
//! rows; an epoch that appends one row to a large address commits one
//! row). Those commits flow through [`BackendCheckpointStore`], which
//! persists them through any [`om_storage::StateBackend`] with one
//! atomic multi-key commit per epoch, one backend key per row (the meta
//! record is ordered last in the batch, so a torn per-key apply on the
//! eventual backend still points at the previous epoch). A rebuilt
//! [`Dataflow`](crate::Dataflow) over the same backend restarts from the
//! last committed epoch.
//!
//! ```
//! use om_dataflow::{BackendCheckpointStore, StateDelta};
//! use om_storage::make_backend;
//! use om_common::config::BackendKind;
//!
//! let backend = make_backend(BackendKind::SnapshotIsolation, 4);
//! let store = BackendCheckpointStore::new(backend);
//! store
//!     .commit_epoch(1, &[3, 0], vec![StateDelta::put(0, "counter", 7, vec![42])])
//!     .unwrap();
//! assert_eq!(store.get_row(0, "counter", 7, b""), Some(vec![42]));
//! let snap = store.load().unwrap().expect("one committed checkpoint");
//! assert_eq!((snap.epoch, snap.offsets), (1, vec![3, 0]));
//! ```

use om_common::{OmError, OmResult};
use om_storage::{StateBackend, WriteBatch, WriteOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One state-row change of an epoch commit. `value == None` means the
/// function deleted the row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDelta {
    /// Partition the state lives in.
    pub partition: usize,
    /// Registered function type owning the state.
    pub fn_type: &'static str,
    /// Function key within the type.
    pub key: u64,
    /// Row within the address; empty for single-row state.
    pub row: Vec<u8>,
    /// New row bytes, or `None` for a deletion.
    pub value: Option<Vec<u8>>,
}

impl StateDelta {
    /// A write of the address's single (empty-named) row.
    pub fn put(partition: usize, fn_type: &'static str, key: u64, value: Vec<u8>) -> Self {
        Self::put_row(partition, fn_type, key, Vec::new(), value)
    }

    /// A deletion of the address's single (empty-named) row.
    pub fn delete(partition: usize, fn_type: &'static str, key: u64) -> Self {
        Self::delete_row(partition, fn_type, key, Vec::new())
    }

    /// A row write.
    pub fn put_row(
        partition: usize,
        fn_type: &'static str,
        key: u64,
        row: Vec<u8>,
        value: Vec<u8>,
    ) -> Self {
        Self {
            partition,
            fn_type,
            key,
            row,
            value: Some(value),
        }
    }

    /// A row deletion.
    pub fn delete_row(partition: usize, fn_type: &'static str, key: u64, row: Vec<u8>) -> Self {
        Self {
            partition,
            fn_type,
            key,
            row,
            value: None,
        }
    }
}

/// One live state row of a loaded checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StateRow {
    /// Partition the row lives in.
    pub partition: usize,
    /// Function type owning the row.
    pub fn_type: String,
    /// Function key within the type.
    pub key: u64,
    /// Row within the address; empty for single-row state.
    pub row: Vec<u8>,
    /// The row's bytes.
    pub value: Vec<u8>,
}

/// The last committed checkpoint, as loaded back from a store.
///
/// Function types come back as owned strings (a store cannot mint
/// `&'static str`); the runtime interns them against its registered
/// function table during recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointSnapshot {
    /// Last committed epoch number.
    pub epoch: u64,
    /// Per-partition ingress offsets as of that epoch.
    pub offsets: Vec<u64>,
    /// Every live state row.
    pub states: Vec<StateRow>,
}

/// Key prefix of every record this store writes (namespaces the
/// checkpoint inside a backend shared with other subsystems).
const META_KEY: &[u8] = b"df!/meta";
const STATE_PREFIX: &[u8] = b"df!/s/";

/// Where epoch checkpoints live: persisted through a pluggable
/// [`StateBackend`] with one atomic multi-key commit per epoch.
/// [`load`](Self::load) never observes a mix of two epochs' metadata, and
/// [`get_row`](Self::get_row) / [`scan_rows`](Self::scan_rows) serve
/// committed data only.
///
/// Layout (all keys under the `df!/` namespace):
///
/// * `df!/meta` — `epoch (u64 LE) ++ n (u32 LE) ++ n × offset (u64 LE)`;
/// * `df!/s/` + partition (u32 BE) + fn-type length (u16 BE) + fn-type
///   bytes + key (u64 BE) + row bytes — the row's raw bytes. Everything
///   before the row is the address, so one address is one
///   `scan_prefix` and its rows come back in row order.
///
/// The meta record is the **last** op of every commit batch. The snapshot
/// backend applies the batch atomically anyway; the eventual backend
/// applies per key in order, so a reader racing a commit may see new
/// state bytes early but never a meta record pointing at offsets whose
/// state has not landed yet.
pub struct BackendCheckpointStore {
    backend: Arc<dyn StateBackend>,
    commits: AtomicU64,
}

impl BackendCheckpointStore {
    /// A store persisting through `backend`. The backend may be shared
    /// with other subsystems — everything this store writes lives under
    /// the `df!/` key namespace.
    pub fn new(backend: Arc<dyn StateBackend>) -> Self {
        Self {
            backend,
            commits: AtomicU64::new(0),
        }
    }

    /// The backend checkpoints persist through.
    pub fn backend(&self) -> &Arc<dyn StateBackend> {
        &self.backend
    }

    fn state_key(partition: usize, fn_type: &str, key: u64, row: &[u8]) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(STATE_PREFIX.len() + 4 + 2 + fn_type.len() + 8 + row.len());
        out.extend_from_slice(STATE_PREFIX);
        out.extend_from_slice(&(partition as u32).to_be_bytes());
        out.extend_from_slice(&(fn_type.len() as u16).to_be_bytes());
        out.extend_from_slice(fn_type.as_bytes());
        out.extend_from_slice(&key.to_be_bytes());
        out.extend_from_slice(row);
        out
    }

    /// Decodes a state key back into `(partition, fn_type, key, row)`.
    fn parse_state_key(raw: &[u8]) -> Option<(usize, String, u64, Vec<u8>)> {
        let rest = raw.strip_prefix(STATE_PREFIX)?;
        if rest.len() < 4 + 2 + 8 {
            return None;
        }
        let partition = u32::from_be_bytes(rest[0..4].try_into().ok()?) as usize;
        let fn_len = u16::from_be_bytes(rest[4..6].try_into().ok()?) as usize;
        let fn_end = 6 + fn_len;
        if rest.len() < fn_end + 8 {
            return None;
        }
        let fn_type = std::str::from_utf8(&rest[6..fn_end]).ok()?.to_string();
        let key = u64::from_be_bytes(rest[fn_end..fn_end + 8].try_into().ok()?);
        Some((partition, fn_type, key, rest[fn_end + 8..].to_vec()))
    }

    fn encode_meta(epoch: u64, offsets: &[u64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 + offsets.len() * 8);
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(offsets.len() as u32).to_le_bytes());
        for o in offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out
    }

    fn decode_meta(raw: &[u8]) -> OmResult<(u64, Vec<u64>)> {
        let corrupt = || OmError::Internal("corrupt dataflow checkpoint meta record".into());
        if raw.len() < 12 {
            return Err(corrupt());
        }
        let epoch = u64::from_le_bytes(raw[0..8].try_into().map_err(|_| corrupt())?);
        let n = u32::from_le_bytes(raw[8..12].try_into().map_err(|_| corrupt())?) as usize;
        if raw.len() != 12 + n * 8 {
            return Err(corrupt());
        }
        let offsets = (0..n)
            .map(|i| {
                let at = 12 + i * 8;
                u64::from_le_bytes(raw[at..at + 8].try_into().unwrap())
            })
            .collect();
        Ok((epoch, offsets))
    }

    /// Commits one epoch: metadata plus the state rows the epoch
    /// touched. Called with monotonically increasing `epoch` under the
    /// runtime's epoch mutex (never concurrently).
    pub fn commit_epoch(
        &self,
        epoch: u64,
        offsets: &[u64],
        dirty: Vec<StateDelta>,
    ) -> OmResult<()> {
        let mut ops = Vec::with_capacity(dirty.len() + 1);
        for delta in dirty {
            ops.push(WriteOp {
                key: Self::state_key(delta.partition, delta.fn_type, delta.key, &delta.row),
                value: delta.value,
            });
        }
        // Meta last: on a per-key (eventual) apply the previous epoch
        // stays authoritative until every state write has landed.
        ops.push(WriteOp {
            key: META_KEY.to_vec(),
            value: Some(Self::encode_meta(epoch, offsets)),
        });
        // No backend aborts a blind batch: an error is a store that
        // cannot take writes (wedged), and the epoch fails with it.
        self.backend.commit(WriteBatch::from_ops(ops))?;
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Committed bytes of one row of `(partition, fn_type, key)`.
    pub fn get_row(
        &self,
        partition: usize,
        fn_type: &str,
        key: u64,
        row: &[u8],
    ) -> Option<Vec<u8>> {
        self.backend
            .get(&Self::state_key(partition, fn_type, key, row))
    }

    /// Committed rows of `(partition, fn_type, key)` whose name starts
    /// with `prefix`, as `(row, bytes)` ordered by row.
    pub fn scan_rows(
        &self,
        partition: usize,
        fn_type: &str,
        key: u64,
        prefix: &[u8],
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let address_len = STATE_PREFIX.len() + 4 + 2 + fn_type.len() + 8;
        self.backend
            .scan_prefix(&Self::state_key(partition, fn_type, key, prefix))
            .into_iter()
            .map(|(mut raw_key, bytes)| {
                raw_key.drain(..address_len);
                (raw_key, bytes)
            })
            .collect()
    }

    /// Loads the last committed checkpoint, or `None` if nothing was ever
    /// committed.
    pub fn load(&self) -> OmResult<Option<CheckpointSnapshot>> {
        let Some(meta_raw) = self.backend.get(META_KEY) else {
            return Ok(None);
        };
        let (epoch, offsets) = Self::decode_meta(&meta_raw)?;
        let mut states = Vec::new();
        for (raw_key, bytes) in self.backend.scan_prefix(STATE_PREFIX) {
            if let Some((partition, fn_type, key, row)) = Self::parse_state_key(&raw_key) {
                states.push(StateRow {
                    partition,
                    fn_type,
                    key,
                    row,
                    value: bytes,
                });
            }
        }
        Ok(Some(CheckpointSnapshot {
            epoch,
            offsets,
            states,
        }))
    }

    /// Number of epochs committed through this store (diagnostics).
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_common::config::BackendKind;
    use om_storage::make_backend;

    /// One store per backend discipline, each with its backend's label.
    fn stores() -> Vec<(BackendCheckpointStore, &'static str)> {
        BackendKind::ALL
            .into_iter()
            .map(|kind| {
                (
                    BackendCheckpointStore::new(make_backend(kind, 4)),
                    kind.label(),
                )
            })
            .collect()
    }

    fn row(partition: usize, fn_type: &str, key: u64, row: &[u8], value: &[u8]) -> StateRow {
        StateRow {
            partition,
            fn_type: fn_type.to_string(),
            key,
            row: row.to_vec(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn empty_store_loads_none() {
        for (store, label) in stores() {
            assert!(store.load().unwrap().is_none(), "{label}");
            assert_eq!(store.get_row(0, "f", 1, b""), None, "{label}");
            assert!(store.scan_rows(0, "f", 1, b"").is_empty(), "{label}");
        }
    }

    #[test]
    fn commit_then_load_roundtrips_meta_and_state() {
        for (store, label) in stores() {
            store
                .commit_epoch(
                    3,
                    &[5, 7],
                    vec![
                        StateDelta::put(0, "counter", 1, vec![1, 2, 3]),
                        StateDelta::put(1, "sink", 9, vec![4]),
                    ],
                )
                .unwrap();
            let snap = store.load().unwrap().expect("committed");
            assert_eq!(snap.epoch, 3, "{label}");
            assert_eq!(snap.offsets, vec![5, 7], "{label}");
            let mut states = snap.states;
            states.sort();
            assert_eq!(
                states,
                vec![
                    row(0, "counter", 1, b"", &[1, 2, 3]),
                    row(1, "sink", 9, b"", &[4]),
                ],
                "{label}"
            );
            assert_eq!(store.get_row(0, "counter", 1, b""), Some(vec![1, 2, 3]));
            assert_eq!(store.commits(), 1, "{label}");
        }
    }

    #[test]
    fn deletions_remove_state_entries() {
        for (store, label) in stores() {
            store
                .commit_epoch(1, &[1], vec![StateDelta::put(0, "f", 1, vec![9])])
                .unwrap();
            store
                .commit_epoch(2, &[2], vec![StateDelta::delete(0, "f", 1)])
                .unwrap();
            assert_eq!(store.get_row(0, "f", 1, b""), None, "{label}");
            let snap = store.load().unwrap().unwrap();
            assert_eq!(snap.epoch, 2);
            assert!(snap.states.is_empty(), "{label}");
        }
    }

    #[test]
    fn rows_of_one_address_scan_in_order_and_stay_apart_from_neighbours() {
        for (store, label) in stores() {
            store
                .commit_epoch(
                    1,
                    &[1],
                    vec![
                        StateDelta::put_row(0, "f", 1, b"e\x02".to_vec(), vec![2]),
                        StateDelta::put_row(0, "f", 1, b"e\x01".to_vec(), vec![1]),
                        StateDelta::put_row(0, "f", 1, b"x".to_vec(), vec![9]),
                        StateDelta::put(0, "f", 1, vec![0]),
                        // Neighbours a byte-prefix scan could confuse:
                        // the next key, and a longer function name.
                        StateDelta::put_row(0, "f", 2, b"e\x01".to_vec(), vec![7]),
                        StateDelta::put_row(0, "fe", 1, b"e\x01".to_vec(), vec![8]),
                    ],
                )
                .unwrap();
            store
                .commit_epoch(2, &[2], vec![StateDelta::delete_row(0, "f", 1, b"x".to_vec())])
                .unwrap();
            assert_eq!(
                store.scan_rows(0, "f", 1, b""),
                vec![
                    (vec![], vec![0]),
                    (b"e\x01".to_vec(), vec![1]),
                    (b"e\x02".to_vec(), vec![2]),
                ],
                "{label}"
            );
            assert_eq!(
                store.scan_rows(0, "f", 1, b"e"),
                vec![(b"e\x01".to_vec(), vec![1]), (b"e\x02".to_vec(), vec![2])],
                "{label}"
            );
            assert_eq!(store.get_row(0, "f", 1, b"x"), None, "{label}");
            assert_eq!(store.load().unwrap().unwrap().states.len(), 5, "{label}");
        }
    }

    #[test]
    fn backend_state_keys_roundtrip_odd_fn_names() {
        for fn_type in ["a", "with/slash", "ünïcode", ""] {
            for row in [&b""[..], b"e\x00\xff"] {
                let key = BackendCheckpointStore::state_key(7, fn_type, u64::MAX, row);
                let (p, f, k, r) = BackendCheckpointStore::parse_state_key(&key).expect("parses");
                assert_eq!((p, f.as_str(), k, r.as_slice()), (7, fn_type, u64::MAX, row));
            }
        }
    }

    #[test]
    fn corrupt_meta_record_fails_the_load() {
        for (store, label) in stores() {
            store.backend().put(META_KEY, &[1, 2, 3]);
            assert!(store.load().is_err(), "{label}: short meta");
            // Claims two offsets but carries one.
            let mut meta = BackendCheckpointStore::encode_meta(4, &[9]);
            meta[8] = 2;
            store.backend().put(META_KEY, &meta);
            assert!(store.load().is_err(), "{label}: offset count mismatch");
        }
    }

    #[test]
    fn epochs_land_in_the_shared_backend_under_the_namespace() {
        for kind in BackendKind::ALL {
            let backend = make_backend(kind, 4);
            let store = BackendCheckpointStore::new(backend.clone());
            assert!(Arc::ptr_eq(store.backend(), &backend));
            assert_eq!(store.backend().kind(), kind);
            store
                .commit_epoch(1, &[3], vec![StateDelta::put(0, "f", 2, vec![8])])
                .unwrap();
            backend.quiesce();
            let keys: Vec<Vec<u8>> = backend
                .scan_prefix(b"")
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(keys.len(), 2, "{kind:?}: one state row plus the meta record");
            assert!(keys.iter().all(|k| k.starts_with(b"df!/")), "{kind:?}");
            assert_eq!(store.commits(), 1, "{kind:?}: a lone writer commits once");
        }
    }

    /// A backend whose next `fail` commits answer `error` before any
    /// write lands; everything else goes to a real eventual backend.
    struct FailingCommits {
        inner: Arc<dyn StateBackend>,
        fail: AtomicU64,
        error: OmError,
        attempts: AtomicU64,
    }

    impl FailingCommits {
        fn new(fail: u64, error: OmError) -> Arc<Self> {
            Arc::new(Self {
                inner: make_backend(BackendKind::Eventual, 4),
                fail: AtomicU64::new(fail),
                error,
                attempts: AtomicU64::new(0),
            })
        }
    }

    impl StateBackend for FailingCommits {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }
        fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.inner.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) {
            self.inner.put(key, value)
        }
        fn delete(&self, key: &[u8]) {
            self.inner.delete(key)
        }
        fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
            self.inner.get_many(keys)
        }
        fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
            self.inner.scan_prefix(prefix)
        }
        fn commit(&self, batch: om_storage::WriteBatch) -> OmResult<usize> {
            self.commit_ops(batch.ops())
        }
        fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            let failing = self
                .fail
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if failing {
                return Err(self.error.clone());
            }
            self.inner.commit_ops(ops)
        }
        fn session(&self) -> Box<dyn om_storage::StateSession + '_> {
            self.inner.session()
        }
        fn quiesce(&self) {
            self.inner.quiesce()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn counters(&self) -> std::collections::BTreeMap<String, u64> {
            self.inner.counters()
        }
    }

    fn commit_one(store: &BackendCheckpointStore) -> OmResult<()> {
        store.commit_epoch(1, &[2], vec![StateDelta::put(0, "f", 3, vec![4])])
    }

    #[test]
    fn a_failed_commit_fails_the_epoch_at_once() {
        let backend = FailingCommits::new(1, OmError::Wedged("disk".into()));
        let store = BackendCheckpointStore::new(backend.clone());
        assert_eq!(commit_one(&store).unwrap_err().label(), "wedged");
        assert_eq!(backend.attempts.load(Ordering::Relaxed), 1, "no retry");
        assert_eq!(store.commits(), 0);
        assert!(
            store.load().unwrap().is_none(),
            "nothing of the epoch landed"
        );
        // The next epoch commits normally.
        commit_one(&store).unwrap();
        assert_eq!(store.commits(), 1);
    }

    #[test]
    fn a_failed_commit_leaves_the_previous_epoch_authoritative() {
        let backend = FailingCommits::new(0, OmError::Wedged("disk".into()));
        let store = BackendCheckpointStore::new(backend.clone());
        store
            .commit_epoch(1, &[10], vec![StateDelta::put(0, "f", 1, vec![1])])
            .unwrap();
        backend.fail.store(1, Ordering::Relaxed);
        let failed = store.commit_epoch(
            2,
            &[20],
            vec![
                StateDelta::put(0, "f", 1, vec![2]),
                StateDelta::put(0, "f", 2, vec![2]),
            ],
        );
        assert!(failed.is_err());
        let snap = store.load().unwrap().unwrap();
        assert_eq!((snap.epoch, snap.offsets), (1, vec![10]));
        assert_eq!(snap.states, vec![row(0, "f", 1, b"", &[1])]);
        assert_eq!(store.commits(), 1);
    }

    #[test]
    fn a_later_epoch_moves_the_meta_record_and_keeps_untouched_rows() {
        for (store, label) in stores() {
            store
                .commit_epoch(
                    1,
                    &[1, 1],
                    vec![
                        StateDelta::put(0, "f", 1, vec![1]),
                        StateDelta::put(1, "f", 2, vec![1]),
                    ],
                )
                .unwrap();
            store
                .commit_epoch(2, &[4, 3], vec![StateDelta::put(1, "f", 2, vec![2])])
                .unwrap();
            store.backend().quiesce();
            let snap = store.load().unwrap().unwrap();
            assert_eq!((snap.epoch, snap.offsets), (2, vec![4, 3]), "{label}");
            let mut states = snap.states;
            states.sort();
            assert_eq!(
                states,
                vec![row(0, "f", 1, b"", &[1]), row(1, "f", 2, b"", &[2])],
                "{label}"
            );
            assert_eq!(store.commits(), 2, "{label}");
        }
    }

    #[test]
    fn the_last_delta_to_a_row_in_an_epoch_wins() {
        for (store, label) in stores() {
            store
                .commit_epoch(
                    1,
                    &[1],
                    vec![
                        StateDelta::put(0, "f", 1, vec![1]),
                        StateDelta::delete(0, "f", 1),
                        StateDelta::put(0, "f", 1, vec![3]),
                        StateDelta::put(0, "f", 2, vec![1]),
                        StateDelta::delete(0, "f", 2),
                    ],
                )
                .unwrap();
            store.backend().quiesce();
            assert_eq!(store.get_row(0, "f", 1, b""), Some(vec![3]), "{label}");
            assert_eq!(store.get_row(0, "f", 2, b""), None, "{label}");
            let snap = store.load().unwrap().unwrap();
            assert_eq!(snap.states, vec![row(0, "f", 1, b"", &[3])], "{label}");
        }
    }

    #[test]
    fn an_epoch_with_no_dirty_rows_still_moves_the_offsets() {
        for (store, label) in stores() {
            store
                .commit_epoch(1, &[3], vec![StateDelta::put(0, "f", 1, vec![1])])
                .unwrap();
            store.commit_epoch(2, &[5], Vec::new()).unwrap();
            store.backend().quiesce();
            let snap = store.load().unwrap().unwrap();
            assert_eq!((snap.epoch, snap.offsets), (2, vec![5]), "{label}");
            assert_eq!(snap.states, vec![row(0, "f", 1, b"", &[1])], "{label}");
        }
    }

    /// On the snapshot backend an epoch is one commit: a reader scanning
    /// an address's rows while epochs land sees every row of one epoch.
    #[test]
    fn a_concurrent_reader_sees_whole_epochs_on_the_snapshot_backend() {
        let store = BackendCheckpointStore::new(make_backend(BackendKind::SnapshotIsolation, 8));
        let rows: Vec<Vec<u8>> = (0..12u8).map(|i| vec![b'r', i]).collect();
        let epoch = |e: u64| -> Vec<StateDelta> {
            rows.iter()
                .map(|r| StateDelta::put_row(0, "f", 1, r.clone(), e.to_le_bytes().to_vec()))
                .collect()
        };
        store.commit_epoch(0, &[0], epoch(0)).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for e in 1..=200 {
                    store.commit_epoch(e, &[e], epoch(e)).unwrap();
                }
            });
            for _ in 0..200 {
                let seen = store.scan_rows(0, "f", 1, b"r");
                assert_eq!(seen.len(), rows.len());
                let epochs: std::collections::HashSet<_> = seen.iter().map(|(_, v)| v).collect();
                assert_eq!(epochs.len(), 1, "torn epoch: {seen:?}");
            }
        });
        assert_eq!(store.load().unwrap().unwrap().epoch, 200);
    }

    #[test]
    fn backend_store_is_namespaced_alongside_other_keys() {
        let backend = make_backend(BackendKind::Eventual, 4);
        backend.put(b"grain/xyz", b"unrelated");
        let store = BackendCheckpointStore::new(backend.clone());
        store
            .commit_epoch(1, &[4], vec![StateDelta::put(0, "f", 2, vec![8])])
            .unwrap();
        let snap = store.load().unwrap().unwrap();
        assert_eq!(snap.states.len(), 1, "foreign keys must not leak in");
        assert_eq!(backend.get(b"grain/xyz"), Some(b"unrelated".to_vec()));
    }
}
