//! The snapshot-isolation backend: one in-memory image (`crate::image`),
//! one ordered map under one reader-writer lock.
//!
//! A commit applies its whole batch under the image's write lock, and
//! every read call runs under its read lock, so a multi-key commit is
//! **atomic**: a read sees all of its writes or none of them, and a
//! multi-key read or scan sees one committed state. That is serializable,
//! which is stronger than the snapshot isolation this backend stands in
//! for. The backend offers only blind writes (a batch reads nothing), so
//! there is nothing to validate: a commit never aborts and never
//! retries. Within a batch the last write to a key wins. A key holds one
//! value, so there are no old versions to collect and `quiesce` has
//! nothing to do.

use crate::backend::{StateBackend, StateSession, WriteBatch, WriteOp};
use crate::image::Image;
use om_common::config::BackendKind;
use om_common::OmResult;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The snapshot-isolation implementation of [`StateBackend`].
///
/// ```
/// use om_storage::{SnapshotBackend, StateBackend, WriteBatch};
///
/// let backend = SnapshotBackend::new();
/// // One commit, never an abort: the last write to a key wins.
/// let batch = WriteBatch::new()
///     .put(b"order/1".to_vec(), b"placed".to_vec())
///     .put(b"order/1".to_vec(), b"paid".to_vec())
///     .put(b"stock/1".to_vec(), b"4".to_vec());
/// assert_eq!(backend.commit(batch).unwrap(), 3);
/// assert_eq!(
///     backend.get_many(&[b"order/1", b"stock/1"]),
///     [Some(b"paid".to_vec()), Some(b"4".to_vec())]
/// );
/// assert_eq!(backend.counters()["backend.commits"], 1);
/// ```
#[derive(Default)]
pub struct SnapshotBackend {
    image: Image,
    commits: AtomicU64,
}

impl SnapshotBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `ops` as one commit; returns how many.
    fn install(&self, ops: Vec<WriteOp>) -> usize {
        let installed = self.image.apply(ops);
        self.commits.fetch_add(1, Ordering::Relaxed);
        installed
    }

    fn write(&self, key: &[u8], value: Option<&[u8]>) {
        self.install(vec![WriteOp {
            key: key.to_vec(),
            value: value.map(<[u8]>::to_vec),
        }]);
    }
}

impl StateBackend for SnapshotBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SnapshotIsolation
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.image.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) {
        self.write(key, Some(value));
    }

    fn delete(&self, key: &[u8]) {
        self.write(key, None);
    }

    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        self.image.get_many(keys)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.image.scan_prefix(prefix)
    }

    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        Ok(self.install(batch.into_ops()))
    }

    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        Ok(self.install(ops.to_vec()))
    }

    fn session(&self) -> Box<dyn StateSession + '_> {
        Box::new(SnapshotSession { backend: self })
    }

    fn quiesce(&self) {
        // Nothing is asynchronous, and nothing is left to collect.
    }

    fn len(&self) -> usize {
        self.image.len()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        out.insert(
            "backend.commits".into(),
            self.commits.load(Ordering::Relaxed),
        );
        out
    }
}

/// Sessions are trivial here: every write is committed before `put`
/// returns, so a later read always observes it. No fallback path
/// exists.
struct SnapshotSession<'a> {
    backend: &'a SnapshotBackend,
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
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn put_get_delete_roundtrip() {
        let b = SnapshotBackend::new();
        assert!(b.get(b"k").is_none());
        b.put(b"k", b"v1");
        b.put(b"k", b"v2");
        assert_eq!(b.get(b"k"), Some(b"v2".to_vec()));
        b.delete(b"k");
        assert_eq!(b.get(b"k"), None);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn a_commit_is_atomic_to_a_concurrent_reader() {
        let b = Arc::new(SnapshotBackend::new());
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
                    b.commit(batch).unwrap();
                }
            })
        };
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for _ in 0..500 {
            let values = b.get_many(&key_refs);
            let distinct: std::collections::HashSet<_> = values.iter().collect();
            assert!(
                distinct.len() <= 1,
                "a read observed a torn commit: {distinct:?}"
            );
        }
        writer.join().unwrap();
    }

    #[test]
    fn the_last_write_to_a_key_in_a_batch_wins() {
        let b = SnapshotBackend::new();
        let batch = WriteBatch::new()
            .put(b"k".to_vec(), b"first".to_vec())
            .delete(b"gone".to_vec())
            .put(b"k".to_vec(), b"second".to_vec())
            .put(b"gone".to_vec(), b"back".to_vec());
        assert_eq!(b.commit(batch).unwrap(), 4);
        assert_eq!(b.get(b"k"), Some(b"second".to_vec()));
        assert_eq!(b.get(b"gone"), Some(b"back".to_vec()));
        assert_eq!(b.len(), 2);
        b.commit_ops(&[WriteOp {
            key: b"k".to_vec(),
            value: None,
        }])
        .unwrap();
        assert_eq!((b.get(b"k"), b.len()), (None, 1));
    }

    #[test]
    fn concurrent_commits_are_visible_before_they_return() {
        let b = SnapshotBackend::new();
        std::thread::scope(|scope| {
            for w in 0..4u8 {
                let b = &b;
                scope.spawn(move || {
                    for i in 0..50u8 {
                        b.put(&[w, i], &[i]);
                        assert_eq!(b.get(&[w, i]), Some(vec![i]));
                    }
                });
            }
        });
        assert_eq!(b.counters()["backend.commits"], 200);
        assert_eq!(b.len(), 200);
    }

    /// Without any `quiesce`, a hot key keeps one value, not one per
    /// overwrite.
    #[test]
    fn a_key_overwritten_10_000_times_holds_one_stored_value() {
        let b = SnapshotBackend::new();
        for i in 0..10_000u32 {
            b.put(b"hot", &i.to_le_bytes());
        }
        assert_eq!(b.image.stored_bytes(), b"hot".len() + 4);
        assert_eq!(b.get(b"hot"), Some(9_999u32.to_le_bytes().to_vec()));
        assert_eq!(b.counters()["backend.commits"], 10_000);
    }

    #[test]
    fn a_scan_never_sees_a_torn_commit() {
        let b = SnapshotBackend::new();
        let keys: Vec<Vec<u8>> = (0..16u8).map(|i| vec![b's', b'/', i]).collect();
        let round = |r: u32| {
            let mut batch = WriteBatch::new();
            for k in &keys {
                batch = batch.put(k.clone(), r.to_le_bytes().to_vec());
            }
            // Each round moves one extra row: the old one goes, a new one
            // comes, in the same commit.
            batch
                .delete([&b"s/x"[..], &(r.wrapping_sub(1)).to_be_bytes()].concat())
                .put(
                    [&b"s/x"[..], &r.to_be_bytes()].concat(),
                    r.to_le_bytes().to_vec(),
                )
        };
        b.commit(round(0)).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for r in 1..=200 {
                    b.commit(round(r)).unwrap();
                }
            });
            for _ in 0..200 {
                let rows = b.scan_prefix(b"s/");
                assert_eq!(rows.len(), 17, "a scan sees one extra row: {rows:?}");
                let values: std::collections::HashSet<_> = rows.iter().map(|(_, v)| v).collect();
                assert_eq!(values.len(), 1, "torn scan: {rows:?}");
            }
        });
    }

    #[test]
    fn an_empty_batch_commits_nothing() {
        let b = SnapshotBackend::new();
        b.put(b"k", b"v");
        assert_eq!(b.commit(WriteBatch::new()).unwrap(), 0);
        assert_eq!(b.commit_ops(&[]).unwrap(), 0);
        assert_eq!((b.get(b"k"), b.len()), (Some(b"v".to_vec()), 1));
        assert_eq!(b.image.stored_bytes(), 2);
    }

    #[test]
    fn a_session_sees_every_commit_at_once() {
        let b = SnapshotBackend::new();
        let mut session = b.session();
        b.commit(WriteBatch::new().put(b"k".to_vec(), b"outside".to_vec()))
            .unwrap();
        assert_eq!(session.get(b"k"), Some(b"outside".to_vec()));
        session.delete(b"k");
        assert_eq!(b.get(b"k"), None, "a session's write is a commit");
        session.put(b"j", b"mine");
        assert_eq!(
            (session.get(b"j"), session.fallbacks()),
            (Some(b"mine".to_vec()), 0)
        );
    }

    #[test]
    fn get_many_answers_in_the_order_asked() {
        let b = SnapshotBackend::new();
        b.put(b"a", b"1");
        b.put(b"b", b"2");
        assert_eq!(
            b.get_many(&[b"b", b"missing", b"a", b"b"]),
            [
                Some(b"2".to_vec()),
                None,
                Some(b"1".to_vec()),
                Some(b"2".to_vec())
            ]
        );
        assert!(b.get_many(&[]).is_empty());
    }

    #[test]
    fn deleting_an_absent_key_stores_nothing() {
        let b = SnapshotBackend::new();
        b.delete(b"never");
        assert_eq!(
            (b.get(b"never"), b.len(), b.image.stored_bytes()),
            (None, 0, 0)
        );
    }

    #[test]
    fn the_commit_counter_counts_commits_not_writes() {
        let b = SnapshotBackend::new();
        let mut batch = WriteBatch::new();
        for i in 0..5u8 {
            batch = batch.put(vec![i], vec![i]);
        }
        b.commit(batch).unwrap();
        b.put(b"a", b"1");
        b.delete(b"a");
        b.session().put(b"b", b"1");
        assert_eq!(b.counters()["backend.commits"], 4);
    }

    #[test]
    fn a_key_put_again_after_its_delete_survives_quiesce() {
        let b = SnapshotBackend::new();
        b.put(b"k", b"1");
        b.delete(b"k");
        b.quiesce();
        assert_eq!(b.get(b"k"), None);
        b.put(b"k", b"2");
        b.quiesce();
        assert_eq!((b.get(b"k"), b.len()), (Some(b"2".to_vec()), 1));
        assert_eq!(b.scan_prefix(b"k"), [(b"k".to_vec(), b"2".to_vec())]);
    }

    /// `quiesce`, called while commits run, changes no read: a scan
    /// taken around it is one committed state each time.
    #[test]
    fn quiesce_changes_no_read() {
        let b = SnapshotBackend::new();
        for i in 0..32u8 {
            b.put(&[i], &[0]);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=100u8 {
                    let ops: Vec<WriteOp> = (0..32u8)
                        .map(|i| WriteOp {
                            key: vec![i],
                            value: Some(vec![round]),
                        })
                        .collect();
                    b.commit_ops(&ops).unwrap();
                }
            });
            for _ in 0..100 {
                b.quiesce();
                let rows = b.scan_prefix(b"");
                assert_eq!(rows.len(), 32);
                assert!(rows.iter().all(|(_, v)| *v == rows[0].1), "torn: {rows:?}");
            }
        });
        let before = b.scan_prefix(b"");
        b.quiesce();
        assert_eq!(b.scan_prefix(b""), before);
        assert!(before.iter().all(|(_, v)| v == &[100]));
    }

    #[test]
    fn a_batch_of_a_thousand_keys_is_one_commit() {
        let b = SnapshotBackend::new();
        let batch = (0..1_000u16).fold(WriteBatch::new(), |batch, i| {
            batch.put(i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec())
        });
        assert_eq!(b.commit(batch).unwrap(), 1_000);
        assert_eq!(b.counters()["backend.commits"], 1);
        assert_eq!(b.len(), 1_000);
        let rows = b.scan_prefix(b"");
        assert!(rows
            .iter()
            .zip(0..1_000u16)
            .all(|((k, v), i)| *k == i.to_be_bytes() && *v == i.to_le_bytes()));
    }

    /// Keys written in a scrambled order scan back in key order.
    #[test]
    fn scan_prefix_returns_rows_in_key_order_whatever_the_write_order() {
        let b = SnapshotBackend::new();
        for i in 0..512u32 {
            let k = i.wrapping_mul(2_654_435_761) % 512;
            b.put(&[&b"row/"[..], &k.to_be_bytes()].concat(), &k.to_le_bytes());
        }
        b.put(b"rov", b"before the prefix");
        b.put(b"rox", b"after the prefix");
        let rows = b.scan_prefix(b"row/");
        assert_eq!(rows.len(), 512);
        for (i, (k, v)) in (0..512u32).zip(&rows) {
            assert_eq!(&k[4..], i.to_be_bytes());
            assert_eq!(v[..], i.to_le_bytes());
        }
    }

    /// A batch that deletes many keys takes them away together: a
    /// concurrent reader sees all of them or none.
    #[test]
    fn a_delete_batch_is_atomic_to_a_concurrent_reader() {
        let b = SnapshotBackend::new();
        let keys: Vec<Vec<u8>> = (0..16u8).map(|i| vec![b'd', i]).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 0..200u8 {
                    let fill = keys.iter().fold(WriteBatch::new(), |batch, k| {
                        batch.put(k.clone(), vec![round])
                    });
                    b.commit(fill).unwrap();
                    let drain = keys
                        .iter()
                        .fold(WriteBatch::new(), |batch, k| batch.delete(k.clone()));
                    b.commit(drain).unwrap();
                }
            });
            for _ in 0..500 {
                let present = b.get_many(&key_refs).iter().filter(|v| v.is_some()).count();
                assert!(present == 0 || present == 16, "a torn delete: {present} of 16");
                let len = b.len();
                assert!(len == 0 || len == 16, "a torn count: {len}");
            }
        });
        assert!(b.is_empty());
    }

    #[test]
    fn a_later_commit_overwrites_an_earlier_one() {
        let b = SnapshotBackend::new();
        b.commit(
            WriteBatch::new()
                .put(b"a".to_vec(), b"1".to_vec())
                .put(b"b".to_vec(), b"1".to_vec()),
        )
        .unwrap();
        b.commit(
            WriteBatch::new()
                .put(b"b".to_vec(), b"2".to_vec())
                .put(b"c".to_vec(), b"2".to_vec())
                .delete(b"a".to_vec()),
        )
        .unwrap();
        assert_eq!(
            b.scan_prefix(b""),
            [
                (b"b".to_vec(), b"2".to_vec()),
                (b"c".to_vec(), b"2".to_vec())
            ]
        );
        assert_eq!(b.counters()["backend.commits"], 2);
    }

    /// Many threads overwriting one key leave one value, the last one a
    /// thread wrote, and nothing else stored.
    #[test]
    fn concurrent_overwrites_of_one_key_leave_one_value() {
        let b = SnapshotBackend::new();
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let b = &b;
                scope.spawn(move || {
                    for i in 0..1_000u16 {
                        b.put(b"hot", &[&[t][..], &i.to_le_bytes()].concat());
                    }
                });
            }
        });
        let last = b.get(b"hot").unwrap();
        assert_eq!(last[1..], 999u16.to_le_bytes(), "{last:?}");
        assert_eq!((b.len(), b.image.stored_bytes()), (1, 3 + 3));
        assert_eq!(b.counters()["backend.commits"], 4_000);
    }

    /// Deleted rows give their bytes back at once, without a `quiesce`.
    #[test]
    fn deleted_rows_give_their_bytes_back() {
        let b = SnapshotBackend::new();
        for i in 0..100u8 {
            b.put(&[i], &[i; 64]);
        }
        assert_eq!(b.image.stored_bytes(), 100 * 65);
        for i in 0..100u8 {
            b.delete(&[i]);
        }
        assert_eq!((b.len(), b.image.stored_bytes()), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Batches applied in commit order, the last write to a key in a
        /// batch winning, give the final state; `commit` and
        /// `commit_ops` install alike.
        #[test]
        fn commit_order_determines_the_final_state(
            batches in prop::collection::vec(
                prop::collection::vec((0u8..8, prop::option::of(0u8..100)), 0..6),
                1..20,
            )
        ) {
            let (by_value, by_ref) = (SnapshotBackend::new(), SnapshotBackend::new());
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for ops in &batches {
                let ops: Vec<WriteOp> = ops
                    .iter()
                    .map(|(k, v)| WriteOp { key: vec![*k], value: v.map(|v| vec![v]) })
                    .collect();
                for op in &ops {
                    match &op.value {
                        Some(v) => model.insert(op.key.clone(), v.clone()),
                        None => model.remove(&op.key),
                    };
                }
                let n = ops.len();
                prop_assert_eq!(by_ref.commit_ops(&ops).unwrap(), n);
                prop_assert_eq!(by_value.commit(WriteBatch::from_ops(ops)).unwrap(), n);
            }
            let expected: Vec<_> = model.into_iter().collect();
            prop_assert_eq!(by_value.scan_prefix(b""), expected.clone());
            prop_assert_eq!(by_ref.scan_prefix(b""), expected.clone());
            prop_assert_eq!(by_value.len(), expected.len());
        }

        /// `len`, `is_empty` and a full scan count the same live rows
        /// after every write.
        #[test]
        fn len_and_a_full_scan_agree_after_every_write(
            writes in prop::collection::vec((0u8..12, prop::option::of(any::<u8>())), 1..48)
        ) {
            let b = SnapshotBackend::new();
            for (k, v) in &writes {
                match v {
                    Some(v) => b.put(&[*k], &[*v]),
                    None => b.delete(&[*k]),
                }
                let rows = b.scan_prefix(b"").len();
                prop_assert_eq!(b.len(), rows);
                prop_assert_eq!(b.is_empty(), rows == 0);
            }
        }
    }
}
