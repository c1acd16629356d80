//! The snapshot-isolation backend: sharded version chains under one
//! commit lock and timestamp oracle.
//!
//! A commit takes the oracle's commit lock, draws the next timestamp,
//! appends one version per write to its key's shard and then publishes
//! the timestamp. Every read registers a snapshot at the newest published
//! commit and sees, per key, the newest version at or below it — so a
//! multi-key commit is **atomic across shards**: a snapshot sees all of
//! its writes or none of them. The backend offers only blind writes (a
//! batch reads nothing), so there is nothing to validate: a commit never
//! aborts and never retries. Within a batch the last write to a key wins.

use crate::backend::{shard_of, StateBackend, StateSession, WriteBatch, WriteOp};
use crate::shards_pow2;
use crate::versions::{prefix_end, Shard, TsOracle};
use om_common::config::BackendKind;
use om_common::OmResult;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// The snapshot-isolation implementation of [`StateBackend`].
///
/// ```
/// use om_storage::{SnapshotBackend, StateBackend, WriteBatch};
///
/// let backend = SnapshotBackend::new(4);
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
pub struct SnapshotBackend {
    oracle: TsOracle,
    /// Power-of-two shard array, each with its own row lock.
    shards: Vec<Shard>,
    mask: u64,
    commits: AtomicU64,
}

impl SnapshotBackend {
    /// Builds the backend with at least `shards` shards (rounded up to a
    /// power of two).
    pub fn new(shards: usize) -> Self {
        let shards = shards_pow2(shards);
        Self {
            oracle: TsOracle::default(),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            mask: shards as u64 - 1,
            commits: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &[u8]) -> &Shard {
        &self.shards[shard_of(key, self.mask)]
    }

    /// Installs `ops` as one commit; returns how many.
    fn install(&self, ops: impl IntoIterator<Item = WriteOp>) -> usize {
        let installed = self.oracle.commit(|ts| {
            ops.into_iter()
                .map(|WriteOp { key, value }| self.shard(&key).install(key, value, ts))
                .count()
        });
        self.commits.fetch_add(1, Ordering::Relaxed);
        installed
    }

    fn write(&self, key: &[u8], value: Option<&[u8]>) {
        self.install([WriteOp {
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
        let snapshot = self.oracle.snapshot();
        self.shard(key).get(key, snapshot.ts)
    }

    fn put(&self, key: &[u8], value: &[u8]) {
        self.write(key, Some(value));
    }

    fn delete(&self, key: &[u8]) {
        self.write(key, None);
    }

    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        // One snapshot serves every key: torn multi-key commits are
        // unobservable by construction.
        let snapshot = self.oracle.snapshot();
        keys.iter()
            .map(|k| self.shard(k).get(k, snapshot.ts))
            .collect()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let snapshot = self.oracle.snapshot();
        let end = prefix_end(prefix);
        let range = (Bound::Included(prefix), end.as_ref().map(Vec::as_slice));
        let mut out = Vec::new();
        let mut contributing = 0;
        for shard in &self.shards {
            let before = out.len();
            shard.scan(range, snapshot.ts, &mut out);
            contributing += usize::from(out.len() > before);
        }
        // Each shard's rows arrive in key order and a key lives on one
        // shard, so only a result drawn from several shards needs sorting.
        if contributing > 1 {
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }

    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        Ok(self.install(batch.into_ops()))
    }

    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        Ok(self.install(ops.iter().cloned()))
    }

    fn session(&self) -> Box<dyn StateSession + '_> {
        Box::new(SnapshotSession { backend: self })
    }

    fn quiesce(&self) {
        // Nothing is asynchronous; reclaim superseded versions instead.
        let horizon = self.oracle.gc_horizon();
        for shard in &self.shards {
            shard.gc(horizon);
        }
    }

    fn len(&self) -> usize {
        let snapshot = self.oracle.snapshot();
        self.shards.iter().map(|s| s.live(snapshot.ts)).sum()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        out.insert(
            "backend.commits".into(),
            self.commits.load(Ordering::Relaxed),
        );
        out.insert("backend.shards".into(), self.shards.len() as u64);
        out
    }
}

/// Sessions are trivial under snapshot isolation: every write is
/// committed before `put` returns, so a later read (fresh snapshot)
/// always observes it. No fallback path exists.
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

    fn versions(b: &SnapshotBackend) -> usize {
        b.shards.iter().map(Shard::versions).sum()
    }

    /// Every live row at snapshot `ts`, in key order.
    fn rows_at(b: &SnapshotBackend, ts: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for shard in &b.shards {
            shard.scan((Bound::Unbounded, Bound::Unbounded), ts, &mut out);
        }
        out.sort();
        out
    }

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
                "snapshot read observed a torn commit: {distinct:?}"
            );
        }
        writer.join().unwrap();
    }

    #[test]
    fn a_snapshot_is_repeatable_and_sees_deletes_only_after_it() {
        let b = SnapshotBackend::new(4);
        b.put(b"a", b"1");
        b.put(b"b", b"1");
        let reader = b.oracle.snapshot();
        for i in 2..10u8 {
            b.put(b"a", &[i]);
            b.commit(WriteBatch::new().put(b"c".to_vec(), vec![i]))
                .unwrap();
        }
        b.delete(b"b");
        assert_eq!(b.shard(b"a").get(b"a", reader.ts), Some(b"1".to_vec()));
        assert_eq!(b.shard(b"b").get(b"b", reader.ts), Some(b"1".to_vec()));
        assert_eq!(b.shard(b"c").get(b"c", reader.ts), None);
        assert_eq!(b.get(b"a"), Some(vec![9]));
        assert_eq!(b.get(b"b"), None, "a later snapshot sees the delete");
        assert_eq!(
            b.scan_prefix(b""),
            vec![(b"a".to_vec(), vec![9]), (b"c".to_vec(), vec![9])]
        );
    }

    #[test]
    fn the_last_write_to_a_key_in_a_batch_wins() {
        let b = SnapshotBackend::new(2);
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
        b.quiesce();
        assert_eq!((b.get(b"k"), b.len(), versions(&b)), (None, 1, 1));
    }

    #[test]
    fn concurrent_commits_are_published_in_timestamp_order() {
        let b = SnapshotBackend::new(8);
        std::thread::scope(|scope| {
            for w in 0..4u8 {
                let b = &b;
                scope.spawn(move || {
                    for i in 0..50u8 {
                        b.put(&[w, i], &[i]);
                        // A commit is published before it returns.
                        assert_eq!(b.get(&[w, i]), Some(vec![i]));
                    }
                });
            }
        });
        assert_eq!(b.oracle.snapshot().ts, 200, "one timestamp per commit");
        assert_eq!(b.counters()["backend.commits"], 200);
        assert_eq!(b.len(), 200);
    }

    #[test]
    fn every_read_releases_its_snapshot() {
        let b = SnapshotBackend::new(4);
        b.put(b"k", b"v");
        b.get(b"k");
        b.get_many(&[b"k", b"j"]);
        b.scan_prefix(b"k");
        b.len();
        b.session().get(b"k");
        b.put(b"k", b"w");
        assert_eq!(b.oracle.gc_horizon(), 2, "no read left a snapshot open");
        b.quiesce();
        assert_eq!(versions(&b), 1);
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
    fn quiesce_collects_versions_no_open_snapshot_sees() {
        let b = SnapshotBackend::new(2);
        for i in 0..10u8 {
            b.put(b"hot", &[i]);
        }
        let reader = b.oracle.snapshot();
        b.put(b"hot", b"new");
        b.quiesce();
        assert_eq!(versions(&b), 2, "the reader's version and the newest");
        assert_eq!(b.shard(b"hot").get(b"hot", reader.ts), Some(vec![9]));
        drop(reader);
        b.quiesce();
        assert_eq!(versions(&b), 1);
        assert_eq!(b.get(b"hot"), Some(b"new".to_vec()));
    }

    #[test]
    fn snapshot_reads_are_repeatable_across_concurrent_commits() {
        let b = SnapshotBackend::new(4);
        b.put(b"k", &0u32.to_le_bytes());
        let reader = b.oracle.snapshot();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 1..=300u32 {
                    b.put(b"k", &i.to_le_bytes());
                }
            });
            for _ in 0..300 {
                assert_eq!(
                    b.shard(b"k").get(b"k", reader.ts),
                    Some(0u32.to_le_bytes().to_vec())
                );
            }
        });
        assert_eq!(b.get(b"k"), Some(300u32.to_le_bytes().to_vec()));
    }

    #[test]
    fn deletes_become_visible_only_after_commit() {
        let b = SnapshotBackend::new(8);
        let keys: Vec<Vec<u8>> = (0..32u8).map(|i| vec![b'd', i]).collect();
        let mut batch = WriteBatch::new();
        for k in &keys {
            batch = batch.put(k.clone(), b"v".to_vec());
        }
        b.commit(batch).unwrap();
        let before = b.oracle.snapshot();
        let mut batch = WriteBatch::new();
        for k in &keys {
            batch = batch.delete(k.clone());
        }
        b.commit(batch).unwrap();
        assert_eq!(rows_at(&b, before.ts).len(), 32, "the delete is newer");
        assert!(b.scan_prefix(b"d").is_empty());
        assert!(b.is_empty());
        b.quiesce();
        assert_eq!(versions(&b), 64, "the open snapshot keeps the puts");
        drop(before);
        b.quiesce();
        assert_eq!(versions(&b), 0);
    }

    #[test]
    fn commits_are_ordered_by_timestamp() {
        let b = SnapshotBackend::new(4);
        let mut readers = vec![b.oracle.snapshot()];
        for i in 0..10u8 {
            b.commit(
                WriteBatch::new()
                    .put(vec![i], vec![i])
                    .put(b"last".to_vec(), vec![i]),
            )
            .unwrap();
            readers.push(b.oracle.snapshot());
        }
        for (n, reader) in readers.iter().enumerate() {
            assert_eq!(reader.ts, n as u64);
            let rows = rows_at(&b, reader.ts);
            // The snapshot after `n` commits sees exactly those `n`.
            let firsts: Vec<u8> = (0..n as u8).collect();
            let seen: Vec<u8> = rows
                .iter()
                .filter(|(k, _)| k.len() == 1)
                .map(|(k, _)| k[0])
                .collect();
            assert_eq!(seen, firsts);
            let last = b.shard(b"last").get(b"last", reader.ts);
            assert_eq!(last, n.checked_sub(1).map(|i| vec![i as u8]));
        }
    }

    #[test]
    fn a_scan_never_sees_a_torn_commit() {
        let b = SnapshotBackend::new(8);
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
    fn len_counts_one_snapshot_while_rows_move() {
        let b = SnapshotBackend::new(8);
        for i in 0..10u8 {
            b.put(&[b'a', i], b"v");
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..100 {
                    for i in 0..10u8 {
                        let (from, to) = match b.get(&[b'a', i]) {
                            Some(_) => ([b'a', i], [b'b', i]),
                            None => ([b'b', i], [b'a', i]),
                        };
                        b.commit(
                            WriteBatch::new()
                                .delete(from.to_vec())
                                .put(to.to_vec(), b"v".to_vec()),
                        )
                        .unwrap();
                    }
                }
            });
            for _ in 0..500 {
                assert_eq!(b.len(), 10);
            }
        });
    }

    #[test]
    fn an_empty_batch_commits_nothing() {
        let b = SnapshotBackend::new(4);
        b.put(b"k", b"v");
        assert_eq!(b.commit(WriteBatch::new()).unwrap(), 0);
        assert_eq!(b.commit_ops(&[]).unwrap(), 0);
        assert_eq!((b.get(b"k"), b.len()), (Some(b"v".to_vec()), 1));
        b.quiesce();
        assert_eq!(versions(&b), 1);
    }

    #[test]
    fn the_shard_count_rounds_up_to_a_power_of_two() {
        for (asked, built) in [(0, 1), (1, 1), (3, 4), (8, 8), (9, 16)] {
            let b = SnapshotBackend::new(asked);
            assert_eq!(b.counters()["backend.shards"], built, "asked for {asked}");
            assert_eq!(b.kind(), BackendKind::SnapshotIsolation);
        }
    }

    #[test]
    fn a_session_sees_every_commit_at_once() {
        let b = SnapshotBackend::new(4);
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
        let b = SnapshotBackend::new(8);
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
    fn gc_preserves_open_snapshots_under_concurrent_commits() {
        let b = SnapshotBackend::new(4);
        for k in 0..8u8 {
            b.put(&[k], &[0]);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=100u8 {
                    b.put(&[round % 8], &[round]);
                }
            });
            scope.spawn(|| {
                for _ in 0..100 {
                    b.quiesce();
                }
            });
            for _ in 0..50 {
                let reader = b.oracle.snapshot();
                let first = rows_at(&b, reader.ts);
                b.quiesce();
                assert_eq!(rows_at(&b, reader.ts), first);
                assert_eq!(first.len(), 8);
            }
        });
    }

    #[test]
    fn deleting_an_absent_key_leaves_only_a_collectable_tombstone() {
        let b = SnapshotBackend::new(4);
        b.delete(b"never");
        assert_eq!((b.get(b"never"), b.len(), versions(&b)), (None, 0, 1));
        b.quiesce();
        assert_eq!(versions(&b), 0);
    }

    #[test]
    fn a_key_put_again_after_its_delete_survives_gc() {
        let b = SnapshotBackend::new(4);
        b.put(b"k", b"1");
        b.delete(b"k");
        b.put(b"k", b"2");
        b.quiesce();
        assert_eq!(
            (b.get(b"k"), b.len(), versions(&b)),
            (Some(b"2".to_vec()), 1, 1)
        );
    }

    #[test]
    fn the_commit_counter_counts_commits_not_writes() {
        let b = SnapshotBackend::new(4);
        let mut batch = WriteBatch::new();
        for i in 0..5u8 {
            batch = batch.put(vec![i], vec![i]);
        }
        b.commit(batch).unwrap();
        b.put(b"a", b"1");
        b.delete(b"a");
        b.session().put(b"b", b"1");
        assert_eq!(b.counters()["backend.commits"], 4);
        assert_eq!(b.oracle.snapshot().ts, 4, "one timestamp per commit");
    }

    #[test]
    fn a_batch_spanning_every_shard_is_one_commit() {
        let b = SnapshotBackend::new(16);
        let before = b.oracle.snapshot();
        let mut batch = WriteBatch::new();
        for i in 0..1000u16 {
            batch = batch.put(i.to_be_bytes().to_vec(), vec![1]);
        }
        assert_eq!(b.commit(batch).unwrap(), 1000);
        assert!(b.shards.iter().all(|s| s.live(1) > 0), "every shard written");
        assert_eq!((b.oracle.snapshot().ts, b.len()), (1, 1000));
        assert!(rows_at(&b, before.ts).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Garbage collection never changes what a new snapshot reads.
        #[test]
        fn gc_is_invisible_to_a_new_snapshot(
            writes in prop::collection::vec((0u8..6, prop::option::of(0u8..50)), 1..60)
        ) {
            let b = SnapshotBackend::new(2);
            for (k, v) in &writes {
                match v {
                    Some(v) => b.put(&[*k], &[*v]),
                    None => b.delete(&[*k]),
                }
            }
            let before = b.scan_prefix(b"");
            b.quiesce();
            prop_assert_eq!(b.scan_prefix(b""), before);
        }

        /// A pinned snapshot reads the same rows whatever commits and
        /// garbage collection follow it, and a new snapshot reads them
        /// all.
        #[test]
        fn a_pinned_snapshot_is_stable_under_commits_and_gc(
            writes in prop::collection::vec((0u8..16, 0u16..1000), 1..32)
        ) {
            let b = SnapshotBackend::new(4);
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> =
                (0u8..16).map(|k| (vec![k], vec![0])).collect();
            let mut batch = WriteBatch::new();
            for (k, v) in &model {
                batch = batch.put(k.clone(), v.clone());
            }
            b.commit(batch).unwrap();
            let reader = b.oracle.snapshot();
            let pinned = rows_at(&b, reader.ts);
            for (k, v) in &writes {
                b.put(&[*k], &v.to_le_bytes());
                model.insert(vec![*k], v.to_le_bytes().to_vec());
                b.quiesce();
                prop_assert_eq!(&rows_at(&b, reader.ts), &pinned);
            }
            drop(reader);
            b.quiesce();
            prop_assert_eq!(b.scan_prefix(b""), model.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(versions(&b), 16, "one version a key once nothing pins");
        }

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
            let (by_value, by_ref) = (SnapshotBackend::new(4), SnapshotBackend::new(2));
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
            let b = SnapshotBackend::new(4);
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
