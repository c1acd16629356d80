//! The in-memory image both atomic stores keep: every live row in one
//! ordered map under one reader-writer lock. It is the whole state of
//! [`SnapshotBackend`](crate::SnapshotBackend) and the read path of
//! [`FileBackend`](crate::FileBackend).
//!
//! A batch applies under the write lock, and each read call (a point
//! read, a multi-key read, a prefix scan, a count) runs under the read
//! lock, so a read sees every write of a batch or none of them. Each
//! batch and each read call is one step in the lock's order, which makes
//! the image serializable, stronger than snapshot isolation. A key holds
//! one value: an overwrite replaces it and a delete removes the key, so
//! nothing piles up and nothing needs collecting.
//!
//! The lock is taken and released inside each method: no caller holds it
//! across a call into the write-ahead log or back into a backend.

use crate::backend::WriteOp;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Every live row, in key order, under one lock.
#[derive(Default)]
pub(crate) struct Image {
    rows: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl Image {
    /// Applies `ops` in order as one step (the last write to a key
    /// wins); returns how many.
    pub(crate) fn apply(&self, ops: Vec<WriteOp>) -> usize {
        let n = ops.len();
        let mut rows = self.rows.write();
        for WriteOp { key, value } in ops {
            match value {
                Some(value) => rows.insert(key, value),
                None => rows.remove(&key),
            };
        }
        n
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.rows.read().get(key).cloned()
    }

    /// The values of `keys`, in the order asked, read in one step.
    pub(crate) fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        let rows = self.rows.read();
        keys.iter().map(|k| rows.get(*k).cloned()).collect()
    }

    /// The rows whose key starts with `prefix`, in key order, read in
    /// one step: one range over `prefix..prefix_end(prefix)`.
    pub(crate) fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let end = prefix_end(prefix);
        let range = (Bound::Included(prefix), end.as_ref().map(Vec::as_slice));
        let rows = self.rows.read();
        rows.range::<[u8], _>(range)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// Bytes of every key and value the image holds.
    #[cfg(test)]
    pub(crate) fn stored_bytes(&self) -> usize {
        self.rows
            .read()
            .iter()
            .map(|(k, v)| k.len() + v.len())
            .sum()
    }
}

/// The end of the key range holding exactly the keys that start with
/// `prefix`: the prefix's successor — trailing `0xFF` bytes dropped, the
/// last remaining byte incremented — or unbounded when none exists (an
/// empty or all-`0xFF` prefix). A scan over `prefix..end` costs the rows
/// it returns, however many keys sort after the prefix.
pub(crate) fn prefix_end(prefix: &[u8]) -> Bound<Vec<u8>> {
    match prefix.iter().rposition(|&b| b != 0xFF) {
        Some(last) => {
            let mut successor = prefix[..=last].to_vec();
            successor[last] += 1;
            Bound::Excluded(successor)
        }
        None => Bound::Unbounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn put(key: &[u8], value: &[u8]) -> WriteOp {
        WriteOp {
            key: key.to_vec(),
            value: Some(value.to_vec()),
        }
    }

    fn delete(key: &[u8]) -> WriteOp {
        WriteOp {
            key: key.to_vec(),
            value: None,
        }
    }

    #[test]
    fn prefix_end_is_the_successor() {
        assert_eq!(prefix_end(b"ab"), Bound::Excluded(b"ac".to_vec()));
        assert_eq!(prefix_end(&[b'a', 0xFF]), Bound::Excluded(vec![b'b']));
        assert_eq!(prefix_end(&[b'a', 0xFF, 0xFF]), Bound::Excluded(vec![b'b']));
        assert_eq!(prefix_end(&[]), Bound::Unbounded);
        assert_eq!(prefix_end(&[0xFF, 0xFF]), Bound::Unbounded);
    }

    #[test]
    fn a_scan_returns_only_the_prefix_in_key_order() {
        let image = Image::default();
        for i in (0..300u32).rev() {
            let group: &[u8] = if i % 3 == 0 { b"a/" } else { b"b/" };
            image.apply(vec![put(&[group, &i.to_be_bytes()[..]].concat(), b"v")]);
        }
        image.apply(vec![put(&[b'a', 0xFF], b"after the prefix")]);
        let out = image.scan_prefix(b"a/");
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|(k, _)| k.starts_with(b"a/")));
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "key order");
    }

    #[test]
    fn a_deleted_key_is_gone_until_it_is_put_again() {
        let image = Image::default();
        image.apply(vec![put(b"a", b"1"), put(b"b", b"1")]);
        image.apply(vec![delete(b"a")]);
        assert_eq!((image.get(b"a"), image.len()), (None, 1));
        assert_eq!(image.scan_prefix(b""), [(b"b".to_vec(), b"1".to_vec())]);
        image.apply(vec![put(b"a", b"3")]);
        assert_eq!((image.get(b"a"), image.len()), (Some(b"3".to_vec()), 2));
        assert_eq!(image.stored_bytes(), 4, "one value a key, no tombstone");
    }

    #[test]
    fn the_last_write_to_a_key_in_a_batch_wins() {
        let image = Image::default();
        let ops = vec![put(b"k", b"1"), delete(b"k"), put(b"k", b"2"), delete(b"j")];
        assert_eq!(image.apply(ops), 4);
        assert_eq!(image.get_many(&[b"k", b"j"]), [Some(b"2".to_vec()), None]);
    }

    #[test]
    fn apply_counts_every_op_and_an_empty_batch_changes_nothing() {
        let image = Image::default();
        assert_eq!(image.apply(vec![put(b"k", b"v")]), 1);
        assert_eq!(image.apply(Vec::new()), 0);
        assert_eq!(image.apply(vec![delete(b"absent"), delete(b"absent")]), 2);
        assert_eq!((image.get(b"k"), image.len()), (Some(b"v".to_vec()), 1));
        assert_eq!(image.stored_bytes(), 2);
    }

    #[test]
    fn len_counts_live_keys_not_writes() {
        let image = Image::default();
        for round in 0..5u8 {
            image.apply((0..10u8).map(|i| put(&[i], &[round])).collect());
        }
        assert_eq!(image.len(), 10);
        image.apply((0..10u8).step_by(2).map(|i| delete(&[i])).collect());
        assert_eq!(image.len(), 5);
        image.apply((0..10u8).map(|i| delete(&[i])).collect());
        assert_eq!((image.len(), image.stored_bytes()), (0, 0));
    }

    #[test]
    fn an_overwrite_replaces_the_stored_value() {
        let image = Image::default();
        image.apply(vec![put(b"k", &[7; 100])]);
        assert_eq!(image.stored_bytes(), 101);
        image.apply(vec![put(b"k", b"short")]);
        assert_eq!(image.stored_bytes(), 6, "the old value is gone");
        image.apply(vec![put(b"k", &[9; 1_000])]);
        assert_eq!(image.stored_bytes(), 1_001);
        assert_eq!(image.get(b"k"), Some(vec![9; 1_000]));
    }

    #[test]
    fn an_empty_prefix_scans_every_row_in_key_order() {
        let image = Image::default();
        let keys: [&[u8]; 6] = [b"b", &[0xFF, 0xFF], b"", b"a/1", &[0], b"a"];
        image.apply(keys.iter().map(|k| put(k, b"v")).collect());
        let scanned: Vec<Vec<u8>> = image.scan_prefix(b"").into_iter().map(|(k, _)| k).collect();
        let mut sorted: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
        sorted.sort();
        assert_eq!(scanned, sorted);
    }

    #[test]
    fn a_scan_under_an_all_ff_prefix_reaches_the_last_key() {
        let image = Image::default();
        let keys: [&[u8]; 5] = [&[0xFE, 0xFF], &[0xFF], &[0xFF, 0], &[0xFF, 0xFF, 1], &[0xFF; 4]];
        image.apply(keys.iter().map(|k| put(k, b"v")).collect());
        let scan = |prefix: &[u8]| -> Vec<Vec<u8>> {
            image.scan_prefix(prefix).into_iter().map(|(k, _)| k).collect()
        };
        assert_eq!(scan(&[0xFF]), keys[1..].iter().map(|k| k.to_vec()).collect::<Vec<_>>());
        assert_eq!(scan(&[0xFF, 0xFF]), [keys[3].to_vec(), keys[4].to_vec()]);
        assert_eq!(scan(&[0xFE]), [keys[0].to_vec()]);
    }

    #[test]
    fn a_scan_of_an_absent_prefix_is_empty() {
        let image = Image::default();
        image.apply(vec![put(b"a/1", b"v"), put(b"c/1", b"v"), put(b"b", b"v")]);
        assert!(image.scan_prefix(b"b/").is_empty(), "the key itself is shorter");
        assert!(image.scan_prefix(b"a/2").is_empty());
        assert!(image.scan_prefix(b"d").is_empty());
        assert!(Image::default().scan_prefix(b"").is_empty());
    }

    #[test]
    fn reads_return_copies_a_later_write_does_not_change() {
        let image = Image::default();
        image.apply(vec![put(b"p/1", b"old"), put(b"p/2", b"old")]);
        let (one, many, scan) = (
            image.get(b"p/1"),
            image.get_many(&[b"p/1", b"p/2"]),
            image.scan_prefix(b"p/"),
        );
        image.apply(vec![put(b"p/1", b"new"), delete(b"p/2"), put(b"p/3", b"new")]);
        assert_eq!(one, Some(b"old".to_vec()));
        assert_eq!(many, [Some(b"old".to_vec()), Some(b"old".to_vec())]);
        assert_eq!(scan.len(), 2);
        assert!(scan.iter().all(|(_, v)| v == b"old"));
    }

    /// Each read call sees one applied state: a batch moves a row from
    /// `a/` to `b/` and bumps a counter, and no reader sees the row in
    /// both places, in neither, or beside a counter of another round.
    #[test]
    fn every_read_call_sees_all_of_a_batch_or_none_of_it() {
        let image = Image::default();
        image.apply(vec![put(b"a/row", &[0]), put(b"n", &[0])]);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=200u8 {
                    let (from, to): (&[u8], &[u8]) = if round % 2 == 1 {
                        (b"a/row", b"b/row")
                    } else {
                        (b"b/row", b"a/row")
                    };
                    image.apply(vec![delete(from), put(to, &[round]), put(b"n", &[round])]);
                }
            });
            for _ in 0..300 {
                let rows = image.scan_prefix(b"");
                assert_eq!(rows.len(), 2, "torn scan: {rows:?}");
                assert_eq!(rows[0].1, rows[1].1, "torn scan: {rows:?}");
                let [a, b, n] = <[_; 3]>::try_from(image.get_many(&[b"a/row", b"b/row", b"n"]))
                    .unwrap();
                assert!(a.is_some() != b.is_some(), "torn read: {a:?} {b:?}");
                assert_eq!(a.or(b), n);
                assert_eq!(image.len(), 2);
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `prefix..prefix_end(prefix)` holds a key exactly when the key
        /// starts with the prefix; bytes near `0xFF` are drawn often.
        #[test]
        fn the_prefix_range_holds_exactly_the_keys_with_the_prefix(
            prefix in prop::collection::vec(prop_oneof![0xFDu8..=0xFF, any::<u8>()], 0..4),
            key in prop::collection::vec(prop_oneof![0xFDu8..=0xFF, any::<u8>()], 0..6),
        ) {
            let in_range = key.as_slice() >= prefix.as_slice()
                && match prefix_end(&prefix) {
                    Bound::Excluded(end) => key < end,
                    _ => true,
                };
            prop_assert_eq!(in_range, key.starts_with(&prefix), "{:?} {:?}", prefix, key);
        }

        /// Batches applied in order leave what a plain map holds; every
        /// read call answers what the map answers, for prefixes drawn
        /// near `0xFF` too.
        #[test]
        fn the_image_agrees_with_a_model_map(
            batches in prop::collection::vec(
                prop::collection::vec(
                    (prop::collection::vec(prop_oneof![0xFEu8..=0xFF, 0u8..3], 1..3),
                     prop::option::of(any::<u8>())),
                    0..6,
                ),
                1..16,
            ),
            prefix in prop::collection::vec(prop_oneof![0xFEu8..=0xFF, 0u8..3], 0..3),
        ) {
            let image = Image::default();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for batch in &batches {
                let ops: Vec<WriteOp> = batch
                    .iter()
                    .map(|(key, value)| WriteOp { key: key.clone(), value: value.map(|v| vec![v]) })
                    .collect();
                for op in &ops {
                    match &op.value {
                        Some(v) => model.insert(op.key.clone(), v.clone()),
                        None => model.remove(&op.key),
                    };
                }
                prop_assert_eq!(image.apply(ops), batch.len());
                prop_assert_eq!(image.len(), model.len());
            }
            let expected: Vec<_> = model
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(image.scan_prefix(&prefix), expected);
            let keys: Vec<&[u8]> = batches.iter().flatten().map(|(k, _)| k.as_slice()).collect();
            let model_reads: Vec<_> = keys.iter().map(|k| model.get(*k).cloned()).collect();
            prop_assert_eq!(image.get_many(&keys), model_reads);
        }
    }
}
