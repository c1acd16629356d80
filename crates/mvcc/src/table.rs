//! Versioned tables: typed key→row storage with version chains.

use crate::oracle::Timestamp;
use crate::tx::{TableFootprint, Tx};
use parking_lot::RwLock;
use std::any::Any;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// One version of a row. `data == None` is a deletion tombstone.
#[derive(Debug, Clone)]
struct Version<R> {
    ts: Timestamp,
    data: Option<R>,
}

/// Type-erased interface the [`crate::tx::TxManager`] drives at commit and
/// GC time. A commit hands each table the footprint the transaction left
/// in it, and only those tables.
pub(crate) trait TableCore: Send + Sync {
    /// First-committer-wins validation of the footprint's writes, plus its
    /// reads when the transaction is serializable.
    fn validate(
        &self,
        footprint: &(dyn Any + Send + Sync),
        snapshot: Timestamp,
    ) -> Result<(), String>;
    /// Installs the footprint's writes at `commit_ts`; returns how many.
    fn install(&self, footprint: TableFootprint, commit_ts: Timestamp) -> usize;
    /// Collects superseded versions older than `horizon`; returns how many
    /// versions were dropped.
    fn gc(&self, horizon: Timestamp) -> usize;
}

/// What one transaction did in one table, held by the [`Tx`] until it
/// commits or drops.
struct Footprint<K, R> {
    /// Buffered writes; `None` is a delete.
    writes: BTreeMap<K, Option<R>>,
    /// Keys read; recorded only by serializable transactions.
    reads: BTreeSet<K>,
}

impl<K, R> Default for Footprint<K, R> {
    fn default() -> Self {
        Self {
            writes: BTreeMap::new(),
            reads: BTreeSet::new(),
        }
    }
}

/// A typed, versioned table.
///
/// Reads/writes go through a [`Tx`] handle obtained from the
/// [`crate::tx::TxManager`]; writes are buffered in the transaction and
/// only become visible after a successful commit. Scans observe the
/// transaction's snapshot — this is what makes the Seller Dashboard's two
/// queries mutually consistent when issued inside one transaction.
pub struct Table<K: Ord + Clone, R: Clone> {
    /// Registry index: a transaction keys its footprint here by it.
    index: usize,
    name: String,
    rows: RwLock<BTreeMap<K, Vec<Version<R>>>>,
}

impl<K: Ord + Clone + Send + Sync + 'static, R: Clone + Send + Sync + 'static> Table<K, R> {
    pub(crate) fn new(index: usize, name: impl Into<String>) -> Self {
        Self {
            index,
            name: name.into(),
            rows: RwLock::new(BTreeMap::new()),
        }
    }

    /// The name the table was created with.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn visible(versions: &[Version<R>], snapshot: Timestamp) -> Option<&Version<R>> {
        versions.iter().rev().find(|v| v.ts <= snapshot)
    }

    /// Reads `key` as of the transaction's snapshot, observing the
    /// transaction's own uncommitted writes first.
    pub fn get<Q>(&self, tx: &Tx, key: &Q) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        let own = if tx.is_serializable() {
            tx.touch(self.index, |fp: &mut Footprint<K, R>| {
                if !fp.reads.contains(key) {
                    fp.reads.insert(key.to_owned());
                }
                fp.writes.get(key).cloned()
            })
        } else {
            tx.footprint(self.index, |fp: Option<&mut Footprint<K, R>>| {
                fp?.writes.get(key).cloned()
            })
        };
        if let Some(own) = own {
            return own;
        }
        let rows = self.rows.read();
        rows.get(key)
            .and_then(|chain| Self::visible(chain, tx.snapshot()))
            .and_then(|v| v.data.clone())
    }

    /// Buffers an insert/update of `key`.
    pub fn put(&self, tx: &Tx, key: K, row: R) {
        self.write(tx, key, Some(row));
    }

    /// Buffers a deletion of `key`.
    pub fn delete(&self, tx: &Tx, key: K) {
        self.write(tx, key, None);
    }

    fn write(&self, tx: &Tx, key: K, data: Option<R>) {
        tx.assert_open();
        tx.touch(self.index, |fp: &mut Footprint<K, R>| {
            fp.writes.insert(key, data);
        });
    }

    /// Snapshot scan over a key range, yielding live rows that satisfy
    /// `pred`. The transaction's own writes shadow committed rows. `pred`
    /// sees the row by reference: only rows it accepts are cloned. The
    /// range may be over a borrowed form of the key (`[u8]` for
    /// `Vec<u8>`).
    pub fn scan_filter<Q, B, F>(&self, tx: &Tx, range: B, mut pred: F) -> Vec<(K, R)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        B: RangeBounds<Q>,
        F: FnMut(&K, &R) -> bool,
    {
        let bounds = (range.start_bound(), range.end_bound());
        // Copied out so `pred` runs with the transaction unlocked.
        let own: BTreeMap<K, Option<R>> =
            tx.footprint(self.index, |fp: Option<&mut Footprint<K, R>>| {
                fp.map(|fp| {
                    fp.writes
                        .range(bounds)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect()
                })
                .unwrap_or_default()
            });
        let rows = self.rows.read();
        let mut out = Vec::new();
        for (k, chain) in rows.range(bounds) {
            let effective = match own.get::<K>(k) {
                Some(own_write) => own_write.as_ref(),
                None => Self::visible(chain, tx.snapshot()).and_then(|v| v.data.as_ref()),
            };
            if let Some(r) = effective {
                if pred(k, r) {
                    out.push((k.clone(), r.clone()));
                }
            }
        }
        let committed = out.len();
        if tx.is_serializable() && committed > 0 {
            tx.touch(self.index, |fp: &mut Footprint<K, R>| {
                fp.reads.extend(out.iter().map(|(k, _)| k.clone()));
            });
        }
        // Own inserts on keys never committed are missed by rows.range();
        // add them here and restore key order.
        for (k, v) in own {
            if let Some(r) = v {
                if !rows.contains_key::<K>(&k) && pred(&k, &r) {
                    out.push((k, r));
                }
            }
        }
        if out.len() > committed {
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }

    /// Full-table snapshot scan with a predicate.
    pub fn scan<F: FnMut(&K, &R) -> bool>(&self, tx: &Tx, pred: F) -> Vec<(K, R)> {
        self.scan_filter::<K, _, _>(tx, .., pred)
    }

    /// Number of live rows at the given transaction's snapshot.
    pub fn count(&self, tx: &Tx) -> usize {
        self.scan(tx, |_, _| true).len()
    }

    /// Number of distinct keys with any version (diagnostics; includes
    /// tombstoned keys until GC removes them).
    pub fn version_chain_count(&self) -> usize {
        self.rows.read().len()
    }

    /// Total number of stored versions (diagnostics / GC tests).
    pub fn total_versions(&self) -> usize {
        self.rows.read().values().map(|c| c.len()).sum()
    }
}

/// The key range holding exactly the keys that start with a prefix, for
/// [`Table::scan_filter`] over `Vec<u8>` keys; see [`prefix_range`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixRange<'a> {
    prefix: &'a [u8],
    /// The first key after every key with the prefix; `None` when no such
    /// key exists (empty or all-`0xFF` prefix).
    successor: Option<Vec<u8>>,
}

impl RangeBounds<[u8]> for PrefixRange<'_> {
    fn start_bound(&self) -> Bound<&[u8]> {
        Bound::Included(self.prefix)
    }

    fn end_bound(&self) -> Bound<&[u8]> {
        match &self.successor {
            Some(successor) => Bound::Excluded(successor),
            None => Bound::Unbounded,
        }
    }
}

/// The key range holding exactly the keys that start with `prefix`, for
/// [`Table::scan_filter`]: a prefix scan over it costs the rows it
/// returns, however many keys sort after the prefix. The range borrows
/// `prefix` as its start and ends before the prefix's successor —
/// trailing `0xFF` bytes dropped, the last remaining byte incremented —
/// and is unbounded only when no such successor exists (empty or
/// all-`0xFF` prefix).
pub fn prefix_range(prefix: &[u8]) -> PrefixRange<'_> {
    let successor = prefix.iter().rposition(|&b| b != 0xFF).map(|last| {
        let mut successor = prefix[..=last].to_vec();
        successor[last] += 1;
        successor
    });
    PrefixRange { prefix, successor }
}

impl<K: Ord + Clone + Send + Sync + 'static, R: Clone + Send + Sync + 'static> TableCore
    for Table<K, R>
{
    fn validate(
        &self,
        footprint: &(dyn Any + Send + Sync),
        snapshot: Timestamp,
    ) -> Result<(), String> {
        let fp: &Footprint<K, R> = footprint
            .downcast_ref()
            .expect("a table validates only the footprint it made");
        let rows = self.rows.read();
        let newer = |key: &K| {
            rows.get(key)
                .and_then(|chain| chain.last())
                .map(|newest| newest.ts)
                .filter(|&ts| ts > snapshot)
        };
        if let Some(ts) = fp.writes.keys().find_map(newer) {
            return Err(format!(
                "write-write conflict in {} (version {ts} > snapshot {snapshot})",
                self.name
            ));
        }
        if let Some(ts) = fp.reads.iter().find_map(newer) {
            return Err(format!(
                "read-write conflict in {} (version {ts} > snapshot {snapshot})",
                self.name
            ));
        }
        Ok(())
    }

    fn install(&self, footprint: TableFootprint, commit_ts: Timestamp) -> usize {
        let fp = footprint
            .downcast::<Footprint<K, R>>()
            .expect("a table installs only the footprint it made");
        let count = fp.writes.len();
        if count > 0 {
            let mut rows = self.rows.write();
            for (key, data) in fp.writes {
                rows.entry(key)
                    .or_default()
                    .push(Version { ts: commit_ts, data });
            }
        }
        count
    }

    fn gc(&self, horizon: Timestamp) -> usize {
        let mut rows = self.rows.write();
        let mut dropped = 0;
        rows.retain(|_, chain| {
            // Keep the newest version visible at `horizon` and everything
            // newer; drop older superseded versions.
            if let Some(keep_idx) = chain.iter().rposition(|v| v.ts <= horizon) {
                dropped += keep_idx;
                chain.drain(..keep_idx);
            }
            // A chain that is a lone tombstone at/below the horizon can go
            // entirely: every current and future snapshot sees "absent".
            if chain.len() == 1 && chain[0].data.is_none() && chain[0].ts <= horizon {
                dropped += 1;
                false
            } else {
                true
            }
        });
        dropped
    }
}

/// Type-erased handle used by the manager's registry.
pub(crate) type DynTable = Arc<dyn TableCore>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{IsolationLevel, TxManager};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A row that counts how often it is cloned.
    struct Counted(Arc<AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, Ordering::Relaxed);
            Counted(self.0.clone())
        }
    }

    #[test]
    fn prefix_range_ends_at_the_successor() {
        let end = |p: &[u8]| prefix_range(p).end_bound().map(<[u8]>::to_vec);
        assert_eq!(end(b"ab"), Bound::Excluded(b"ac".to_vec()));
        assert_eq!(end(&[b'a', 0xFF]), Bound::Excluded(vec![b'b']));
        assert_eq!(end(&[b'a', 0xFF, 0xFF]), Bound::Excluded(vec![b'b']));
        assert_eq!(end(&[]), Bound::Unbounded);
        assert_eq!(end(&[0xFF, 0xFF]), Bound::Unbounded);
        assert_eq!(
            prefix_range(b"ab").start_bound(),
            Bound::Included(&b"ab"[..])
        );
    }

    #[test]
    fn prefix_scan_costs_the_rows_it_returns() {
        let mgr = TxManager::new();
        let t = mgr.create_table::<Vec<u8>, Counted>("t");
        let clones = Arc::new(AtomicUsize::new(0));
        mgr.run(IsolationLevel::Snapshot, 0, |tx| {
            for i in 0..10_100u32 {
                let group: &[u8] = if i < 100 { b"a/" } else { b"b/" };
                let key = [group, &i.to_be_bytes()[..]].concat();
                t.put(tx, key, Counted(clones.clone()));
            }
            Ok(())
        })
        .unwrap();

        let tx = mgr.begin(IsolationLevel::Snapshot);
        clones.store(0, Ordering::Relaxed);
        let rows = t.scan_filter(&tx, prefix_range(b"a/"), |_, _| true);
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|(k, _)| k.starts_with(b"a/")));
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "key order");
        assert_eq!(
            clones.load(Ordering::Relaxed),
            100,
            "one clone per returned row"
        );

        let mut visited = 0;
        t.scan_filter(&tx, prefix_range(b"a/"), |_, _| {
            visited += 1;
            false
        });
        assert!(visited <= 101, "visited {visited} rows for 100 matches");
        assert_eq!(
            clones.load(Ordering::Relaxed),
            100,
            "a rejected row is not cloned"
        );
    }

    #[test]
    fn a_read_only_snapshot_leaves_no_footprint() {
        let mgr = TxManager::new();
        let t = mgr.create_table::<Vec<u8>, u32>("t");
        mgr.run(IsolationLevel::Snapshot, 0, |tx| {
            t.put(tx, b"a/1".to_vec(), 1);
            Ok(())
        })
        .unwrap();
        let tx = mgr.begin(IsolationLevel::Snapshot);
        assert_eq!(t.get(&tx, &b"a/1"[..]), Some(1));
        assert_eq!(
            t.scan_filter(&tx, prefix_range(b"a/"), |_, _| true).len(),
            1
        );
        type Bytes = Footprint<Vec<u8>, u32>;
        assert!(
            tx.footprint(t.index, |fp: Option<&mut Bytes>| fp.is_none()),
            "a snapshot read touches no table's write state"
        );
        let serializable = mgr.begin(IsolationLevel::Serializable);
        assert_eq!(t.get(&serializable, &b"a/2"[..]), None);
        assert!(
            serializable.footprint(t.index, |fp: Option<&mut Bytes>| {
                fp.is_some_and(|fp| fp.writes.is_empty() && fp.reads.len() == 1)
            }),
            "a serializable read records its key, even an absent one"
        );
    }
}
