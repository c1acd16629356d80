//! Versioned tables: typed key→row storage with version chains.

use crate::oracle::Timestamp;
use crate::tx::{Tx, TxId};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// One version of a row. `data == None` is a deletion tombstone.
#[derive(Debug, Clone)]
struct Version<R> {
    ts: Timestamp,
    data: Option<R>,
}

/// Type-erased interface the [`crate::tx::TxManager`] drives at commit,
/// abort and GC time.
pub(crate) trait TableCore: Send + Sync {
    /// First-committer-wins (+ read-set for serializable) validation.
    fn validate(&self, tx: TxId, snapshot: Timestamp, serializable: bool) -> Result<(), String>;
    /// Installs the transaction's buffered writes at `commit_ts`.
    fn install(&self, tx: TxId, commit_ts: Timestamp) -> usize;
    /// Drops any buffered state for the transaction.
    fn discard(&self, tx: TxId);
    /// Collects superseded versions older than `horizon`; returns how many
    /// versions were dropped.
    fn gc(&self, horizon: Timestamp) -> usize;
}

/// A typed, versioned table.
///
/// Reads/writes go through a [`Tx`] handle obtained from the
/// [`crate::tx::TxManager`]; writes are buffered per transaction and only
/// become visible after a successful commit. Scans observe the
/// transaction's snapshot — this is what makes the Seller Dashboard's two
/// queries mutually consistent when issued inside one transaction.
pub struct Table<K: Ord + Clone, R: Clone> {
    name: String,
    rows: RwLock<BTreeMap<K, Vec<Version<R>>>>,
    /// Buffered writes per open transaction.
    pending: Mutex<HashMap<TxId, BTreeMap<K, Option<R>>>>,
    /// Keys read per open serializable transaction.
    read_sets: Mutex<HashMap<TxId, BTreeSet<K>>>,
}

impl<K: Ord + Clone + Send + Sync + 'static, R: Clone + Send + Sync + 'static> Table<K, R> {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            rows: RwLock::new(BTreeMap::new()),
            pending: Mutex::new(HashMap::new()),
            read_sets: Mutex::new(HashMap::new()),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    fn visible(versions: &[Version<R>], snapshot: Timestamp) -> Option<&Version<R>> {
        versions.iter().rev().find(|v| v.ts <= snapshot)
    }

    fn track_read(&self, tx: &Tx, key: &K) {
        if tx.is_serializable() {
            self.read_sets
                .lock()
                .entry(tx.id())
                .or_default()
                .insert(key.clone());
        }
    }

    /// Reads `key` as of the transaction's snapshot, observing the
    /// transaction's own uncommitted writes first.
    pub fn get(&self, tx: &Tx, key: &K) -> Option<R> {
        self.track_read(tx, key);
        if let Some(writes) = self.pending.lock().get(&tx.id()) {
            if let Some(own) = writes.get(key) {
                return own.clone();
            }
        }
        let rows = self.rows.read();
        rows.get(key)
            .and_then(|chain| Self::visible(chain, tx.snapshot()))
            .and_then(|v| v.data.clone())
    }

    /// Buffers an insert/update of `key`.
    pub fn put(&self, tx: &Tx, key: K, row: R) {
        tx.assert_open();
        self.pending
            .lock()
            .entry(tx.id())
            .or_default()
            .insert(key, Some(row));
    }

    /// Buffers a deletion of `key`.
    pub fn delete(&self, tx: &Tx, key: K) {
        tx.assert_open();
        self.pending
            .lock()
            .entry(tx.id())
            .or_default()
            .insert(key, None);
    }

    /// Snapshot scan over a key range, yielding live rows that satisfy
    /// `pred`. The transaction's own writes shadow committed rows. `pred`
    /// sees the row by reference: only rows it accepts are cloned.
    pub fn scan_filter<B, F>(&self, tx: &Tx, range: B, mut pred: F) -> Vec<(K, R)>
    where
        B: RangeBounds<K>,
        F: FnMut(&K, &R) -> bool,
    {
        let own = self.pending.lock().get(&tx.id()).cloned();
        let rows = self.rows.read();
        let mut out = Vec::new();
        for (k, chain) in rows.range((range.start_bound(), range.end_bound())) {
            let effective = match own.as_ref().and_then(|writes| writes.get(k)) {
                Some(own_write) => own_write.as_ref(),
                None => Self::visible(chain, tx.snapshot()).and_then(|v| v.data.as_ref()),
            };
            if let Some(r) = effective {
                if pred(k, r) {
                    self.track_read(tx, k);
                    out.push((k.clone(), r.clone()));
                }
            }
        }
        // Own inserts on keys never committed are missed by rows.range();
        // add the ones inside the range here and restore key order.
        let committed = out.len();
        for (k, v) in own.into_iter().flatten() {
            if range.contains(&k) && !rows.contains_key(&k) {
                if let Some(r) = v {
                    if pred(&k, &r) {
                        out.push((k, r));
                    }
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
        self.scan_filter(tx, .., pred)
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

/// The key range holding exactly the keys that start with `prefix`, for
/// [`Table::scan_filter`]: a prefix scan over it costs the rows it
/// returns, however many keys sort after the prefix. The range ends
/// before the prefix's successor — trailing `0xFF` bytes dropped, the
/// last remaining byte incremented — and is unbounded only when no such
/// successor exists (empty or all-`0xFF` prefix).
pub fn prefix_range(prefix: &[u8]) -> (Bound<Vec<u8>>, Bound<Vec<u8>>) {
    let end = match prefix.iter().rposition(|&b| b != 0xFF) {
        Some(last) => {
            let mut successor = prefix[..=last].to_vec();
            successor[last] += 1;
            Bound::Excluded(successor)
        }
        None => Bound::Unbounded,
    };
    (Bound::Included(prefix.to_vec()), end)
}

impl<K: Ord + Clone + Send + Sync + 'static, R: Clone + Send + Sync + 'static> TableCore
    for Table<K, R>
{
    fn validate(&self, tx: TxId, snapshot: Timestamp, serializable: bool) -> Result<(), String> {
        let pending = self.pending.lock();
        let rows = self.rows.read();
        if let Some(writes) = pending.get(&tx) {
            for key in writes.keys() {
                if let Some(chain) = rows.get(key) {
                    if let Some(newest) = chain.last() {
                        if newest.ts > snapshot {
                            return Err(format!(
                                "write-write conflict in {} (version {} > snapshot {})",
                                self.name, newest.ts, snapshot
                            ));
                        }
                    }
                }
            }
        }
        if serializable {
            if let Some(reads) = self.read_sets.lock().get(&tx) {
                for key in reads {
                    if let Some(chain) = rows.get(key) {
                        if let Some(newest) = chain.last() {
                            if newest.ts > snapshot {
                                return Err(format!(
                                    "read-write conflict in {} (version {} > snapshot {})",
                                    self.name, newest.ts, snapshot
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn install(&self, tx: TxId, commit_ts: Timestamp) -> usize {
        let writes = match self.pending.lock().remove(&tx) {
            Some(w) => w,
            None => {
                self.read_sets.lock().remove(&tx);
                return 0;
            }
        };
        self.read_sets.lock().remove(&tx);
        let count = writes.len();
        let mut rows = self.rows.write();
        for (key, data) in writes {
            rows.entry(key)
                .or_default()
                .push(Version { ts: commit_ts, data });
        }
        count
    }

    fn discard(&self, tx: TxId) {
        self.pending.lock().remove(&tx);
        self.read_sets.lock().remove(&tx);
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
        let end = |p: &[u8]| prefix_range(p).1;
        assert_eq!(end(b"ab"), Bound::Excluded(b"ac".to_vec()));
        assert_eq!(end(&[b'a', 0xFF]), Bound::Excluded(vec![b'b']));
        assert_eq!(end(&[b'a', 0xFF, 0xFF]), Bound::Excluded(vec![b'b']));
        assert_eq!(end(&[]), Bound::Unbounded);
        assert_eq!(end(&[0xFF, 0xFF]), Bound::Unbounded);
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
}
