//! Multi-version rows for [`SnapshotBackend`](crate::SnapshotBackend): the
//! shards holding each key's version chain, the timestamp oracle that
//! orders commits and registers the snapshots reading them, and the key
//! range of a prefix scan.

use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// A commit timestamp. `0` is "before every commit".
pub(crate) type Timestamp = u64;

/// One version of a row. `data == None` is a deletion tombstone.
struct Version {
    ts: Timestamp,
    data: Option<Vec<u8>>,
}

/// One shard: every key's versions, oldest first.
#[derive(Default)]
pub(crate) struct Shard {
    rows: RwLock<BTreeMap<Vec<u8>, Vec<Version>>>,
}

/// The row a snapshot at `ts` sees in `chain`: its newest version at or
/// below `ts`, absent if that is a tombstone.
fn visible(chain: &[Version], ts: Timestamp) -> Option<&Vec<u8>> {
    chain
        .iter()
        .rev()
        .find(|v| v.ts <= ts)
        .and_then(|v| v.data.as_ref())
}

impl Shard {
    pub(crate) fn get(&self, key: &[u8], ts: Timestamp) -> Option<Vec<u8>> {
        self.rows
            .read()
            .get(key)
            .and_then(|chain| visible(chain, ts).cloned())
    }

    /// Appends the live rows in `range` at `ts` to `out`, in key order.
    pub(crate) fn scan(
        &self,
        range: (Bound<&[u8]>, Bound<&[u8]>),
        ts: Timestamp,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) {
        let rows = self.rows.read();
        out.extend(
            rows.range::<[u8], _>(range)
                .filter_map(|(k, chain)| Some((k.clone(), visible(chain, ts)?.clone()))),
        );
    }

    /// Number of live rows at `ts`.
    pub(crate) fn live(&self, ts: Timestamp) -> usize {
        let rows = self.rows.read();
        rows.values().filter(|c| visible(c, ts).is_some()).count()
    }

    /// Appends a version of `key` at `ts`, newer than every version the
    /// chain holds.
    pub(crate) fn install(&self, key: Vec<u8>, data: Option<Vec<u8>>, ts: Timestamp) {
        self.rows
            .write()
            .entry(key)
            .or_default()
            .push(Version { ts, data });
    }

    /// Drops the versions no snapshot at or after `horizon` can see;
    /// returns how many.
    pub(crate) fn gc(&self, horizon: Timestamp) -> usize {
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

    #[cfg(test)]
    pub(crate) fn versions(&self) -> usize {
        self.rows.read().values().map(Vec::len).sum()
    }
}

/// Orders commits and tracks the snapshots reading them, so garbage
/// collection knows which versions a reader may still need.
#[derive(Default)]
pub(crate) struct TsOracle {
    /// Held while a commit installs its versions.
    commit: Mutex<()>,
    /// The newest published commit timestamp.
    last_commit: AtomicU64,
    /// Open snapshots: timestamp -> how many.
    active: Mutex<BTreeMap<Timestamp, usize>>,
}

impl TsOracle {
    /// Runs `install` under the commit lock with the next commit
    /// timestamp, then publishes it: a snapshot sees all of what
    /// `install` wrote or none of it.
    pub(crate) fn commit<T>(&self, install: impl FnOnce(Timestamp) -> T) -> T {
        let _commit = self.commit.lock();
        let ts = self.last_commit.load(Ordering::SeqCst) + 1;
        let out = install(ts);
        self.last_commit.store(ts, Ordering::SeqCst);
        out
    }

    /// A snapshot at the newest published commit, registered until it
    /// drops.
    pub(crate) fn snapshot(&self) -> Snapshot<'_> {
        // Registered under the lock that `gc_horizon` reads, with the
        // timestamp read inside it: a commit published between the read
        // and the registration could otherwise let GC collect a version
        // the snapshot needs.
        let mut active = self.active.lock();
        let ts = self.last_commit.load(Ordering::SeqCst);
        *active.entry(ts).or_insert(0) += 1;
        Snapshot { oracle: self, ts }
    }

    /// The oldest open snapshot, or the newest commit if none is open:
    /// superseded versions older than it are safe to collect.
    pub(crate) fn gc_horizon(&self) -> Timestamp {
        let active = self.active.lock();
        active
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.last_commit.load(Ordering::SeqCst))
    }
}

/// A registered read timestamp: the versions it sees outlive GC until it
/// drops.
pub(crate) struct Snapshot<'a> {
    oracle: &'a TsOracle,
    pub(crate) ts: Timestamp,
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        let mut active = self.oracle.active.lock();
        if let Some(count) = active.get_mut(&self.ts) {
            *count -= 1;
            if *count == 0 {
                active.remove(&self.ts);
            }
        }
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

    fn commit(oracle: &TsOracle, shard: &Shard, key: &[u8], data: Option<&[u8]>) -> Timestamp {
        oracle.commit(|ts| {
            shard.install(key.to_vec(), data.map(<[u8]>::to_vec), ts);
            ts
        })
    }

    fn open(oracle: &TsOracle) -> usize {
        oracle.active.lock().values().sum()
    }

    #[test]
    fn snapshots_track_the_last_published_commit() {
        let o = TsOracle::default();
        let s0 = o.snapshot();
        assert_eq!(s0.ts, 0);
        assert_eq!(o.commit(|ts| ts), 1);
        let s1 = o.snapshot();
        assert_eq!(s1.ts, 1);
        assert_eq!(o.commit(|ts| ts), 2, "commits are numbered in order");
    }

    #[test]
    fn gc_horizon_is_the_oldest_open_snapshot() {
        let o = TsOracle::default();
        o.commit(|_| ());
        let s1 = o.snapshot();
        o.commit(|_| ());
        let s2 = o.snapshot();
        assert_eq!(o.gc_horizon(), 1);
        drop(s1);
        assert_eq!(o.gc_horizon(), 2);
        drop(s2);
        o.commit(|_| ());
        assert_eq!(o.gc_horizon(), 3, "falls back to the last commit");
    }

    #[test]
    fn snapshots_at_one_timestamp_are_reference_counted() {
        let o = TsOracle::default();
        o.commit(|_| ());
        let a = o.snapshot();
        let b = o.snapshot();
        assert_eq!((a.ts, b.ts, open(&o)), (1, 1, 2));
        o.commit(|_| ());
        drop(a);
        assert_eq!((o.gc_horizon(), open(&o)), (1, 1), "b still pins 1");
        drop(b);
        assert_eq!((o.gc_horizon(), open(&o)), (2, 0));
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
        let (o, shard) = (TsOracle::default(), Shard::default());
        for i in 0..300u32 {
            let group: &[u8] = if i % 3 == 0 { b"a/" } else { b"b/" };
            commit(
                &o,
                &shard,
                &[group, &i.to_be_bytes()[..]].concat(),
                Some(b"v"),
            );
        }
        commit(&o, &shard, &[b'a', 0xFF], Some(b"after the prefix"));
        let end = prefix_end(b"a/");
        let mut out = Vec::new();
        let range = (Bound::Included(&b"a/"[..]), end.as_ref().map(Vec::as_slice));
        shard.scan(range, o.snapshot().ts, &mut out);
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|(k, _)| k.starts_with(b"a/")));
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "key order");
    }

    #[test]
    fn gc_keeps_what_an_open_snapshot_sees() {
        let (o, shard) = (TsOracle::default(), Shard::default());
        for i in 0..50u8 {
            commit(&o, &shard, b"k", Some(&[i]));
        }
        let reader = o.snapshot();
        for i in 50..60u8 {
            commit(&o, &shard, b"k", Some(&[i]));
        }
        assert_eq!(shard.gc(o.gc_horizon()), 49, "versions below the reader's");
        assert_eq!(shard.get(b"k", reader.ts), Some(vec![49]));
        drop(reader);
        shard.gc(o.gc_horizon());
        assert_eq!(shard.versions(), 1, "only the newest version remains");
        assert_eq!(shard.get(b"k", o.snapshot().ts), Some(vec![59]));
    }

    #[test]
    fn gc_removes_a_tombstoned_key() {
        let (o, shard) = (TsOracle::default(), Shard::default());
        commit(&o, &shard, b"k", Some(b"v"));
        let reader = o.snapshot();
        commit(&o, &shard, b"k", None);
        assert_eq!(shard.gc(o.gc_horizon()), 0);
        assert_eq!(shard.get(b"k", reader.ts), Some(b"v".to_vec()));
        drop(reader);
        assert_eq!(shard.gc(o.gc_horizon()), 2);
        assert_eq!(shard.versions(), 0, "tombstoned chain collected");
    }

    #[test]
    fn an_installing_commit_is_invisible_until_published() {
        let (o, shard) = (TsOracle::default(), Shard::default());
        commit(&o, &shard, b"k", Some(b"old"));
        o.commit(|ts| {
            shard.install(b"k".to_vec(), Some(b"new".to_vec()), ts);
            shard.install(b"j".to_vec(), Some(b"new".to_vec()), ts);
            // A reader arriving mid-install reads at the last published
            // commit, below every version being installed.
            let reader = o.snapshot();
            assert_eq!(reader.ts, ts - 1);
            assert_eq!(shard.get(b"k", reader.ts), Some(b"old".to_vec()));
            assert_eq!(shard.get(b"j", reader.ts), None);
            assert_eq!(shard.live(reader.ts), 1);
        });
        let after = o.snapshot();
        assert_eq!(shard.get(b"k", after.ts), Some(b"new".to_vec()));
        assert_eq!(shard.get(b"j", after.ts), Some(b"new".to_vec()));
    }

    #[test]
    fn concurrent_commits_get_distinct_published_timestamps() {
        let o = TsOracle::default();
        let mut drawn: Vec<Timestamp> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..100)
                            .map(|_| {
                                let ts = o.commit(|ts| ts);
                                // Published before `commit` returns.
                                assert!(o.snapshot().ts >= ts);
                                ts
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        drawn.sort_unstable();
        assert_eq!(drawn, (1..=400).collect::<Vec<_>>());
        assert_eq!(o.snapshot().ts, 400);
    }

    #[test]
    fn a_tombstone_hides_older_versions_until_the_key_is_put_again() {
        let (o, shard) = (TsOracle::default(), Shard::default());
        commit(&o, &shard, b"k", Some(b"1"));
        commit(&o, &shard, b"k", None);
        commit(&o, &shard, b"k", Some(b"3"));
        let seen: Vec<_> = (0..=3).map(|ts| shard.get(b"k", ts)).collect();
        assert_eq!(seen, [None, Some(b"1".to_vec()), None, Some(b"3".to_vec())]);
        let live: Vec<_> = (0..=3).map(|ts| shard.live(ts)).collect();
        assert_eq!(live, [0, 1, 0, 1]);
    }

    #[test]
    fn a_scan_skips_tombstones_and_rows_newer_than_its_snapshot() {
        let (o, shard) = (TsOracle::default(), Shard::default());
        commit(&o, &shard, b"a", Some(b"1"));
        commit(&o, &shard, b"b", Some(b"1"));
        let ts = commit(&o, &shard, b"a", None);
        commit(&o, &shard, b"c", Some(b"later"));
        let mut out = Vec::new();
        shard.scan((Bound::Unbounded, Bound::Unbounded), ts, &mut out);
        assert_eq!(out, [(b"b".to_vec(), b"1".to_vec())]);
    }

    #[test]
    fn gc_keeps_every_version_an_open_snapshot_may_read() {
        let (o, shard) = (TsOracle::default(), Shard::default());
        commit(&o, &shard, b"k", Some(&[1]));
        let oldest = o.snapshot();
        commit(&o, &shard, b"k", Some(&[2]));
        let middle = o.snapshot();
        commit(&o, &shard, b"k", Some(&[3]));
        assert_eq!(shard.gc(o.gc_horizon()), 0, "the oldest reader pins 1");
        assert_eq!(shard.get(b"k", oldest.ts), Some(vec![1]));
        assert_eq!(shard.get(b"k", middle.ts), Some(vec![2]));
        drop(oldest);
        assert_eq!(shard.gc(o.gc_horizon()), 1);
        assert_eq!(shard.get(b"k", middle.ts), Some(vec![2]));
        assert_eq!(shard.gc(o.gc_horizon()), 0, "a second pass finds nothing");
        drop(middle);
        assert_eq!(shard.gc(o.gc_horizon()), 1);
        assert_eq!(shard.versions(), 1);
    }

    #[test]
    fn gc_keeps_a_tombstone_newer_than_the_horizon() {
        let (o, shard) = (TsOracle::default(), Shard::default());
        commit(&o, &shard, b"other", Some(b"v"));
        let reader = o.snapshot();
        commit(&o, &shard, b"never-put", None);
        commit(&o, &shard, b"k", Some(b"v"));
        commit(&o, &shard, b"k", None);
        assert_eq!(shard.gc(o.gc_horizon()), 0);
        assert_eq!(shard.versions(), 4);
        drop(reader);
        assert_eq!(shard.gc(o.gc_horizon()), 3, "both tombstoned chains go");
        assert_eq!(shard.versions(), 1);
    }

    /// A snapshot registered while commits and garbage collection run
    /// always finds the version it reads: registration and the horizon
    /// share one lock.
    #[test]
    fn a_snapshot_racing_gc_always_finds_its_version() {
        let (o, shard) = (TsOracle::default(), Shard::default());
        commit(&o, &shard, b"k", Some(&0u32.to_le_bytes()));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 1..=2_000u32 {
                    commit(&o, &shard, b"k", Some(&i.to_le_bytes()));
                    shard.gc(o.gc_horizon());
                }
                stop.store(true, Ordering::Relaxed);
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let reader = o.snapshot();
                        let seen = shard
                            .get(b"k", reader.ts)
                            .expect("GC took the reader's version");
                        assert_eq!(
                            u32::from_le_bytes(seen.try_into().unwrap()) as u64,
                            reader.ts - 1
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn snapshots_opened_and_dropped_concurrently_are_all_released() {
        let o = TsOracle::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..500 {
                    o.commit(|_| ());
                }
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        let a = o.snapshot();
                        let b = o.snapshot();
                        assert!(o.gc_horizon() <= a.ts.min(b.ts));
                    }
                });
            }
        });
        assert_eq!(open(&o), 0);
        assert_eq!(o.gc_horizon(), 500, "no snapshot left pinning");
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
    }
}
