//! The sharded in-memory store used for both primary and secondary replicas.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A value together with its per-key write sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedValue<V> {
    /// The payload. `None` is a tombstone (deleted key kept so a stale
    /// replicated write cannot resurrect it).
    pub value: Option<V>,
    /// Monotonic per-key write counter assigned by the primary; later
    /// writes to the same key have larger numbers.
    pub key_seq: u64,
}

impl<V> VersionedValue<V> {
    /// Whether this version records a delete.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }
}

/// A sharded hash map guarded by per-shard `RwLock`s.
///
/// Sharding bounds lock contention under the write-heavy price-update storm
/// workloads; reads take a shared lock on a single shard. The shard count
/// is rounded up to a power of two so routing is a hash-and-mask rather
/// than a division.
#[derive(Debug)]
pub struct Store<K, V> {
    shards: Vec<RwLock<HashMap<K, VersionedValue<V>>>>,
    /// `shards.len() - 1`; valid because the length is a power of two.
    mask: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Store<K, V> {
    /// Creates a store with at least `shards` independent lock domains
    /// (rounded up to the next power of two).
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0);
        let shards = shards.next_power_of_two();
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            mask: shards as u64 - 1,
        }
    }

    /// Number of shard lock domains (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() & self.mask) as usize
    }

    /// Number of live (non-tombstone) keys.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().filter(|v| !v.is_tombstone()).count())
            .sum()
    }

    /// Whether no live (non-tombstone) keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the current version of `key` (tombstones are reported).
    ///
    /// Borrow-generic so callers holding only a borrowed form of the key
    /// (`&[u8]` against a `Store<Vec<u8>, _>`) read without allocating.
    /// The usual `Borrow` contract applies: the borrowed form must hash
    /// and compare like the owned key.
    pub fn get_versioned<Q>(&self, key: &Q) -> Option<VersionedValue<V>>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[self.shard_index(key)]
            .read()
            .get(key)
            .cloned()
    }

    /// Reads the live value of `key` (`None` for absent or tombstoned).
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_versioned(key).and_then(|v| v.value)
    }

    /// Installs `value` only if it is newer (by `key_seq`) than the stored
    /// version; stale replicated writes are dropped. Returns whether the
    /// write was applied.
    pub fn put_if_newer(&self, key: K, value: VersionedValue<V>) -> bool {
        let mut shard = self.shards[self.shard_index(&key)].write();
        match shard.get(&key) {
            Some(existing) if existing.key_seq >= value.key_seq => false,
            _ => {
                shard.insert(key, value);
                true
            }
        }
    }

    /// Read-modify-write under the shard lock. `f` receives the current
    /// live value (if any) and returns the new versioned value to install.
    pub fn update<F>(&self, key: K, f: F) -> VersionedValue<V>
    where
        F: FnOnce(Option<&VersionedValue<V>>) -> VersionedValue<V>,
    {
        let mut shard = self.shards[self.shard_index(&key)].write();
        let next = f(shard.get(&key));
        shard.insert(key, next.clone());
        next
    }

    /// Snapshot of all live entries (test/diagnostic helper; takes shard
    /// read locks one at a time, so it is *not* a consistent cut).
    pub fn dump(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                if let Some(value) = &v.value {
                    out.push((k.clone(), value.clone()));
                }
            }
        }
        out
    }

    /// Applies `f` to every live entry.
    pub fn for_each<F: FnMut(&K, &V)>(&self, mut f: F) {
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                if let Some(value) = &v.value {
                    f(k, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ver(value: i32, seq: u64) -> VersionedValue<i32> {
        VersionedValue {
            value: Some(value),
            key_seq: seq,
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let s: Store<String, i32> = Store::new(4);
        assert!(s.get(&"a".to_string()).is_none());
        assert!(s.put_if_newer("a".into(), ver(1, 1)));
        assert_eq!(s.get(&"a".to_string()), Some(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tombstones_hide_values_but_keep_metadata() {
        let s: Store<String, i32> = Store::new(2);
        s.put_if_newer("a".into(), ver(1, 1));
        s.put_if_newer(
            "a".into(),
            VersionedValue {
                value: None,
                key_seq: 2,
            },
        );
        assert_eq!(s.get(&"a".to_string()), None);
        assert_eq!(s.len(), 0);
        let meta = s.get_versioned(&"a".to_string()).unwrap();
        assert!(meta.is_tombstone());
        assert_eq!(meta.key_seq, 2);
    }

    #[test]
    fn put_if_newer_drops_stale_writes() {
        let s: Store<String, i32> = Store::new(2);
        assert!(s.put_if_newer("a".into(), ver(10, 5)));
        assert!(!s.put_if_newer("a".into(), ver(9, 4)), "stale dropped");
        assert!(!s.put_if_newer("a".into(), ver(9, 5)), "equal seq dropped");
        assert_eq!(s.get(&"a".to_string()), Some(10));
        assert!(s.put_if_newer("a".into(), ver(11, 6)));
        assert_eq!(s.get(&"a".to_string()), Some(11));
    }

    #[test]
    fn update_is_atomic_read_modify_write() {
        let s: std::sync::Arc<Store<u64, u64>> = std::sync::Arc::new(Store::new(8));
        s.put_if_newer(
            1,
            VersionedValue {
                value: Some(0),
                key_seq: 0,
            },
        );
        let mut handles = vec![];
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.update(1, |cur| {
                        let cur = cur.expect("present");
                        VersionedValue {
                            value: Some(cur.value.unwrap() + 1),
                            key_seq: cur.key_seq + 1,
                        }
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.get(&1), Some(4000));
        assert_eq!(s.get_versioned(&1).unwrap().key_seq, 4000);
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        for (asked, got) in [(1, 1), (3, 4), (8, 8), (9, 16)] {
            assert_eq!(Store::<u32, u32>::new(asked).shard_count(), got);
        }
    }

    #[test]
    fn borrowed_keys_read_without_an_owned_key() {
        let s: Store<Vec<u8>, i32> = Store::new(4);
        s.put_if_newer(b"key".to_vec(), ver(7, 3));
        assert_eq!(s.get(&b"key"[..]), Some(7));
        assert_eq!(s.get_versioned(&b"key"[..]).unwrap().key_seq, 3);
        assert_eq!(s.get(&b"other"[..]), None);
    }

    #[test]
    fn update_sees_a_tombstone_so_sequences_keep_growing() {
        let s: Store<u32, i32> = Store::new(2);
        s.put_if_newer(1, ver(10, 1));
        s.put_if_newer(
            1,
            VersionedValue {
                value: None,
                key_seq: 2,
            },
        );
        let next = s.update(1, |cur| {
            let cur = cur.expect("the tombstone is visible to update");
            assert!(cur.is_tombstone());
            ver(11, cur.key_seq + 1)
        });
        assert_eq!(next.key_seq, 3);
        assert_eq!(s.get(&1), Some(11));
        assert!(!s.put_if_newer(1, ver(10, 2)), "pre-delete write stays stale");
    }

    #[test]
    fn concurrent_put_if_newer_keeps_the_highest_sequence() {
        let s: Store<u64, i32> = Store::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = &s;
                scope.spawn(move || {
                    for seq in (1..=400u64).filter(|seq| seq % 4 == t) {
                        s.put_if_newer(7, ver(seq as i32 * 10, seq));
                    }
                });
            }
        });
        assert_eq!(s.get_versioned(&7), Some(ver(4000, 400)));
    }

    #[test]
    fn dump_and_for_each_see_live_entries_only() {
        let s: Store<u32, &'static str> = Store::new(3);
        s.put_if_newer(
            1,
            VersionedValue {
                value: Some("x"),
                key_seq: 1,
            },
        );
        s.put_if_newer(
            2,
            VersionedValue {
                value: None,
                key_seq: 1,
            },
        );
        let dump = s.dump();
        assert_eq!(dump, vec![(1, "x")]);
        let mut seen = 0;
        s.for_each(|_, _| seen += 1);
        assert_eq!(seen, 1);
    }
}
