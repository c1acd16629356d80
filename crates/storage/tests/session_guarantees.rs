//! Replication and session guarantees of the eventual backend. Its
//! reorder window buffers eight records until the write that fills it
//! applies them, so with fewer unflushed writes the secondary provably
//! lags: that pins down when a session must fall back to the primary.
//! Sessions read their own writes and never see a key go backwards;
//! after `quiesce` the replicas agree on every key's value and write
//! sequence, tombstones included.

use om_storage::{EventualBackend, StateBackend, WriteBatch};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn key(k: u8) -> Vec<u8> {
    vec![b'k', k]
}

fn val(v: u64) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

fn decode(bytes: Option<Vec<u8>>) -> Option<u64> {
    bytes.map(|b| u64::from_be_bytes(b.as_slice().try_into().expect("8-byte value")))
}

#[test]
fn writes_replicate_to_secondary() {
    let b = EventualBackend::new(4);
    b.put(b"1", b"hello");
    b.put(b"2", b"world");
    b.quiesce();
    assert_eq!(b.secondary_store().get(&b"1"[..]), Some(b"hello".to_vec()));
    assert_eq!(b.secondary_store().get(&b"2"[..]), Some(b"world".to_vec()));
    assert_eq!(b.replication_stats().applied(), 2);
    let mut s = b.session();
    assert_eq!(s.get(b"1"), Some(b"hello".to_vec()));
    assert_eq!(s.fallbacks(), 0, "a replicated key is served by the secondary");
}

#[test]
fn deletes_propagate_as_tombstones() {
    let b = EventualBackend::new(4);
    b.put(b"k", b"v");
    b.delete(b"k");
    b.quiesce();
    assert_eq!(b.get(b"k"), None);
    let version = b
        .secondary_store()
        .get_versioned(&b"k"[..])
        .expect("the secondary keeps the tombstone");
    assert!(version.is_tombstone());
    assert_eq!(version.key_seq, 2);
    assert_eq!(b.session().get(b"k"), None);
}

#[test]
fn primary_reads_are_read_your_writes() {
    // Three records fit in the window: none has replicated, yet every
    // backend-level read already reflects them.
    let b = EventualBackend::new(4);
    b.put(b"a", b"1");
    b.put(b"b", b"2");
    b.delete(b"a");
    assert!(b.secondary_store().is_empty());
    assert_eq!(b.get(b"a"), None);
    assert_eq!(b.get_many(&[&b"a"[..], &b"b"[..]]), vec![None, Some(b"2".to_vec())]);
    assert_eq!(b.scan_prefix(b""), vec![(b"b".to_vec(), b"2".to_vec())]);
    assert_eq!(b.len(), 1);
}

#[test]
fn each_op_of_a_commit_replicates() {
    let b = EventualBackend::new(4);
    b.put(b"gone", b"x");
    let batch = WriteBatch::new()
        .put(b"x".to_vec(), b"1".to_vec())
        .put(b"y".to_vec(), b"2".to_vec())
        .delete(b"gone".to_vec());
    assert_eq!(b.commit(batch).unwrap(), 3);
    b.quiesce();
    assert_eq!(b.counters()["backend.commits"], 1);
    assert_eq!(b.counters()["backend.replica_applied"], 4);
    assert_eq!(b.secondary_store().get(&b"y"[..]), Some(b"2".to_vec()));
    assert!(b.secondary_store().get_versioned(&b"gone"[..]).unwrap().is_tombstone());
    assert!(b.replicas_converged());
}

#[test]
fn quiesce_drains_all_records() {
    let b = EventualBackend::new(8);
    for i in 0..1000u64 {
        b.put(&key((i % 10) as u8), &val(i));
    }
    b.quiesce();
    let stats = b.replication_stats();
    assert_eq!(stats.applied(), 1000);
    assert!(stats.stale_drops() <= stats.applied());
    assert_eq!(b.counters()["backend.replica_applied"], 1000);
    for k in 0..10u8 {
        assert_eq!(
            b.secondary_store().get(&key(k)[..]),
            b.primary_store().get(&key(k)[..]),
            "key {k} diverged"
        );
    }
}

#[test]
fn concurrent_writers_do_not_lose_updates() {
    let b = EventualBackend::new(8);
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let b = &b;
            scope.spawn(move || {
                let mut s = b.session();
                for i in 0..250u64 {
                    let k = format!("w{w}/{i}").into_bytes();
                    s.put(&k, &val(i));
                    assert_eq!(decode(s.get(&k)), Some(i));
                }
            });
        }
    });
    b.quiesce();
    assert_eq!(b.primary_store().len(), 1000);
    assert_eq!(b.secondary_store().len(), 1000);
    assert!(b.replicas_converged());
}

#[test]
fn session_detects_stale_secondary_before_replication() {
    // The secondary holds an old version of the key; later writes are
    // read back before they replicate, so the session must notice the
    // lagging secondary and fall back rather than return stale data.
    let b = EventualBackend::new(4);
    let mut s = b.session();
    s.put(b"hot", &val(0));
    b.quiesce();
    for i in 1..50u64 {
        s.put(b"hot", &val(i));
        assert_eq!(decode(s.get(b"hot")), Some(i), "write {i}");
    }
    assert!(s.fallbacks() > 0, "the second write cannot have replicated yet");
    assert_eq!(b.counters()["backend.session_fallbacks"], s.fallbacks());
}

#[test]
fn fallback_to_primary_always_satisfies() {
    let b = EventualBackend::new(4);
    let mut s = b.session();
    s.put(b"cart", b"v1");
    // One record sits in a window of eight: the secondary lacks it.
    assert_eq!(s.get(b"cart"), Some(b"v1".to_vec()));
    assert_eq!(s.fallbacks(), 1);
    b.quiesce();
    assert_eq!(s.get(b"cart"), Some(b"v1".to_vec()));
    assert_eq!(s.fallbacks(), 1, "a caught-up secondary serves the read");
    // Now the secondary holds v1 while v2 is still buffered.
    s.put(b"cart", b"v2");
    assert_eq!(s.get(b"cart"), Some(b"v2".to_vec()));
    assert_eq!(s.fallbacks(), 2);
}

#[test]
fn monotonic_reads_never_go_backwards() {
    let b = EventualBackend::new(4);
    let mut reader = b.session();
    let mut last_seen = 0u64;
    for i in 1..=100u64 {
        b.put(b"price", &val(i));
        if i % 10 == 0 {
            b.quiesce();
        }
        if let Some(v) = decode(reader.get(b"price")) {
            assert!(v >= last_seen, "saw {v} after {last_seen}");
            last_seen = v;
        }
    }
    b.quiesce();
    assert_eq!(decode(reader.get(b"price")), Some(100));
}

/// One step of a two-party schedule over four keys.
#[derive(Debug, Clone)]
enum Step {
    /// Another client writes the key.
    Writer(u8),
    /// The session under test writes the key.
    Reader(u8),
    /// The backend drains its replication stream.
    Quiesce,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => any::<u8>().prop_map(|k| Step::Writer(k % 4)),
        2 => any::<u8>().prop_map(|k| Step::Reader(k % 4)),
        1 => Just(Step::Quiesce),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A session with no writes of its own never falls back, and reads
    /// only values that were really written to the key; once the
    /// backend quiesces, it reads exactly the primary.
    #[test]
    fn prop_fresh_sessions_are_always_satisfied(
        writes in prop::collection::vec((0u8..10, 0u64..100), 0..50),
    ) {
        let b = EventualBackend::new(4);
        let mut written: BTreeMap<u8, BTreeSet<u64>> = BTreeMap::new();
        for (k, v) in &writes {
            b.put(&key(*k), &val(*v));
            written.entry(*k).or_default().insert(*v);
        }
        let mut fresh = b.session();
        for k in 0..10u8 {
            if let Some(v) = decode(fresh.get(&key(k))) {
                prop_assert!(
                    written.get(&k).is_some_and(|vs| vs.contains(&v)),
                    "key {} read a value nobody wrote: {}", k, v
                );
            }
        }
        prop_assert_eq!(fresh.fallbacks(), 0);
        b.quiesce();
        let mut settled = b.session();
        for k in 0..10u8 {
            prop_assert_eq!(settled.get(&key(k)), b.get(&key(k)));
        }
        prop_assert_eq!(settled.fallbacks(), 0);
    }

    /// Whatever mix of puts, deletes and replication progress, a session
    /// reads back its own latest write (a delete reads as absent).
    #[test]
    fn session_reads_are_never_older_than_its_writes(
        writes in prop::collection::vec(prop::option::of(0u64..1000), 1..40),
        quiesce_every in 1usize..6,
    ) {
        let b = EventualBackend::new(2);
        let mut s = b.session();
        for (i, w) in writes.iter().enumerate() {
            match w {
                Some(v) => s.put(b"k", &val(*v)),
                None => s.delete(b"k"),
            }
            if i % quiesce_every == 0 {
                b.quiesce();
            }
            prop_assert_eq!(decode(s.get(b"k")), *w, "after write {}", i);
        }
    }

    /// Every value written is a fresh maximum, so a session's successive
    /// reads of a key must never decrease and never fall below the
    /// session's own last write — across fallbacks and quiesces.
    #[test]
    fn session_reads_are_monotonic_across_writers(
        steps in prop::collection::vec(step_strategy(), 1..80),
    ) {
        let b = EventualBackend::new(4);
        let mut s = b.session();
        let mut seen = [0u64; 4];
        let mut own = [0u64; 4];
        for (i, step) in steps.iter().enumerate() {
            let v = i as u64 + 1;
            match step {
                Step::Writer(k) => b.put(&key(*k), &val(v)),
                Step::Reader(k) => {
                    s.put(&key(*k), &val(v));
                    own[*k as usize] = v;
                }
                Step::Quiesce => b.quiesce(),
            }
            for k in 0..4u8 {
                let read = decode(s.get(&key(k))).unwrap_or(0);
                let at = k as usize;
                prop_assert!(read >= seen[at], "key {} went back: {} after {}", k, read, seen[at]);
                prop_assert!(read >= own[at], "key {} lost own write {}", k, own[at]);
                seen[at] = read;
            }
        }
    }

    /// After quiesce the replicas agree on every key's full version —
    /// value and write sequence, deleted keys included — not just on the
    /// live values.
    #[test]
    fn replicas_agree_on_versions_after_quiesce(
        ops in prop::collection::vec((0u8..12, prop::option::of(0u64..100), any::<bool>()), 1..80),
    ) {
        let b = EventualBackend::new(4);
        for (k, v, batched) in &ops {
            match (v, batched) {
                (Some(v), false) => b.put(&key(*k), &val(*v)),
                (None, false) => b.delete(&key(*k)),
                (Some(v), true) => {
                    b.commit(WriteBatch::new().put(key(*k), val(*v)).put(key(*k + 12), val(*v)))
                        .unwrap();
                }
                (None, true) => {
                    b.commit(WriteBatch::new().delete(key(*k)).delete(key(*k + 12))).unwrap();
                }
            }
        }
        b.quiesce();
        for k in 0..24u8 {
            prop_assert_eq!(
                b.secondary_store().get_versioned(&key(k)[..]),
                b.primary_store().get_versioned(&key(k)[..]),
                "key {} diverged", k
            );
        }
    }
}
