//! Property-based tests of the `StateBackend` contract:
//!
//! * both backends agree with a plain `BTreeMap` reference model over
//!   randomized sequential op streams (puts, deletes, multi-key commits);
//! * the two atomic backends (snapshot isolation, file durable) **never
//!   expose a torn multi-key commit** to a concurrent multi-key read, and
//!   count one committed state, whatever the writer/reader interleaving;
//! * the eventual backend's secondary replica **converges to the primary
//!   after quiesce**, whatever write sequence (including overwrites and
//!   deletes) preceded it;
//! * sessions provide read-your-writes on both disciplines, even while
//!   the eventual backend's replica lags arbitrarily.

use om_common::config::BackendKind;
use om_storage::{make_backend, EventualBackend, StateBackend, WriteBatch, WriteOp};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One step of a randomized backend workload.
#[derive(Debug, Clone)]
enum Step {
    Put(u8, u16),
    Delete(u8),
    Get(u8),
    /// Multi-key commit writing `val` to every key in the batch.
    Commit(Vec<u8>, u16),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Step::Put(k % 16, v)),
        any::<u8>().prop_map(|k| Step::Delete(k % 16)),
        any::<u8>().prop_map(|k| Step::Get(k % 16)),
        (prop::collection::vec(any::<u8>(), 1..6), any::<u16>())
            .prop_map(|(ks, v)| Step::Commit(ks.into_iter().map(|k| k % 16).collect(), v)),
    ]
}

fn key_bytes(k: u8) -> Vec<u8> {
    vec![b'k', k]
}

fn val_bytes(v: u16) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn run_model_check(backend: &dyn StateBackend, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<u8, u16> = BTreeMap::new();
    for step in steps {
        match step {
            Step::Put(k, v) => {
                backend.put(&key_bytes(*k), &val_bytes(*v));
                model.insert(*k, *v);
            }
            Step::Delete(k) => {
                backend.delete(&key_bytes(*k));
                model.remove(k);
            }
            Step::Get(k) => {
                prop_assert_eq!(
                    backend.get(&key_bytes(*k)),
                    model.get(k).map(|v| val_bytes(*v)),
                    "backend {:?} diverged from model on key {}",
                    backend.kind(),
                    k
                );
            }
            Step::Commit(keys, v) => {
                let mut batch = WriteBatch::new();
                for k in keys {
                    batch = batch.put(key_bytes(*k), val_bytes(*v));
                    model.insert(*k, *v);
                }
                let n = batch.len();
                let applied = backend.commit(batch).expect("no concurrency, no conflicts");
                prop_assert_eq!(applied, n);
            }
        }
    }
    // Final state: every live key agrees; backend length matches.
    for (k, v) in &model {
        prop_assert_eq!(backend.get(&key_bytes(*k)), Some(val_bytes(*v)));
    }
    prop_assert_eq!(backend.len(), model.len(), "{:?}", backend.kind());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential op streams match the reference model on both backends.
    #[test]
    fn sequential_stream_matches_reference_model(
        steps in prop::collection::vec(step_strategy(), 1..48)
    ) {
        for kind in BackendKind::ALL {
            let backend = make_backend(kind, 4);
            run_model_check(backend.as_ref(), &steps)?;
            backend.quiesce();
        }
    }

    /// Whatever write/overwrite/delete sequence ran, once writers stop
    /// and the backend quiesces, the eventual secondary agrees with the
    /// primary (per-key last-writer-wins convergence through the
    /// reordering applier).
    #[test]
    fn eventual_secondary_converges_after_quiesce(
        steps in prop::collection::vec(step_strategy(), 1..64)
    ) {
        let backend = EventualBackend::new(4);
        for step in &steps {
            match step {
                Step::Put(k, v) => backend.put(&key_bytes(*k), &val_bytes(*v)),
                Step::Delete(k) => backend.delete(&key_bytes(*k)),
                Step::Get(_) => {}
                Step::Commit(keys, v) => {
                    let mut batch = WriteBatch::new();
                    for k in keys {
                        batch = batch.put(key_bytes(*k), val_bytes(*v));
                    }
                    backend.commit(batch).unwrap();
                }
            }
        }
        backend.quiesce();
        prop_assert!(
            backend.replicas_converged(),
            "secondary must equal primary after quiesce"
        );
    }

    /// Read-your-writes: a session always observes its own most recent
    /// write per key, on both disciplines, regardless of replica lag.
    #[test]
    fn sessions_read_their_own_writes(
        writes in prop::collection::vec((any::<u8>(), any::<u16>()), 1..32)
    ) {
        for kind in BackendKind::ALL {
            let backend = make_backend(kind, 4);
            let mut session = backend.session();
            let mut last: BTreeMap<u8, u16> = BTreeMap::new();
            for (k, v) in &writes {
                let k = k % 8;
                session.put(&key_bytes(k), &val_bytes(*v));
                last.insert(k, *v);
                prop_assert_eq!(
                    session.get(&key_bytes(k)),
                    Some(val_bytes(*v)),
                    "session lost its own write on {:?}",
                    kind
                );
            }
            for (k, v) in &last {
                prop_assert_eq!(session.get(&key_bytes(*k)), Some(val_bytes(*v)));
            }
        }
    }
}

/// `scan_prefix(p)` is the model's keys that start with `p`, in key
/// order, on every backend — for the prefixes whose successor is the
/// awkward part of a bounded range scan.
#[test]
fn scan_prefix_agrees_with_the_model_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 8);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // 256 keys under one prefix land on every one of the eventual
        // backend's 8 shards.
        let mut keys: Vec<Vec<u8>> = (0..=255u8).map(|i| vec![b'p', b'/', i]).collect();
        keys.extend([
            b"p".to_vec(),
            b"p/".to_vec(),
            b"o/z".to_vec(),
            b"q".to_vec(),
            vec![b'p', 0xFF],
            vec![b'p', 0xFF, 0xFF],
            vec![b'p', 0xFF, 0xFF, 7],
            vec![0xFF],
            vec![0xFF, 0xFF, 1],
        ]);
        for (i, key) in keys.iter().enumerate() {
            backend.put(key, &val_bytes(i as u16));
            model.insert(key.clone(), val_bytes(i as u16));
        }
        // One key deleted for good, one deleted and put again.
        backend.delete(&keys[3]);
        model.remove(&keys[3]);
        backend.delete(&keys[4]);
        backend.put(&keys[4], b"again");
        model.insert(keys[4].clone(), b"again".to_vec());
        backend.quiesce();

        let prefixes: [&[u8]; 9] = [
            b"",
            b"p",
            b"p/",
            &[b'p', b'/', 4],
            &[b'p', 0xFF],
            &[b'p', 0xFF, 0xFF],
            &[0xFF],
            &[0xFF, 0xFF],
            b"nothing",
        ];
        for prefix in prefixes {
            let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(
                backend.scan_prefix(prefix),
                expected,
                "{kind:?}, prefix {prefix:?}"
            );
        }
    }
}

/// Within a batch the last write to a key wins, and the commit counts
/// every op, on every backend.
#[test]
fn the_last_write_to_a_key_in_a_batch_wins_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 4);
        backend.put(b"gone", b"before");
        let batch = WriteBatch::new()
            .put(b"k".to_vec(), b"first".to_vec())
            .delete(b"gone".to_vec())
            .put(b"k".to_vec(), b"second".to_vec())
            .put(b"back".to_vec(), b"1".to_vec())
            .delete(b"back".to_vec())
            .put(b"back".to_vec(), b"2".to_vec());
        assert_eq!(backend.commit(batch).unwrap(), 6, "{kind:?}");
        backend.quiesce();
        assert_eq!(
            backend.scan_prefix(b""),
            [
                (b"back".to_vec(), b"2".to_vec()),
                (b"k".to_vec(), b"second".to_vec())
            ],
            "{kind:?}"
        );
        assert_eq!(backend.len(), 2, "{kind:?}");
    }
}

/// `get_many` answers key by key in the order asked, repeats and absent
/// keys included, on every backend.
#[test]
fn get_many_answers_in_the_order_asked_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 8);
        backend.put(&key_bytes(1), &val_bytes(1));
        backend.put(&key_bytes(2), &val_bytes(2));
        backend.put(&key_bytes(3), &val_bytes(3));
        backend.delete(&key_bytes(3));
        let (k1, k2, k3, k9) = (key_bytes(1), key_bytes(2), key_bytes(3), key_bytes(9));
        assert_eq!(
            backend.get_many(&[&k2, &k9, &k1, &k3, &k2]),
            [
                Some(val_bytes(2)),
                None,
                Some(val_bytes(1)),
                None,
                Some(val_bytes(2))
            ],
            "{kind:?}"
        );
        assert!(backend.get_many(&[]).is_empty(), "{kind:?}");
    }
}

/// An empty batch applies nothing and changes no read, on every backend.
#[test]
fn an_empty_batch_changes_nothing_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 4);
        backend.put(b"k", b"v");
        assert_eq!(backend.commit(WriteBatch::new()).unwrap(), 0, "{kind:?}");
        assert_eq!(backend.commit_ops(&[]).unwrap(), 0, "{kind:?}");
        backend.quiesce();
        assert_eq!(backend.get(b"k"), Some(b"v".to_vec()), "{kind:?}");
        assert_eq!(backend.len(), 1, "{kind:?}");
    }
}

/// Each backend reports the kind `make_backend` was asked for, starts
/// empty, and `is_empty` follows `len` through puts and deletes.
#[test]
fn every_backend_reports_its_kind_and_counts_live_keys() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 4);
        assert_eq!(backend.kind(), kind);
        assert!(backend.is_empty(), "{kind:?}");
        for k in 0..5 {
            backend.put(&key_bytes(k), &val_bytes(0));
        }
        backend.put(&key_bytes(0), &val_bytes(1));
        backend.delete(&key_bytes(4));
        backend.delete(&key_bytes(99));
        assert_eq!((backend.len(), backend.is_empty()), (4, false), "{kind:?}");
        for k in 0..4 {
            backend.delete(&key_bytes(k));
        }
        backend.quiesce();
        assert!(backend.is_empty(), "{kind:?}");
    }
}

/// An empty value is a live row, not a delete, on every backend.
#[test]
fn an_empty_value_is_a_row_not_a_delete_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 4);
        backend.put(b"empty", b"");
        backend
            .commit(WriteBatch::new().put(b"also".to_vec(), Vec::new()))
            .unwrap();
        backend.quiesce();
        assert_eq!(backend.get(b"empty"), Some(Vec::new()), "{kind:?}");
        assert_eq!(
            backend.get_many(&[b"empty", b"also"]),
            [Some(Vec::new()), Some(Vec::new())],
            "{kind:?}"
        );
        assert_eq!(backend.len(), 2, "{kind:?}");
        assert_eq!(
            backend.scan_prefix(b"empty"),
            [(b"empty".to_vec(), Vec::new())],
            "{kind:?}"
        );
    }
}

/// A session reads its own deletes as absent on every backend, and a
/// key it deletes and puts again reads the new value.
#[test]
fn sessions_read_their_own_deletes_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 4);
        backend.put(&key_bytes(1), &val_bytes(1));
        backend.put(&key_bytes(2), &val_bytes(2));
        let mut session = backend.session();
        session.delete(&key_bytes(1));
        assert_eq!(session.get(&key_bytes(1)), None, "{kind:?}");
        session.delete(&key_bytes(2));
        session.put(&key_bytes(2), &val_bytes(20));
        assert_eq!(session.get(&key_bytes(2)), Some(val_bytes(20)), "{kind:?}");
        drop(session);
        backend.quiesce();
        assert_eq!(backend.get(&key_bytes(1)), None, "{kind:?}");
        assert_eq!(backend.get(&key_bytes(2)), Some(val_bytes(20)), "{kind:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `commit_ops` installs exactly what `commit` does with the same
    /// ops, on every backend, and `quiesce` changes no read.
    #[test]
    fn commit_ops_and_commit_agree_on_every_backend(
        batches in prop::collection::vec(
            prop::collection::vec((0u8..8, prop::option::of(any::<u16>())), 0..6),
            1..12,
        )
    ) {
        for kind in BackendKind::ALL {
            let (by_value, by_ref) = (make_backend(kind, 4), make_backend(kind, 4));
            for ops in &batches {
                let ops: Vec<WriteOp> = ops
                    .iter()
                    .map(|(k, v)| WriteOp { key: key_bytes(*k), value: v.map(val_bytes) })
                    .collect();
                prop_assert_eq!(by_ref.commit_ops(&ops).unwrap(), ops.len());
                prop_assert_eq!(by_value.commit(WriteBatch::from_ops(ops.clone())).unwrap(), ops.len());
            }
            let before = by_value.scan_prefix(b"");
            prop_assert_eq!(&by_ref.scan_prefix(b""), &before, "{:?}", kind);
            by_value.quiesce();
            prop_assert_eq!(by_value.scan_prefix(b""), before, "{:?}", kind);
        }
    }
}

/// The backends whose commits are atomic: snapshot isolation, and the
/// file backend's durable state.
const ATOMIC: [BackendKind; 2] = [BackendKind::SnapshotIsolation, BackendKind::FileDurable];

/// An atomic backend must never expose a torn multi-key commit: every
/// commit writes one round number to *all* keys, so any read of one
/// committed state sees a single distinct value across them.
#[test]
fn si_backend_never_exposes_torn_commits() {
    for kind in ATOMIC {
        never_exposes_torn_commits(make_backend(kind, 8));
    }
}

fn never_exposes_torn_commits(backend: Arc<dyn StateBackend>) {
    let kind = backend.kind();
    let keys: Vec<Vec<u8>> = (0..12u8).map(key_bytes).collect();
    // Seed so readers always see a full row.
    {
        let mut batch = WriteBatch::new();
        for k in &keys {
            batch = batch.put(k.clone(), val_bytes(0));
        }
        backend.commit(batch).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // The writers start once every reader has read once: a commit never
    // aborts, so 300 of them can otherwise finish before a reader thread
    // is first scheduled.
    let started = Arc::new(std::sync::Barrier::new(2 + 3));
    let mut writers = Vec::new();
    for w in 0..2u16 {
        let backend = backend.clone();
        let keys = keys.clone();
        let started = started.clone();
        writers.push(std::thread::spawn(move || {
            started.wait();
            let mut round = 1u16;
            let mut committed = 0u32;
            while committed < 150 {
                let mut batch = WriteBatch::new();
                for k in &keys {
                    batch = batch.put(k.clone(), val_bytes(w * 10_000 + round));
                }
                if backend.commit(batch).is_ok() {
                    committed += 1;
                }
                round += 1;
            }
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..3 {
        let backend = backend.clone();
        let keys = keys.clone();
        let stop = stop.clone();
        let started = started.clone();
        readers.push(std::thread::spawn(move || {
            let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let mut observed = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let values = backend.get_many(&key_refs);
                let distinct: std::collections::HashSet<_> = values.iter().collect();
                assert!(
                    distinct.len() == 1,
                    "torn commit observed on {kind:?}: {values:?}"
                );
                observed += 1;
                if observed == 1 {
                    started.wait();
                }
            }
            observed
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total_reads = 0;
    for r in readers {
        total_reads += r.join().unwrap();
    }
    assert!(total_reads > 0, "readers must have raced the writers");
}

/// `len` counts one committed state on an atomic backend: while batches
/// move rows (one delete and one put each), every count is the same.
#[test]
fn len_counts_one_snapshot_while_rows_move() {
    for kind in ATOMIC {
        let b = make_backend(kind, 8);
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
                assert_eq!(b.len(), 10, "{kind:?}");
            }
        });
    }
}

/// A prefix scan on an atomic backend reads one committed state: each
/// batch moves a row from `a/` to `b/` (or back) and stamps every row
/// with its round, so a scan never sees a row twice, a row missing, or
/// two rounds.
#[test]
fn a_scan_never_sees_a_torn_commit_on_the_atomic_backends() {
    for kind in ATOMIC {
        let b = make_backend(kind, 8);
        let stamp = |round: u16, moving: &[u8]| {
            (0..8u8).fold(WriteBatch::new(), |batch, i| {
                batch.put(vec![b's', b'/', i], val_bytes(round))
            })
            .put(moving.to_vec(), val_bytes(round))
        };
        b.commit(stamp(0, b"s/a")).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=200u16 {
                    let (from, to): (&[u8], &[u8]) =
                        if round % 2 == 1 { (b"s/a", b"s/b") } else { (b"s/b", b"s/a") };
                    b.commit(stamp(round, to).delete(from.to_vec())).unwrap();
                }
            });
            for _ in 0..300 {
                let rows = b.scan_prefix(b"s/");
                assert_eq!(rows.len(), 9, "{kind:?}: {rows:?}");
                assert!(
                    rows.iter().all(|(_, v)| *v == rows[0].1),
                    "{kind:?}: torn scan {rows:?}"
                );
            }
        });
    }
}

/// A batch of deletes on an atomic backend takes every key away at
/// once: a concurrent `get_many` or `len` sees all of them or none.
#[test]
fn a_delete_batch_is_atomic_on_the_atomic_backends() {
    for kind in ATOMIC {
        let b = make_backend(kind, 8);
        let keys: Vec<Vec<u8>> = (0..12u8).map(key_bytes).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 0..100u16 {
                    let fill = keys.iter().fold(WriteBatch::new(), |batch, k| {
                        batch.put(k.clone(), val_bytes(round))
                    });
                    b.commit(fill).unwrap();
                    let drain = keys
                        .iter()
                        .fold(WriteBatch::new(), |batch, k| batch.delete(k.clone()));
                    b.commit(drain).unwrap();
                }
            });
            for _ in 0..300 {
                let present = b.get_many(&key_refs).iter().flatten().count();
                assert!(present == 0 || present == 12, "{kind:?}: {present} of 12");
                let len = b.len();
                assert!(len == 0 || len == 12, "{kind:?}: len {len}");
            }
        });
        assert!(b.is_empty(), "{kind:?}");
    }
}

/// A key overwritten many times reads its last value and counts once,
/// on every backend.
#[test]
fn a_key_overwritten_many_times_reads_its_last_value_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 4);
        for i in 0..2_000u16 {
            backend.put(b"hot", &val_bytes(i));
        }
        backend.quiesce();
        assert_eq!(backend.get(b"hot"), Some(val_bytes(1_999)), "{kind:?}");
        assert_eq!(backend.len(), 1, "{kind:?}");
        assert_eq!(
            backend.scan_prefix(b"h"),
            [(b"hot".to_vec(), val_bytes(1_999))],
            "{kind:?}"
        );
    }
}

/// Deleting a key that was never written changes no read, on every
/// backend.
#[test]
fn deleting_an_absent_key_changes_nothing_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 4);
        backend.put(&key_bytes(1), &val_bytes(1));
        backend.delete(&key_bytes(2));
        backend
            .commit(WriteBatch::new().delete(key_bytes(3)).delete(key_bytes(2)))
            .unwrap();
        backend.quiesce();
        assert_eq!(backend.len(), 1, "{kind:?}");
        assert_eq!(
            backend.scan_prefix(b""),
            [(key_bytes(1), val_bytes(1))],
            "{kind:?}"
        );
        assert_eq!(
            backend.get_many(&[&key_bytes(2), &key_bytes(3)]),
            [None, None],
            "{kind:?}"
        );
    }
}

/// A later commit's writes replace an earlier commit's, key by key, on
/// every backend.
#[test]
fn a_later_commit_overwrites_an_earlier_one_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 4);
        backend
            .commit(
                WriteBatch::new()
                    .put(key_bytes(1), val_bytes(1))
                    .put(key_bytes(2), val_bytes(1)),
            )
            .unwrap();
        backend
            .commit(
                WriteBatch::new()
                    .put(key_bytes(2), val_bytes(2))
                    .put(key_bytes(3), val_bytes(2))
                    .delete(key_bytes(1)),
            )
            .unwrap();
        backend.quiesce();
        assert_eq!(
            backend.scan_prefix(b""),
            [(key_bytes(2), val_bytes(2)), (key_bytes(3), val_bytes(2))],
            "{kind:?}"
        );
    }
}

/// Writers on several threads, each to its own keys, all land, on
/// every backend.
#[test]
fn concurrent_writers_to_distinct_keys_all_land_on_every_backend() {
    for kind in BackendKind::ALL {
        let backend = make_backend(kind, 8);
        std::thread::scope(|scope| {
            for w in 0..4u8 {
                let backend = &backend;
                scope.spawn(move || {
                    for i in 0..50u8 {
                        backend.put(&[w, i], &[i]);
                    }
                });
            }
        });
        backend.quiesce();
        assert_eq!(backend.len(), 200, "{kind:?}");
        for w in 0..4u8 {
            let rows = backend.scan_prefix(&[w]);
            assert_eq!(rows.len(), 50, "{kind:?}");
            assert!(rows.iter().all(|(k, v)| k[1] == v[0]), "{kind:?}");
        }
    }
}

/// On an atomic backend a session reads a commit made outside it as
/// soon as that commit returns.
#[test]
fn a_session_sees_outside_commits_at_once_on_the_atomic_backends() {
    for kind in ATOMIC {
        let backend = make_backend(kind, 4);
        let mut session = backend.session();
        backend
            .commit(WriteBatch::new().put(key_bytes(1), val_bytes(1)))
            .unwrap();
        assert_eq!(session.get(&key_bytes(1)), Some(val_bytes(1)), "{kind:?}");
        backend.delete(&key_bytes(1));
        assert_eq!(session.get(&key_bytes(1)), None, "{kind:?}");
        assert_eq!(session.fallbacks(), 0, "{kind:?}");
    }
}

/// Contrast case documenting the semantic gap the matrix measures: the
/// eventual backend applies multi-key commits per key, so a racing
/// reader *may* observe a torn subset (we only require that it never
/// observes values that were never written, and that the state converges
/// afterwards).
#[test]
fn eventual_backend_commits_are_not_atomic_but_converge() {
    let backend = Arc::new(EventualBackend::new(8));
    let keys: Vec<Vec<u8>> = (0..12u8).map(key_bytes).collect();
    let writer = {
        let backend = backend.clone();
        let keys = keys.clone();
        std::thread::spawn(move || {
            for round in 0..300u16 {
                let mut batch = WriteBatch::new();
                for k in &keys {
                    batch = batch.put(k.clone(), val_bytes(round));
                }
                backend.commit(batch).unwrap();
            }
        })
    };
    let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let valid: std::collections::HashSet<Option<Vec<u8>>> = (0..300u16)
        .map(|r| Some(val_bytes(r)))
        .chain(std::iter::once(None))
        .collect();
    for _ in 0..200 {
        for v in backend.get_many(&key_refs) {
            assert!(valid.contains(&v), "value from nowhere: {v:?}");
        }
    }
    writer.join().unwrap();
    backend.quiesce();
    assert!(backend.replicas_converged());
    let final_vals = backend.get_many(&key_refs);
    assert!(
        final_vals.iter().all(|v| v == &Some(val_bytes(299))),
        "after quiesce every key holds the last committed round"
    );
}
