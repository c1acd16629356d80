//! Integration tests for the MVCC engine: snapshot isolation semantics,
//! multi-table atomicity, serializable validation, GC, and property tests.

use om_mvcc::{IsolationLevel, TxManager};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn read_your_own_writes_before_commit() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, String>("t");
    let tx = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&tx, &1), None);
    t.put(&tx, 1, "own".into());
    assert_eq!(t.get(&tx, &1), Some("own".into()));
    mgr.commit(tx).unwrap();
}

#[test]
fn uncommitted_writes_are_invisible_to_others() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    let writer = mgr.begin(IsolationLevel::Snapshot);
    t.put(&writer, 1, 42);
    let reader = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&reader, &1), None, "dirty read!");
    mgr.commit(writer).unwrap();
    // Reader's snapshot predates the commit: still invisible.
    assert_eq!(t.get(&reader, &1), None, "non-repeatable read!");
    drop(reader);
    let later = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&later, &1), Some(42));
}

#[test]
fn snapshot_reads_are_repeatable_across_concurrent_commits() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    mgr.run(IsolationLevel::Snapshot, 0, |tx| {
        t.put(tx, 1, 1);
        Ok(())
    })
    .unwrap();

    let reader = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&reader, &1), Some(1));
    for i in 2..10 {
        mgr.run(IsolationLevel::Snapshot, 0, |tx| {
            t.put(tx, 1, i);
            Ok(())
        })
        .unwrap();
        assert_eq!(t.get(&reader, &1), Some(1), "snapshot must not move");
    }
}

#[test]
fn first_committer_wins_on_write_write_conflict() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    let a = mgr.begin(IsolationLevel::Snapshot);
    let b = mgr.begin(IsolationLevel::Snapshot);
    t.put(&a, 1, 10);
    t.put(&b, 1, 20);
    mgr.commit(a).unwrap();
    let err = mgr.commit(b).unwrap_err();
    assert!(err.is_retryable(), "conflict should be retryable: {err}");
    let check = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&check, &1), Some(10), "first committer's value wins");
}

#[test]
fn disjoint_writes_do_not_conflict() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    let a = mgr.begin(IsolationLevel::Snapshot);
    let b = mgr.begin(IsolationLevel::Snapshot);
    t.put(&a, 1, 10);
    t.put(&b, 2, 20);
    mgr.commit(a).unwrap();
    mgr.commit(b).unwrap();
}

#[test]
fn snapshot_isolation_permits_write_skew_but_serializable_rejects_it() {
    // Classic write skew: two txs each read both keys and write the other.
    for (iso, expect_skew) in [
        (IsolationLevel::Snapshot, true),
        (IsolationLevel::Serializable, false),
    ] {
        let mgr = TxManager::new();
        let t = mgr.create_table::<&'static str, i32>("oncall");
        mgr.run(IsolationLevel::Snapshot, 0, |tx| {
            t.put(tx, "alice", 1);
            t.put(tx, "bob", 1);
            Ok(())
        })
        .unwrap();

        let a = mgr.begin(iso);
        let b = mgr.begin(iso);
        let _ = (t.get(&a, &"alice"), t.get(&a, &"bob"));
        let _ = (t.get(&b, &"alice"), t.get(&b, &"bob"));
        t.put(&a, "alice", 0);
        t.put(&b, "bob", 0);
        let ra = mgr.commit(a);
        let rb = mgr.commit(b);
        let both_committed = ra.is_ok() && rb.is_ok();
        assert_eq!(
            both_committed, expect_skew,
            "isolation {iso:?}: write-skew outcome mismatch (a={ra:?} b={rb:?})"
        );
    }
}

#[test]
fn multi_table_commits_are_atomic_across_snapshots() {
    let mgr = TxManager::new();
    let orders = mgr.create_table::<u64, String>("orders");
    let totals = mgr.create_table::<u64, i64>("totals");
    // Writer thread commits to both tables together; reader threads must
    // always see them agree.
    let stop = Arc::new(AtomicU64::new(0));
    let mgr2 = mgr.clone();
    let (orders2, totals2) = (orders.clone(), totals.clone());
    let stop2 = stop.clone();
    let writer = std::thread::spawn(move || {
        for i in 1..200u64 {
            mgr2.run(IsolationLevel::Snapshot, 3, |tx| {
                orders2.put(tx, i, format!("order-{i}"));
                totals2.put(tx, 0, i as i64);
                Ok(())
            })
            .unwrap();
        }
        stop2.store(1, Ordering::Relaxed);
    });
    let mut checks = 0u64;
    while stop.load(Ordering::Relaxed) == 0 || checks < 50 {
        let tx = mgr.begin(IsolationLevel::Snapshot);
        let total = totals.get(&tx, &0).unwrap_or(0) as u64;
        let count = orders.count(&tx) as u64;
        assert_eq!(
            count, total,
            "torn multi-table read: {count} orders but total says {total}"
        );
        checks += 1;
    }
    writer.join().unwrap();
    assert!(checks > 0);
}

#[test]
fn scans_respect_snapshots_and_own_writes() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    mgr.run(IsolationLevel::Snapshot, 0, |tx| {
        for i in 0..10 {
            t.put(tx, i, i as i32);
        }
        Ok(())
    })
    .unwrap();

    let tx = mgr.begin(IsolationLevel::Snapshot);
    t.put(&tx, 100, 100); // own insert
    t.delete(&tx, 0); // own delete
    let rows = t.scan(&tx, |_, v| *v % 2 == 0);
    let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, vec![2, 4, 6, 8, 100]);

    let ranged = t.scan_filter(&tx, 2..7, |_, _| true);
    assert_eq!(ranged.len(), 5);
}

#[test]
fn deletes_become_visible_only_after_commit() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    mgr.run(IsolationLevel::Snapshot, 0, |tx| {
        t.put(tx, 1, 1);
        Ok(())
    })
    .unwrap();
    let deleter = mgr.begin(IsolationLevel::Snapshot);
    t.delete(&deleter, 1);
    let reader = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&reader, &1), Some(1));
    mgr.commit(deleter).unwrap();
    assert_eq!(t.get(&reader, &1), Some(1), "snapshot still sees it");
    let after = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&after, &1), None);
}

#[test]
fn abort_discards_buffered_writes() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    let tx = mgr.begin(IsolationLevel::Snapshot);
    t.put(&tx, 1, 99);
    mgr.abort(tx);
    let check = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&check, &1), None);
    let (commits, aborts) = mgr.stats();
    assert_eq!((commits, aborts >= 1), (0, true));
}

#[test]
fn dropping_tx_releases_snapshot() {
    let mgr = TxManager::new();
    let _t = mgr.create_table::<u64, i32>("t");
    {
        let _tx = mgr.begin(IsolationLevel::Snapshot);
        assert_eq!(mgr.active_snapshots(), 1);
    }
    assert_eq!(mgr.active_snapshots(), 0);
}

#[test]
fn gc_prunes_superseded_versions_but_preserves_active_snapshots() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    for i in 0..50 {
        mgr.run(IsolationLevel::Snapshot, 0, |tx| {
            t.put(tx, 1, i);
            Ok(())
        })
        .unwrap();
    }
    assert_eq!(t.total_versions(), 50);

    // An old reader pins its snapshot's version.
    let reader = mgr.begin(IsolationLevel::Snapshot);
    for i in 50..60 {
        mgr.run(IsolationLevel::Snapshot, 0, |tx| {
            t.put(tx, 1, i);
            Ok(())
        })
        .unwrap();
    }
    let dropped = mgr.gc();
    assert!(dropped > 0);
    assert_eq!(t.get(&reader, &1), Some(49), "pinned version survives GC");
    drop(reader);
    mgr.gc();
    assert_eq!(t.total_versions(), 1, "only newest version remains");
    let check = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&check, &1), Some(59));
}

#[test]
fn gc_removes_tombstoned_keys() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    mgr.run(IsolationLevel::Snapshot, 0, |tx| {
        t.put(tx, 1, 1);
        Ok(())
    })
    .unwrap();
    mgr.run(IsolationLevel::Snapshot, 0, |tx| {
        t.delete(tx, 1);
        Ok(())
    })
    .unwrap();
    assert_eq!(t.version_chain_count(), 1);
    mgr.gc();
    assert_eq!(t.version_chain_count(), 0, "tombstoned chain collected");
}

#[test]
fn commits_are_ordered_by_timestamp() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    let mut outcomes = Vec::new();
    for i in 0..10 {
        let tx = mgr.begin(IsolationLevel::Snapshot);
        t.put(&tx, i, 0);
        outcomes.push(mgr.commit(tx).unwrap());
    }
    assert_eq!(mgr.stats(), (10, 0));
    assert!(outcomes.windows(2).all(|w| w[0].commit_ts < w[1].commit_ts));
    assert!(outcomes.iter().all(|o| o.writes == 1));
}

#[test]
fn concurrent_commits_get_distinct_published_timestamps() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, u64>("t");
    let mut stamps: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                let (mgr, t) = (&mgr, &t);
                scope.spawn(move || {
                    (0..50u64)
                        .map(|i| {
                            let tx = mgr.begin(IsolationLevel::Snapshot);
                            t.put(&tx, w * 100 + i, i);
                            let ts = mgr.commit(tx).unwrap().commit_ts;
                            // A commit is published before commit returns.
                            assert!(mgr.current_ts() >= ts);
                            ts
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    stamps.sort_unstable();
    stamps.dedup();
    assert_eq!(stamps.len(), 200, "every commit gets its own timestamp");
    assert_eq!(mgr.current_ts(), *stamps.last().unwrap());
    assert_eq!(mgr.stats(), (200, 0));
    let tx = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.scan(&tx, |_, _| true).len(), 200);
}

#[test]
fn run_retries_conflicts() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i64>("counter");
    mgr.run(IsolationLevel::Snapshot, 0, |tx| {
        t.put(tx, 0, 0);
        Ok(())
    })
    .unwrap();
    let mut handles = vec![];
    for _ in 0..4 {
        let (mgr, t) = (mgr.clone(), t.clone());
        handles.push(std::thread::spawn(move || {
            for _ in 0..100 {
                mgr.run(IsolationLevel::Snapshot, 1000, |tx| {
                    let cur = t.get(tx, &0).unwrap();
                    t.put(tx, 0, cur + 1);
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let tx = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&tx, &0), Some(400), "no lost updates");
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under concurrent random increments with retry, the final counter
    /// equals the number of successful increments (SI forbids lost
    /// updates on a single key thanks to first-committer-wins).
    #[test]
    fn prop_no_lost_updates(threads in 1usize..4, per_thread in 1u64..40) {
        let mgr = TxManager::new();
        let t = mgr.create_table::<u8, u64>("c");
        mgr.run(IsolationLevel::Snapshot, 0, |tx| { t.put(tx, 0, 0); Ok(()) }).unwrap();
        let mut handles = vec![];
        for _ in 0..threads {
            let (mgr, t) = (mgr.clone(), t.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    mgr.run(IsolationLevel::Snapshot, 100_000, |tx| {
                        let cur = t.get(tx, &0).unwrap();
                        t.put(tx, 0, cur + 1);
                        Ok(())
                    }).unwrap();
                }
            }));
        }
        for h in handles { h.join().unwrap(); }
        let tx = mgr.begin(IsolationLevel::Snapshot);
        prop_assert_eq!(t.get(&tx, &0), Some(threads as u64 * per_thread));
    }

    /// Any interleaving of committed puts/deletes yields a final state
    /// equal to replaying the WAL-ordered operations sequentially.
    #[test]
    fn prop_commit_order_determines_final_state(ops in proptest::collection::vec((0u64..8, proptest::option::of(0i32..100)), 1..40)) {
        let mgr = TxManager::new();
        let t = mgr.create_table::<u64, i32>("t");
        let mut model = std::collections::BTreeMap::new();
        for (k, v) in &ops {
            mgr.run(IsolationLevel::Snapshot, 0, |tx| {
                match v {
                    Some(val) => t.put(tx, *k, *val),
                    None => t.delete(tx, *k),
                }
                Ok(())
            }).unwrap();
            match v {
                Some(val) => { model.insert(*k, *val); }
                None => { model.remove(k); }
            }
        }
        let tx = mgr.begin(IsolationLevel::Snapshot);
        let actual: std::collections::BTreeMap<u64, i32> =
            t.scan(&tx, |_, _| true).into_iter().collect();
        prop_assert_eq!(actual, model);
    }

    /// GC never changes what the current snapshot observes.
    #[test]
    fn prop_gc_is_invisible_to_current_snapshot(writes in proptest::collection::vec((0u64..6, 0i32..50), 1..60)) {
        let mgr = TxManager::new();
        let t = mgr.create_table::<u64, i32>("t");
        for (k, v) in &writes {
            mgr.run(IsolationLevel::Snapshot, 0, |tx| { t.put(tx, *k, *v); Ok(()) }).unwrap();
        }
        let before = {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            t.scan(&tx, |_, _| true)
        };
        mgr.gc();
        let after = {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            t.scan(&tx, |_, _| true)
        };
        prop_assert_eq!(before, after);
    }
}

// ---------------------------------------------------------------------
// The transaction's footprint: commit, abort and drop visit only the
// tables a transaction touched.
// ---------------------------------------------------------------------

#[test]
fn a_commit_to_two_of_64_tables_is_atomic_to_a_concurrent_reader() {
    let mgr = TxManager::new();
    let tables: Vec<_> = (0..64)
        .map(|i| mgr.create_table::<u64, u64>(format!("t{i}")))
        .collect();
    let (low, high) = (tables[3].clone(), tables[60].clone());
    let stop = Arc::new(AtomicU64::new(0));
    let writer = {
        let (mgr, low, high, stop) = (mgr.clone(), low.clone(), high.clone(), stop.clone());
        std::thread::spawn(move || {
            for round in 1..=300u64 {
                let tx = mgr.begin(IsolationLevel::Snapshot);
                low.put(&tx, 0, round);
                high.put(&tx, 0, round);
                assert_eq!(mgr.commit(tx).unwrap().writes, 2);
            }
            stop.store(1, Ordering::Relaxed);
        })
    };
    let mut checks = 0u64;
    while stop.load(Ordering::Relaxed) == 0 || checks < 50 {
        let tx = mgr.begin(IsolationLevel::Snapshot);
        let (a, b) = (low.get(&tx, &0), high.get(&tx, &0));
        assert_eq!(a, b, "torn read across tables 3 and 60");
        checks += 1;
    }
    writer.join().unwrap();
    let tx = mgr.begin(IsolationLevel::Snapshot);
    for (i, t) in tables.iter().enumerate() {
        let expected = if i == 3 || i == 60 { 1 } else { 0 };
        assert_eq!(t.count(&tx), expected, "table {i}");
    }
}

#[test]
fn dropping_a_reader_between_a_put_and_its_commit_keeps_the_writes() {
    let mgr = TxManager::new();
    let t = mgr.create_table::<u64, i32>("t");
    let writer = mgr.begin(IsolationLevel::Snapshot);
    t.put(&writer, 1, 10);
    t.delete(&writer, 2);
    for isolation in [IsolationLevel::Snapshot, IsolationLevel::Serializable] {
        let reader = mgr.begin(isolation);
        assert_eq!(t.get(&reader, &1), None);
        assert!(t.scan(&reader, |_, _| true).is_empty());
        drop(reader);
    }
    assert_eq!(
        t.get(&writer, &1),
        Some(10),
        "the writer still reads its own put"
    );
    let outcome = mgr.commit(writer).unwrap();
    assert_eq!(outcome.writes, 2, "the put and the delete are installed");
    let check = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(t.get(&check, &1), Some(10));
}

#[test]
fn serializable_rejects_a_write_in_one_table_after_a_read_in_another_was_overwritten() {
    let mgr = TxManager::new();
    let written = mgr.create_table::<u64, i64>("written");
    let read = mgr.create_table::<u64, i64>("read");
    mgr.run(IsolationLevel::Snapshot, 0, |tx| {
        read.put(tx, 7, 1);
        Ok(())
    })
    .unwrap();

    let tx = mgr.begin(IsolationLevel::Serializable);
    let seen = read.get(&tx, &7).unwrap();
    written.put(&tx, 1, seen);
    mgr.run(IsolationLevel::Snapshot, 0, |w| {
        read.put(w, 7, 2);
        Ok(())
    })
    .unwrap();
    let err = mgr.commit(tx).unwrap_err();
    assert_eq!(
        err.label(),
        "conflict",
        "the read-only table's read is validated"
    );
    let check = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(
        written.get(&check, &1),
        None,
        "nothing of the loser is installed"
    );

    // The same history under snapshot isolation commits.
    let tx = mgr.begin(IsolationLevel::Snapshot);
    let seen = read.get(&tx, &7).unwrap();
    written.put(&tx, 1, seen);
    mgr.run(IsolationLevel::Snapshot, 0, |w| {
        read.put(w, 7, 3);
        Ok(())
    })
    .unwrap();
    mgr.commit(tx).expect("SI does not validate reads");
}

#[test]
fn stats_and_active_snapshots_count_transactions_not_tables() {
    let mgr = TxManager::new();
    let tables: Vec<_> = (0..64)
        .map(|i| mgr.create_table::<u64, u64>(format!("t{i}")))
        .collect();
    assert_eq!((mgr.stats(), mgr.active_snapshots()), ((0, 0), 0));

    let writer = mgr.begin(IsolationLevel::Snapshot);
    tables[5].put(&writer, 1, 1);
    let reader = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(tables[5].get(&reader, &1), None);
    let serializable = mgr.begin(IsolationLevel::Serializable);
    assert_eq!(tables[9].get(&serializable, &1), None);
    assert_eq!(mgr.active_snapshots(), 3, "one per open transaction");

    mgr.commit(writer).unwrap();
    assert_eq!((mgr.stats(), mgr.active_snapshots()), ((1, 0), 2));
    drop(reader);
    assert_eq!((mgr.stats(), mgr.active_snapshots()), ((1, 1), 1));
    mgr.abort(serializable);
    assert_eq!((mgr.stats(), mgr.active_snapshots()), ((1, 2), 0));

    // A commit that loses validation is one abort, not one per table.
    let a = mgr.begin(IsolationLevel::Snapshot);
    let b = mgr.begin(IsolationLevel::Snapshot);
    for t in [&tables[0], &tables[63]] {
        t.put(&a, 2, 2);
        t.put(&b, 2, 3);
    }
    mgr.commit(a).unwrap();
    assert!(mgr.commit(b).is_err());
    assert_eq!((mgr.stats(), mgr.active_snapshots()), ((2, 3), 0));

    // A read-only commit is still a commit and still publishes a timestamp.
    let before = mgr.current_ts();
    let tx = mgr.begin(IsolationLevel::Snapshot);
    assert_eq!(tables[0].get(&tx, &2), Some(2));
    let outcome = mgr.commit(tx).unwrap();
    assert_eq!((outcome.commit_ts, outcome.writes), (before + 1, 0));
    assert_eq!(mgr.stats(), (3, 3));
}

#[test]
fn one_transaction_spans_tables_of_different_key_and_row_types() {
    use std::ops::Bound::{Excluded, Included};
    let mgr = TxManager::new();
    let names = mgr.create_table::<String, Vec<u8>>("names");
    let counts = mgr.create_table::<u64, i32>("counts");
    let tx = mgr.begin(IsolationLevel::Serializable);
    names.put(&tx, "a".to_string(), b"x".to_vec());
    counts.put(&tx, 1, 5);
    assert_eq!(
        names.get(&tx, "a"),
        Some(b"x".to_vec()),
        "borrowed-key read"
    );
    assert_eq!(counts.get(&tx, &1), Some(5));
    assert_eq!(mgr.commit(tx).unwrap().writes, 2);
    let check = mgr.begin(IsolationLevel::Snapshot);
    let a_to_b = (Included("a"), Excluded("b"));
    assert_eq!(
        names
            .scan_filter::<str, _, _>(&check, a_to_b, |_, _| true)
            .len(),
        1
    );
    assert_eq!(counts.get(&check, &1), Some(5));
}

#[test]
fn a_transaction_handle_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<om_mvcc::Tx>();
}
