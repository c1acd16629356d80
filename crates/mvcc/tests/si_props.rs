//! Property-based tests of the MVCC engine's isolation invariants.
//!
//! These complement the example-based tests in `engine.rs` and
//! `serializable.rs` by checking the invariants over *randomized*
//! schedules:
//!
//! * a linearized (single-threaded) transaction stream behaves exactly
//!   like a `BTreeMap` reference model;
//! * concurrent counter increments never lose updates (first-committer-
//!   wins + retry = atomic read-modify-write);
//! * a transaction's reads are stable for its whole lifetime, whatever
//!   commits around it;
//! * GC never reclaims a version that an open snapshot can still see.
//! * interleaved transactions over many tables — at most three open at
//!   once, either isolation level — read, commit and conflict exactly as
//!   a sequential model of the committed transactions says they should.

use om_mvcc::{IsolationLevel, TxManager};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One operation of a randomly generated transaction.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, u16),
    Delete(u8),
    Get(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k % 16, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 16)),
        any::<u8>().prop_map(|k| Op::Get(k % 16)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential transactions (each committed before the next begins)
    /// must agree with a plain BTreeMap at every read and at the end.
    #[test]
    fn linearized_stream_matches_reference_model(
        txs in prop::collection::vec(
            (prop::collection::vec(op_strategy(), 1..8), prop::bool::ANY),
            1..24,
        )
    ) {
        let mgr = TxManager::new();
        let table = mgr.create_table::<u8, u16>("t");
        let mut model: BTreeMap<u8, u16> = BTreeMap::new();

        for (ops, commit) in txs {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            let mut staged = model.clone();
            for op in &ops {
                match op {
                    Op::Put(k, v) => {
                        table.put(&tx, *k, *v);
                        staged.insert(*k, *v);
                    }
                    Op::Delete(k) => {
                        table.delete(&tx, *k);
                        staged.remove(k);
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(
                            table.get(&tx, k),
                            staged.get(k).copied(),
                            "read-your-writes within the tx"
                        );
                    }
                }
            }
            if commit {
                mgr.commit(tx).expect("no concurrency, no conflicts");
                model = staged;
            } else {
                mgr.abort(tx);
            }
            // Committed state visible to a fresh transaction == model.
            let check = mgr.begin(IsolationLevel::Snapshot);
            let visible: BTreeMap<u8, u16> =
                table.scan(&check, |_, _| true).into_iter().collect();
            prop_assert_eq!(&visible, &model);
            mgr.abort(check);
        }
    }

    /// Concurrent increments with retry never lose an update: the final
    /// counter equals the number of committed increments.
    #[test]
    fn concurrent_increments_are_never_lost(
        threads in 2usize..5,
        per_thread in 1usize..25,
        seed in any::<u64>(),
    ) {
        let _ = seed; // scheduling is the randomness here
        let mgr = Arc::new(TxManager::new());
        let table = mgr.create_table::<u8, u64>("counter");
        {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            table.put(&tx, 0, 0);
            mgr.commit(tx).unwrap();
        }
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let mgr = mgr.clone();
                let table = table.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        mgr.run(IsolationLevel::Snapshot, usize::MAX, |tx| {
                            let v = table.get(tx, &0).unwrap_or(0);
                            table.put(tx, 0, v + 1);
                            Ok(())
                        })
                        .expect("retry forever cannot fail");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let tx = mgr.begin(IsolationLevel::Snapshot);
        prop_assert_eq!(table.get(&tx, &0), Some((threads * per_thread) as u64));
        mgr.abort(tx);
    }

    /// A reader's view never changes while writers commit around it, and
    /// after the reader finishes a fresh snapshot sees all the commits.
    #[test]
    fn snapshot_reads_are_stable_under_concurrent_commits(
        writes in prop::collection::vec((any::<u8>(), any::<u16>()), 1..32)
    ) {
        let mgr = TxManager::new();
        let table = mgr.create_table::<u8, u16>("t");
        {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            for k in 0u8..16 {
                table.put(&tx, k, 0);
            }
            mgr.commit(tx).unwrap();
        }

        let reader = mgr.begin(IsolationLevel::Snapshot);
        let before: Vec<_> = table.scan(&reader, |_, _| true);

        for (k, v) in &writes {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            table.put(&tx, k % 16, *v);
            mgr.commit(tx).unwrap();
            // The open reader still sees its original snapshot.
            let during: Vec<_> = table.scan(&reader, |_, _| true);
            prop_assert_eq!(&during, &before, "snapshot must be immutable");
        }
        mgr.abort(reader);

        let after_tx = mgr.begin(IsolationLevel::Snapshot);
        let after: BTreeMap<u8, u16> =
            table.scan(&after_tx, |_, _| true).into_iter().collect();
        let mut expected: BTreeMap<u8, u16> = (0u8..16).map(|k| (k, 0)).collect();
        for (k, v) in &writes {
            expected.insert(k % 16, *v);
        }
        prop_assert_eq!(after, expected);
        mgr.abort(after_tx);
    }

    /// Garbage collection drops superseded versions but never anything an
    /// open snapshot still needs.
    #[test]
    fn gc_preserves_open_snapshots(
        rounds in 1usize..16,
        overwrites_per_round in 1usize..8,
    ) {
        let mgr = TxManager::new();
        let table = mgr.create_table::<u8, u64>("t");
        {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            table.put(&tx, 1, 0);
            mgr.commit(tx).unwrap();
        }
        let reader = mgr.begin(IsolationLevel::Snapshot);
        let pinned = table.get(&reader, &1);

        let mut latest = 0u64;
        for round in 0..rounds {
            for i in 0..overwrites_per_round {
                latest = (round * overwrites_per_round + i + 1) as u64;
                let tx = mgr.begin(IsolationLevel::Snapshot);
                table.put(&tx, 1, latest);
                mgr.commit(tx).unwrap();
            }
            mgr.gc();
            // The reader's version must have survived GC.
            prop_assert_eq!(table.get(&reader, &1), pinned);
        }
        mgr.abort(reader);

        // With no snapshot pinning history, GC trims the chain down to
        // (at most) the live version plus the GC-horizon guard.
        mgr.gc();
        let versions_after = table.total_versions();
        prop_assert!(
            versions_after <= 2,
            "expected the chain to shrink once the reader closed, got {versions_after}"
        );
        let tx = mgr.begin(IsolationLevel::Snapshot);
        prop_assert_eq!(table.get(&tx, &1), Some(latest));
        mgr.abort(tx);
    }

    /// First-committer-wins: of two overlapping transactions writing the
    /// same key, exactly one commits (whichever commits second conflicts).
    #[test]
    fn first_committer_wins_on_overlap(key in any::<u8>(), a in any::<u16>(), b in any::<u16>()) {
        let mgr = TxManager::new();
        let table = mgr.create_table::<u8, u16>("t");
        let t1 = mgr.begin(IsolationLevel::Snapshot);
        let t2 = mgr.begin(IsolationLevel::Snapshot);
        table.put(&t1, key, a);
        table.put(&t2, key, b);
        mgr.commit(t1).expect("first committer succeeds");
        let second = mgr.commit(t2);
        prop_assert!(second.is_err(), "second committer must conflict");

        let tx = mgr.begin(IsolationLevel::Snapshot);
        prop_assert_eq!(table.get(&tx, &key), Some(a));
        mgr.abort(tx);
    }
}

/// Tables and keys per table in the interleaving model: small, so that
/// open transactions often touch the same keys.
const TABLES: usize = 8;
const KEYS: u8 = 4;
/// At most this many transactions are open at once.
const SLOTS: usize = 3;

/// One step of an interleaving: an operation of the transaction open in
/// a slot (beginning one there, at the step's isolation, if none is).
#[derive(Debug, Clone)]
enum Step {
    Put(usize, u8, u16),
    Delete(usize, u8),
    Get(usize, u8),
    /// Range scan `from..to`; `true` keeps only even values.
    Scan(usize, u8, u8, bool),
    Commit,
    Abort,
    Drop,
}

fn step_strategy() -> impl Strategy<Value = (usize, bool, Step)> {
    let step = prop_oneof![
        4 => (0..TABLES, 0..KEYS, any::<u16>()).prop_map(|(t, k, v)| Step::Put(t, k, v)),
        2 => (0..TABLES, 0..KEYS).prop_map(|(t, k)| Step::Delete(t, k)),
        3 => (0..TABLES, 0..KEYS).prop_map(|(t, k)| Step::Get(t, k)),
        2 => (0..TABLES, 0..KEYS, 0..=KEYS, any::<bool>())
            .prop_map(|(t, from, len, even)| Step::Scan(t, from, (from + len).min(KEYS), even)),
        3 => Just(Step::Commit),
        1 => Just(Step::Abort),
        1 => Just(Step::Drop),
    ];
    (0..SLOTS, any::<bool>(), step)
}

/// A (table, key) pair.
type Cell = (usize, u8);

/// The committed history, one commit at a time: `states[c]` is the
/// database after `c` commits (what a snapshot at timestamp `c` sees) and
/// `written[c]` the cells commit `c` wrote.
struct History {
    states: Vec<BTreeMap<Cell, u16>>,
    written: Vec<BTreeSet<Cell>>,
}

/// What the model knows of one open transaction.
struct Intent {
    snapshot: usize,
    serializable: bool,
    writes: BTreeMap<Cell, Option<u16>>,
    reads: BTreeSet<Cell>,
}

impl History {
    fn now(&self) -> usize {
        self.states.len() - 1
    }

    /// What `intent` reads at `cell`: its own write, else its snapshot.
    fn read(&self, intent: &Intent, cell: Cell) -> Option<u16> {
        match intent.writes.get(&cell) {
            Some(own) => *own,
            None => self.states[intent.snapshot].get(&cell).copied(),
        }
    }

    /// First-committer-wins, plus read validation when serializable: a
    /// transaction conflicts iff a commit after its snapshot wrote a cell
    /// it wrote (or read).
    fn conflicts(&self, intent: &Intent) -> bool {
        self.written[intent.snapshot + 1..]
            .iter()
            .flatten()
            .any(|cell| {
                intent.writes.contains_key(cell)
                    || (intent.serializable && intent.reads.contains(cell))
            })
    }

    fn commit(&mut self, intent: &Intent) {
        let mut state = self.states[self.now()].clone();
        for (cell, value) in &intent.writes {
            match value {
                Some(v) => state.insert(*cell, *v),
                None => state.remove(cell),
            };
        }
        self.states.push(state);
        self.written.push(intent.writes.keys().copied().collect());
    }
}

/// Runs one interleaving against the engine and the model, checking every
/// read, every commit's outcome, and after each finished transaction the
/// committed state, `stats()` and `active_snapshots()`. Transactions still
/// open at the end commit in slot order.
fn check_interleaving(steps: Vec<(usize, bool, Step)>) -> Result<(), TestCaseError> {
    let mgr = TxManager::new();
    let tables: Vec<_> = (0..TABLES)
        .map(|i| mgr.create_table::<u8, u16>(format!("t{i}")))
        .collect();
    let mut history = History {
        states: vec![BTreeMap::new()],
        written: vec![BTreeSet::new()],
    };
    let mut slots: Vec<Option<(om_mvcc::Tx, Intent)>> = (0..SLOTS).map(|_| None).collect();
    let (mut commits, mut aborts) = (0u64, 0u64);

    let finishers = (0..SLOTS).map(|slot| (slot, false, Step::Commit));
    for (slot, serializable, step) in steps.into_iter().chain(finishers) {
        let finishing = matches!(step, Step::Commit | Step::Abort | Step::Drop);
        if slots[slot].is_none() {
            if finishing {
                continue;
            }
            let isolation = if serializable {
                IsolationLevel::Serializable
            } else {
                IsolationLevel::Snapshot
            };
            let intent = Intent {
                snapshot: history.now(),
                serializable,
                writes: BTreeMap::new(),
                reads: BTreeSet::new(),
            };
            slots[slot] = Some((mgr.begin(isolation), intent));
        }
        let (tx, intent) = slots[slot].as_mut().unwrap();
        match step {
            Step::Put(t, k, v) => {
                tables[t].put(tx, k, v);
                intent.writes.insert((t, k), Some(v));
            }
            Step::Delete(t, k) => {
                tables[t].delete(tx, k);
                intent.writes.insert((t, k), None);
            }
            Step::Get(t, k) => {
                let expected = history.read(intent, (t, k));
                prop_assert_eq!(tables[t].get(tx, &k), expected, "get t{} k{}", t, k);
                if intent.serializable {
                    intent.reads.insert((t, k));
                }
            }
            Step::Scan(t, from, to, even) => {
                let keep = |v: &u16| !even || v.is_multiple_of(2);
                let expected: Vec<(u8, u16)> = (from..to)
                    .filter_map(|k| history.read(intent, (t, k)).map(|v| (k, v)))
                    .filter(|(_, v)| keep(v))
                    .collect();
                let actual = tables[t].scan_filter(tx, from..to, |_, v| keep(v));
                prop_assert_eq!(&actual, &expected, "scan t{} {}..{}", t, from, to);
                if intent.serializable {
                    intent.reads.extend(actual.iter().map(|(k, _)| (t, *k)));
                }
            }
            Step::Commit | Step::Abort | Step::Drop => {
                let (tx, intent) = slots[slot].take().unwrap();
                match step {
                    Step::Commit => {
                        let result = mgr.commit(tx);
                        if history.conflicts(&intent) {
                            prop_assert!(result.is_err(), "commit should conflict: {:?}", result);
                            aborts += 1;
                        } else {
                            let outcome = result.map_err(|e| TestCaseError::fail(e.to_string()))?;
                            history.commit(&intent);
                            prop_assert_eq!(outcome.commit_ts, history.now() as u64);
                            prop_assert_eq!(outcome.writes, intent.writes.len());
                            commits += 1;
                        }
                    }
                    Step::Abort => {
                        mgr.abort(tx);
                        aborts += 1;
                    }
                    _ => {
                        drop(tx);
                        aborts += 1;
                    }
                }
                let open = slots.iter().flatten().count();
                prop_assert_eq!(mgr.active_snapshots(), open);
                prop_assert_eq!(mgr.stats(), (commits, aborts));
                let check = mgr.begin(IsolationLevel::Snapshot);
                let visible: BTreeMap<Cell, u16> = tables
                    .iter()
                    .enumerate()
                    .flat_map(|(t, table)| {
                        table
                            .scan(&check, |_, _| true)
                            .into_iter()
                            .map(move |(k, v)| ((t, k), v))
                    })
                    .collect();
                prop_assert_eq!(&visible, &history.states[history.now()]);
                drop(check);
                aborts += 1;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of up to three open transactions over eight
    /// tables — puts, deletes, gets and scans, then commit, abort or
    /// drop, under both isolation levels — match the sequential model of
    /// the committed transactions.
    #[test]
    fn interleaved_transactions_match_the_committed_history(
        steps in prop::collection::vec(step_strategy(), 1..48)
    ) {
        check_interleaving(steps)?;
    }
}
