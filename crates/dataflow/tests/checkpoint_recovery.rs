//! Backend-backed checkpoint recovery: a crashed or rebuilt runtime must
//! restart from the last committed epoch — never replaying a committed
//! epoch's effects, never losing one — on both storage disciplines.
//!
//! Every case is parametrized over worker counts (serial, small pool,
//! pool past the partition count): crash injection races the partition
//! groups mid-epoch, and after every outcome the checkpoint store is
//! probed directly to prove no partial epoch is ever visible through it.

use om_common::config::BackendKind;
use om_dataflow::{Address, BackendCheckpointStore, Dataflow, Effects, EpochOutcome};
use om_storage::make_backend;
use proptest::prelude::*;
use std::sync::Arc;

/// Worker counts every recovery guarantee is proven at.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg {
    Add(u64),
    Total(u64, u64),
}

fn counter_state(bytes: Option<&[u8]>) -> u64 {
    bytes
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .unwrap_or(0)
}

/// `counter` keeps a per-key sum, forwards each new total to `sink`,
/// which emits it — so every committed ingress record produces exactly
/// one egress record.
fn builder(partitions: usize, max_batch: usize, workers: usize) -> om_dataflow::DataflowBuilder<Msg> {
    Dataflow::builder()
        .partitions(partitions)
        .max_batch(max_batch)
        .workers(workers)
        .register(
            "counter",
            |key: u64, state: Option<&[u8]>, msg: Msg, out: &mut Effects<Msg>| {
                if let Msg::Add(n) = msg {
                    let total = counter_state(state) + n;
                    out.set_state(total.to_le_bytes().to_vec());
                    out.send(Address::new("sink", key), Msg::Total(key, total));
                }
            },
        )
        .register(
            "sink",
            |_key, _state: Option<&[u8]>, msg: Msg, out: &mut Effects<Msg>| {
                if let Msg::Total(..) = msg {
                    out.emit(msg);
                }
            },
        )
}

fn durable_store(kind: BackendKind) -> Arc<BackendCheckpointStore> {
    Arc::new(BackendCheckpointStore::new(make_backend(kind, 4)))
}

/// Probes `store` directly and asserts the snapshot it serves is a
/// complete epoch matching the runtime's committed view: same epoch,
/// same offsets, and every keyed total a whole multiple of a per-key
/// increment — i.e. never a torn mix of two epochs.
fn assert_store_serves_whole_epoch(
    store: &BackendCheckpointStore,
    df: &Dataflow<Msg>,
    context: &str,
) {
    let snapshot = store
        .load()
        .expect("store readable")
        .expect("a commit exists");
    assert_eq!(snapshot.epoch, df.committed_epoch(), "{context}: store epoch");
    assert_eq!(
        snapshot.offsets,
        df.committed_offsets(),
        "{context}: store offsets"
    );
    for row in &snapshot.states {
        let key = row.key;
        if row.fn_type == "counter" {
            assert_eq!(
                counter_state(Some(&row.value)),
                counter_state(df.state_of(Address::new("counter", key)).as_deref()),
                "{context}: store state for key {key} diverges from the committed runtime view"
            );
        }
    }
}

#[test]
fn crash_mid_epoch_restores_committed_state_from_backend() {
    for workers in WORKER_COUNTS {
        for kind in BackendKind::ALL {
            let store = durable_store(kind);
            let df = builder(2, 4, workers).checkpoint_store(store.clone()).build();

            // Commit a first wave cleanly.
            for k in 0..8u64 {
                df.submit(Address::new("counter", k), Msg::Add(1)).unwrap();
            }
            df.run_to_completion().unwrap();
            let committed_epoch = df.committed_epoch();
            let committed_offsets = df.committed_offsets();
            assert!(committed_epoch > 0, "{kind:?}/w{workers}");

            // Second wave crashes mid-epoch, racing the partition groups.
            for k in 0..8u64 {
                df.submit(Address::new("counter", k), Msg::Add(1)).unwrap();
            }
            df.inject_crash_after(3);
            let mut crashed = false;
            while df.pending_ingress() > 0 {
                match df.run_epoch().unwrap() {
                    EpochOutcome::CrashedAndRecovered => {
                        crashed = true;
                        // Straight after the restore, epoch/offsets/state must
                        // equal the last durable checkpoint.
                        assert_eq!(df.committed_epoch(), committed_epoch, "{kind:?}/w{workers}");
                        assert_eq!(df.committed_offsets(), committed_offsets, "{kind:?}/w{workers}");
                        for k in 0..8u64 {
                            assert_eq!(
                                counter_state(df.state_of(Address::new("counter", k)).as_deref()),
                                1,
                                "{kind:?}/w{workers}: committed state of key {k} must survive the crash"
                            );
                        }
                        // The store itself never exposed the torn epoch.
                        assert_store_serves_whole_epoch(
                            &store,
                            &df,
                            &format!("{kind:?}/w{workers} post-crash"),
                        );
                    }
                    EpochOutcome::Committed { .. } | EpochOutcome::Idle => {}
                }
            }
            assert!(crashed, "{kind:?}/w{workers}: the injected crash must fire");

            // Replay finished the second wave exactly once.
            for k in 0..8u64 {
                assert_eq!(
                    counter_state(df.state_of(Address::new("counter", k)).as_deref()),
                    2,
                    "{kind:?}/w{workers}"
                );
            }
            let (_, replays, _, _) = df.stats();
            assert!(replays >= 1, "{kind:?}/w{workers}");
            let (recoveries, _) = df.recovery_stats();
            assert!(recoveries >= 2, "{kind:?}/w{workers}: build-time + crash restore");
            assert_store_serves_whole_epoch(&store, &df, &format!("{kind:?}/w{workers} final"));
        }
    }
}

/// A runtime built without a store commits into a snapshot-isolation
/// backend of its own, and a crash restores from it like from any other.
#[test]
fn runtime_without_a_store_checkpoints_into_snapshot_isolation() {
    for workers in WORKER_COUNTS {
        let df = builder(2, 4, workers).build();
        let store = df.checkpoint_store().clone();
        assert_eq!(store.backend().kind(), BackendKind::SnapshotIsolation);
        assert!(store.load().unwrap().is_none(), "w{workers}: nothing committed yet");

        for k in 0..8u64 {
            df.submit(Address::new("counter", k), Msg::Add(3)).unwrap();
        }
        df.run_to_completion().unwrap();
        assert!(store.commits() > 0, "w{workers}");
        assert_store_serves_whole_epoch(&store, &df, &format!("default/w{workers}"));

        for k in 0..8u64 {
            df.submit(Address::new("counter", k), Msg::Add(3)).unwrap();
        }
        df.inject_crash_after(3);
        df.run_to_completion().unwrap();
        let (recoveries, _) = df.recovery_stats();
        assert!(recoveries >= 2, "w{workers}: build-time + crash restore");
        for k in 0..8u64 {
            assert_eq!(
                counter_state(df.state_of(Address::new("counter", k)).as_deref()),
                6,
                "w{workers}: key {k} applied exactly twice across the crash"
            );
        }
        assert_store_serves_whole_epoch(&store, &df, &format!("default/w{workers} final"));
    }
}

#[test]
fn rebuilt_runtime_restarts_from_last_committed_epoch() {
    for workers in WORKER_COUNTS {
        for kind in BackendKind::ALL {
            let store = durable_store(kind);
            let first = builder(2, 8, workers).checkpoint_store(store.clone()).build();
            for k in 0..6u64 {
                first
                    .submit(Address::new("counter", k), Msg::Add(5))
                    .unwrap();
            }
            first.run_to_completion().unwrap();
            let epoch = first.committed_epoch();
            // Three records are appended but never processed — in flight at
            // the "failure".
            for k in 0..3u64 {
                first
                    .submit(Address::new("counter", k), Msg::Add(1))
                    .unwrap();
            }
            let ingress = first.ingress_topic();
            drop(first);

            // A fresh runtime over the same store + shared ingress log —
            // recovery works regardless of the worker count it restarts
            // with (serial writer, parallel reader and vice versa).
            let second = builder(2, 8, workers.wrapping_sub(1).max(1))
                .checkpoint_store(store.clone())
                .ingress_topic(ingress)
                .build();
            assert_eq!(second.committed_epoch(), epoch, "{kind:?}/w{workers}");
            assert_eq!(
                second.pending_ingress(),
                3,
                "{kind:?}/w{workers}: in-flight records replayable"
            );
            for k in 0..6u64 {
                assert_eq!(
                    counter_state(second.state_of(Address::new("counter", k)).as_deref()),
                    5,
                    "{kind:?}/w{workers}: committed state must survive the rebuild"
                );
            }
            second.run_to_completion().unwrap();
            assert!(second.committed_epoch() > epoch, "{kind:?}/w{workers}");
            for k in 0..3u64 {
                assert_eq!(
                    counter_state(second.state_of(Address::new("counter", k)).as_deref()),
                    6,
                    "{kind:?}/w{workers}: in-flight records applied exactly once"
                );
            }
            // New submissions keep working after the restart, and are
            // applied once.
            second
                .submit(Address::new("counter", 0), Msg::Add(1))
                .unwrap();
            second.run_to_completion().unwrap();
            assert_eq!(
                counter_state(second.state_of(Address::new("counter", 0)).as_deref()),
                7,
                "{kind:?}/w{workers}"
            );
            assert_store_serves_whole_epoch(&store, &second, &format!("{kind:?}/w{workers}"));
        }
    }
}

#[test]
fn rebuild_over_fresh_ingress_rebases_offsets_but_keeps_state() {
    for workers in WORKER_COUNTS {
        let store = durable_store(BackendKind::SnapshotIsolation);
        let first = builder(2, 8, workers).checkpoint_store(store.clone()).build();
        for k in 0..4u64 {
            first
                .submit(Address::new("counter", k), Msg::Add(2))
                .unwrap();
        }
        first.run_to_completion().unwrap();
        let epoch = first.committed_epoch();
        drop(first);

        // No shared ingress log: offsets rebase to the fresh log's start.
        let second = builder(2, 8, workers).checkpoint_store(store).build();
        assert_eq!(second.committed_epoch(), epoch, "w{workers}");
        assert_eq!(second.pending_ingress(), 0, "w{workers}");
        assert_eq!(second.committed_offsets(), vec![0, 0], "w{workers}");
        for k in 0..4u64 {
            assert_eq!(
                counter_state(second.state_of(Address::new("counter", k)).as_deref()),
                2,
                "w{workers}"
            );
        }
        second
            .submit(Address::new("counter", 0), Msg::Add(1))
            .unwrap();
        second.run_to_completion().unwrap();
        assert_eq!(
            counter_state(second.state_of(Address::new("counter", 0)).as_deref()),
            3,
            "w{workers}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once across injected crashes and a mid-run rebuild: for a
    /// random workload, crash schedule and worker count, every submitted
    /// record is applied exactly once (state == sum, one egress per
    /// record), no committed epoch is replayed or lost, and the
    /// checkpoint store never serves a partial epoch — on both backends.
    #[test]
    fn recovered_dataflow_never_replays_nor_loses_a_committed_epoch(
        records in 9u64..60,
        keys in 1u64..6,
        max_batch in 1usize..12,
        crash_at in 1u64..20,
        workers in 1usize..5,
        rebuild_mid_run in any::<bool>(),
        backend_si in any::<bool>(),
    ) {
        let kind = if backend_si {
            BackendKind::SnapshotIsolation
        } else {
            BackendKind::Eventual
        };
        let store = durable_store(kind);
        let mut df = builder(2, max_batch, workers).checkpoint_store(store.clone()).build();
        for i in 0..records {
            df.submit(Address::new("counter", i % keys), Msg::Add(1)).unwrap();
        }
        df.inject_crash_after(crash_at);

        let mut egress_total = 0u64;
        let mut last_epoch = df.committed_epoch();
        let mut rebuilt = false;
        let mut guard = 0;
        while df.pending_ingress() > 0 {
            guard += 1;
            prop_assert!(guard < 10_000, "runaway loop");
            let outcome = df.run_epoch().unwrap();
            let epoch = df.committed_epoch();
            match outcome {
                EpochOutcome::Committed { .. } => {
                    prop_assert_eq!(epoch, last_epoch + 1, "commit advances exactly one epoch");
                }
                EpochOutcome::CrashedAndRecovered => {
                    prop_assert_eq!(epoch, last_epoch, "recovery never rewinds a committed epoch");
                }
                EpochOutcome::Idle => {}
            }
            // The store never exposes a half-committed epoch, crash or not.
            if let Some(snapshot) = store.load().unwrap() {
                prop_assert_eq!(snapshot.epoch, epoch, "store serves exactly the committed epoch");
                prop_assert_eq!(snapshot.offsets, df.committed_offsets());
            }
            last_epoch = epoch;
            egress_total += df.take_committed_egress().len() as u64;
            if rebuild_mid_run && !rebuilt && df.pending_ingress() > 0 {
                // Simulate a process restart halfway through.
                rebuilt = true;
                let ingress = df.ingress_topic();
                drop(df);
                df = builder(2, max_batch, workers)
                    .checkpoint_store(store.clone())
                    .ingress_topic(ingress)
                    .build();
                prop_assert_eq!(df.committed_epoch(), last_epoch, "rebuild restarts from the last commit");
            }
        }

        // Exactly once: state holds the full sum, one egress per record.
        let total: u64 = (0..keys)
            .map(|k| counter_state(df.state_of(Address::new("counter", k)).as_deref()))
            .sum();
        prop_assert_eq!(total, records, "every record applied exactly once");
        prop_assert_eq!(egress_total, records, "one egress per committed record");
        prop_assert_eq!(df.pending_ingress(), 0);
    }
}

mod common;
use common::{ledger_builder, model, submit_all, workload, Observed, RowMsg, LEDGER};

/// Row state round-trips through the checkpoint store over all three
/// backend disciplines — including deletions, a crash that discards an
/// epoch's dirty rows, and a rebuild: the store serves rows in order, and
/// the rebuilt runtime's **live** rows iterate in order too (a fold
/// processed after `recover` sees exactly them).
#[test]
fn row_state_round_trips_through_every_store_and_a_rebuild() {
    let ops = workload(120, 4);
    let (first_half, second_half) = ops.split_at(60);
    for workers in WORKER_COUNTS {
        for kind in BackendKind::ALL {
            let store = durable_store(kind);
            let context = format!("{}/w{workers}", kind.label());
            let mut observed = Observed::default();
            let first = ledger_builder(2, 8, workers)
                .checkpoint_store(store.clone())
                .build();
            submit_all(&first, first_half);
            first.inject_crash_after(25);
            first.run_to_completion().unwrap();
            assert_eq!(first.stats().1, 1, "{context}: the crash fired");
            observed.absorb(first.take_committed_egress());
            // In flight at the "failure": appended, never processed.
            submit_all(&first, second_half);
            let ingress = first.ingress_topic();
            drop(first);

            let second = ledger_builder(2, 8, workers)
                .checkpoint_store(store.clone())
                .ingress_topic(ingress)
                .build();
            assert_eq!(second.pending_ingress(), 60, "{context}: in-flight records replay");
            second.run_to_completion().unwrap();
            // One more fold per ledger reads the live rows the rebuild
            // restored and the replay extended.
            let mut all_ops = ops.clone();
            for key in 0..4u64 {
                second
                    .submit(Address::new(LEDGER, key), RowMsg::Fold)
                    .unwrap();
                all_ops.push((key, RowMsg::Fold));
            }
            second.run_to_completion().unwrap();
            observed.absorb(second.take_committed_egress());
            observed.read_rows(&second, 4);
            assert_eq!(observed, model(&all_ops), "{context}");

            // The snapshot the store serves holds exactly those rows.
            let snapshot = store.load().unwrap().expect("committed");
            let stored: usize = observed.rows.values().map(Vec::len).sum();
            assert_eq!(snapshot.states.len(), stored, "{context}: deleted rows are gone");
        }
    }
}

/// Persists `counter` adds as `key ++ amount`; nothing else reaches the
/// ingress log of the test topology.
struct AddCodec;

impl om_log::RecordCodec<(Address, Msg)> for AddCodec {
    fn encode(&self, (to, msg): &(Address, Msg)) -> om_common::OmResult<Vec<u8>> {
        let Msg::Add(n) = msg else {
            unreachable!("only adds are submitted")
        };
        Ok([to.key.to_le_bytes(), n.to_le_bytes()].concat())
    }

    fn decode(&self, bytes: &[u8]) -> om_common::OmResult<(Address, Msg)> {
        let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        Ok((Address::new("counter", word(0)), Msg::Add(word(1))))
    }
}

/// A submit the ingress log refuses (a persistent log wedged by a full
/// disk) is a typed error, not a panic, and leaves nothing behind: no
/// pending record, no effect, and the records accepted before it still
/// commit.
#[test]
fn submit_into_a_wedged_ingress_log_returns_the_error() {
    let dir = std::env::temp_dir().join(format!("om-df-wedged-ingress-{}", std::process::id()));
    let vfs = om_storage::FaultVfs::new(0xD15C);
    let topic = om_log::PersistentTopic::open_with_vfs(
        &dir,
        "ingress",
        2,
        Arc::new(AddCodec),
        Default::default(),
        Arc::new(vfs.clone()),
    )
    .unwrap();
    let df = builder(2, 8, 1).ingress_topic(Arc::new(topic)).build();
    df.submit(Address::new("counter", 1), Msg::Add(2)).unwrap();
    // Clones share one fault schedule: the disk is full from here on.
    let _ = vfs.clone().disk_full_after(0);
    let err = df
        .submit(Address::new("counter", 1), Msg::Add(40))
        .unwrap_err();
    assert_eq!(err.label(), "wedged", "{err}");
    assert_eq!(
        df.pending_ingress(),
        1,
        "the refused record was never submitted"
    );
    df.run_to_completion().unwrap();
    assert_eq!(
        counter_state(df.state_of(Address::new("counter", 1)).as_deref()),
        2
    );
    assert_eq!(df.take_committed_egress(), vec![Msg::Total(1, 2)]);
    drop(df);
    let _ = std::fs::remove_dir_all(&dir);
}
