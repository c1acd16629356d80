//! Concurrency stress tests for the dataflow runtime: many threads
//! hammering [`Dataflow::try_run_epoch`] must never overlap epochs or
//! deadlock against [`Dataflow::recover`], and a worker panic must
//! poison its epoch deterministically — full rollback, offsets
//! untouched, clean replay.

use om_dataflow::{Address, Dataflow, Effects, EpochOutcome};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Counter → sink cascade: every ingress record updates a per-key sum
/// and produces exactly one egress record via a cross-partition send.
fn build(partitions: usize, max_batch: usize, workers: usize) -> Dataflow<(u64, u64)> {
    Dataflow::builder()
        .partitions(partitions)
        .max_batch(max_batch)
        .workers(workers)
        .register(
            "counter",
            |key: u64, state: Option<&[u8]>, msg: (u64, u64), out: &mut Effects<(u64, u64)>| {
                let cur = state
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                let next = cur + msg.1;
                out.set_state(next.to_le_bytes().to_vec());
                out.send(Address::new("sink", key), (key, next));
            },
        )
        .register(
            "sink",
            |_key, _state: Option<&[u8]>, msg: (u64, u64), out: &mut Effects<(u64, u64)>| {
                out.emit(msg);
            },
        )
        .build()
}

fn state_sum(df: &Dataflow<(u64, u64)>, keys: u64) -> u64 {
    (0..keys)
        .map(|k| {
            df.state_of(Address::new("counter", k))
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .unwrap_or(0)
        })
        .sum()
}

/// N driver threads racing `try_run_epoch` while producers keep
/// submitting: epochs must serialize (the sum of `Committed` outcomes
/// observed across all threads equals the committed-epoch counter — no
/// epoch ever runs twice or overlaps another) and nothing is lost.
#[test]
fn racing_try_run_epoch_serializes_epochs_exactly() {
    for workers in [1usize, 2, 4] {
        const RECORDS: u64 = 400;
        const KEYS: u64 = 16;
        let df = Arc::new(build(4, 16, workers));
        let committed = Arc::new(AtomicU64::new(0));
        // Drivers may stop only once *both* producers have finished:
        // one producer done while the other still submits leaves the
        // ingress momentarily empty but not final.
        let producers_done = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            // Two producers racing the drivers.
            for half in 0..2u64 {
                let df = df.clone();
                let done = producers_done.clone();
                scope.spawn(move || {
                    for i in 0..RECORDS / 2 {
                        let k = (half * RECORDS / 2 + i) % KEYS;
                        df.submit(Address::new("counter", k), (k, 1)).unwrap();
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Four drivers hammering try_run_epoch.
            for _ in 0..4 {
                let df = df.clone();
                let committed = committed.clone();
                let done = producers_done.clone();
                scope.spawn(move || loop {
                    match df.try_run_epoch().unwrap() {
                        Some(EpochOutcome::Committed { .. }) => {
                            committed.fetch_add(1, Ordering::SeqCst);
                        }
                        Some(_) | None => std::thread::yield_now(),
                    }
                    if done.load(Ordering::SeqCst) == 2 && df.pending_ingress() == 0 {
                        break;
                    }
                });
            }
        });

        assert_eq!(
            committed.load(Ordering::SeqCst),
            df.committed_epoch(),
            "every observed commit is exactly one epoch — no overlap, no double-count (workers={workers})"
        );
        assert_eq!(state_sum(&df, KEYS), RECORDS, "workers={workers}");
        assert_eq!(
            df.committed_egress_len() as u64,
            RECORDS,
            "one egress per record, none duplicated by racing drivers (workers={workers})"
        );
    }
}

/// `recover()` racing live epochs: restores only ever land between
/// epochs (both serialize on the epoch mutex), never deadlock against
/// the worker-pool barrier, and never corrupt the exactly-once
/// accounting — recovery restores the last commit, so the replay still
/// converges to exact totals.
#[test]
fn recover_racing_epochs_never_deadlocks_nor_corrupts() {
    for workers in [1usize, 2, 4] {
        const RECORDS: u64 = 200;
        const KEYS: u64 = 8;
        let df = Arc::new(build(4, 8, workers));
        for i in 0..RECORDS {
            df.submit(Address::new("counter", i % KEYS), (i % KEYS, 1))
                .unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            // A recovery thread repeatedly restoring from the store.
            let recover_df = df.clone();
            let recover_stop = stop.clone();
            scope.spawn(move || {
                while !recover_stop.load(Ordering::SeqCst) {
                    recover_df.recover().unwrap();
                    std::thread::yield_now();
                }
            });
            // Drivers pushing epochs through at the same time.
            for _ in 0..3 {
                let df = df.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    while df.pending_ingress() > 0 {
                        let _ = df.try_run_epoch().unwrap();
                    }
                    stop.store(true, Ordering::SeqCst);
                });
            }
        });

        assert_eq!(df.pending_ingress(), 0, "workers={workers}");
        assert_eq!(
            state_sum(&df, KEYS),
            RECORDS,
            "recovery mid-run must not lose or double-apply records (workers={workers})"
        );
    }
}

/// A panicking logic function poisons the epoch: `run_epoch` returns an
/// error, ALL staged work is discarded (including partitions that
/// finished cleanly before the panic), offsets stay untouched, and once
/// the fault clears the replay applies everything exactly once.
#[test]
fn worker_panic_poisons_epoch_and_replay_is_exactly_once() {
    // workers(1) runs the serial loop in the caller's thread; it must give
    // a logic panic the same verdict as a pool worker does.
    for workers in [1usize, 2, 4] {
        let bomb = Arc::new(AtomicBool::new(true));
        let armed = bomb.clone();
        let df = Dataflow::builder()
            .partitions(4)
            .max_batch(64)
            .workers(workers)
            .register(
                "counter",
                move |_key: u64, state: Option<&[u8]>, msg: (u64, u64), out: &mut Effects<(u64, u64)>| {
                    // Key 7 detonates while other partitions' records
                    // process fine — some groups finish before the panic.
                    if msg.0 == 7 && armed.load(Ordering::SeqCst) {
                        panic!("injected logic fault");
                    }
                    let cur = state
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                        .unwrap_or(0);
                    let next = cur + msg.1;
                    out.set_state(next.to_le_bytes().to_vec());
                    out.emit((msg.0, next));
                },
            )
            .build();
        for k in 0..12u64 {
            df.submit(Address::new("counter", k), (k, 1)).unwrap();
        }

        let err = df.run_epoch().expect_err("poisoned epoch must surface as an error");
        assert!(
            err.to_string().contains("poisoned"),
            "error names the poisoning: {err} (workers={workers})"
        );
        // Deterministic rollback: nothing committed, nothing staged
        // leaked, offsets untouched.
        assert_eq!(df.committed_epoch(), 0, "workers={workers}");
        assert_eq!(df.committed_egress_len(), 0, "workers={workers}");
        assert_eq!(df.committed_offsets(), vec![0; 4], "workers={workers}");
        for k in 0..12u64 {
            assert_eq!(
                df.state_of(Address::new("counter", k)),
                None,
                "state of key {k} leaked through the poisoned epoch (workers={workers})"
            );
        }
        let (_, replays, _, _) = df.stats();
        assert!(replays >= 1, "poisoning counts as a replay (workers={workers})");

        // Fault cleared: the replay applies every record exactly once.
        bomb.store(false, Ordering::SeqCst);
        df.run_to_completion().unwrap();
        assert_eq!(state_sum(&df, 12), 12, "workers={workers}");
        assert_eq!(df.committed_egress_len(), 12, "workers={workers}");
    }
}

/// A logic `Err` (e.g. a state row that does not decode) gets the same
/// verdict as a panic at every worker count: the epoch's dirty rows are
/// discarded — including those of invocations that ran before the
/// failing one — offsets stay, and the replay is exactly-once.
#[test]
fn logic_error_poisons_epoch_and_replay_is_exactly_once() {
    for workers in [1usize, 2, 4] {
        let bomb = Arc::new(AtomicBool::new(true));
        let armed = bomb.clone();
        let df = Dataflow::builder()
            .partitions(4)
            .max_batch(64)
            .workers(workers)
            .register(
                "counter",
                om_dataflow::RowFn(
                    move |_key: u64,
                          state: om_dataflow::StateView<'_>,
                          msg: (u64, u64),
                          out: &mut Effects<(u64, u64)>| {
                        if msg.0 == 7 && armed.load(Ordering::SeqCst) {
                            return Err(om_common::OmError::Internal("row does not decode".into()));
                        }
                        let cur = state
                            .get(b"")
                            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                            .unwrap_or(0);
                        out.set_state((cur + msg.1).to_le_bytes().to_vec());
                        out.emit((msg.0, cur + msg.1));
                        Ok(())
                    },
                ),
            )
            .build();
        for k in 0..12u64 {
            df.submit(Address::new("counter", k), (k, 1)).unwrap();
        }
        let err = df.run_epoch().expect_err("a failing function poisons the epoch");
        assert!(
            err.to_string().contains("poisoned") && err.to_string().contains("row does not decode"),
            "error names the poisoning and its cause: {err} (workers={workers})"
        );
        assert_eq!(df.committed_epoch(), 0, "workers={workers}");
        assert_eq!(df.committed_offsets(), vec![0; 4], "workers={workers}");
        assert_eq!(df.stats().1, 1, "one replay (workers={workers})");
        bomb.store(false, Ordering::SeqCst);
        df.run_to_completion().unwrap();
        assert_eq!(state_sum(&df, 12), 12, "workers={workers}");
        assert_eq!(df.committed_egress_len(), 12, "workers={workers}");
    }
}

/// The pool survives a poisoned epoch: after a worker panic the same
/// pool keeps driving later epochs (threads are long-lived; a panic is
/// contained to the job, not the thread).
#[test]
fn pool_survives_poisoned_epochs_and_keeps_committing() {
    let bomb = Arc::new(AtomicBool::new(false));
    let armed = bomb.clone();
    let df = Dataflow::builder()
        .partitions(4)
        .max_batch(8)
        .workers(4)
        .register(
            "counter",
            move |_key: u64, state: Option<&[u8]>, msg: (u64, u64), out: &mut Effects<(u64, u64)>| {
                if armed.load(Ordering::SeqCst) {
                    panic!("injected fault");
                }
                let cur = state
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                out.set_state((cur + msg.1).to_le_bytes().to_vec());
            },
        )
        .build();
    for round in 0..3u64 {
        for k in 0..8u64 {
            df.submit(Address::new("counter", k), (k, 1)).unwrap();
        }
        // Poison one epoch per round, then let it through.
        bomb.store(true, Ordering::SeqCst);
        assert!(df.run_epoch().is_err(), "round {round}: armed epoch poisons");
        bomb.store(false, Ordering::SeqCst);
        df.run_to_completion().unwrap();
        assert_eq!(
            state_sum(&df, 8),
            8 * (round + 1),
            "round {round}: pool recovered and committed exactly once"
        );
    }
}

/// Submits `(k, 1)` to `counter` for every key below `keys` and returns
/// the ingress partition each record landed in (the key's partition).
fn submit_counting(df: &Dataflow<(u64, u64)>, keys: u64) -> Vec<usize> {
    let ingress = df.ingress_topic();
    let ends = || -> Vec<u64> { (0..df.partitions()).map(|p| ingress.end_offset(p)).collect() };
    (0..keys)
        .map(|k| {
            let before = ends();
            df.submit(Address::new("counter", k), (k, 1)).unwrap();
            let after = ends();
            (0..df.partitions())
                .find(|&p| after[p] > before[p])
                .expect("the record landed in one partition")
        })
        .collect()
}

/// The thread that drives an epoch runs group 0 (the partitions
/// `p ≡ 0 mod G`) itself; the other groups run on the pool. At
/// `workers(1)` every invocation runs on the caller.
#[test]
fn driver_runs_group_zero_and_the_pool_runs_the_rest() {
    for workers in [1usize, 2] {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let record = seen.clone();
        let df = Dataflow::builder()
            .partitions(4)
            .max_batch(64)
            .workers(workers)
            .register(
                "counter",
                move |key: u64, _state: Option<&[u8]>, _msg: (u64, u64), _out: &mut Effects<(u64, u64)>| {
                    let name = std::thread::current().name().map(str::to_string);
                    record.lock().unwrap().push((key, name));
                },
            )
            .build();
        let partition = submit_counting(&df, 16);
        let caller = std::thread::current().name().map(str::to_string);
        assert!(matches!(df.run_epoch().unwrap(), EpochOutcome::Committed { ingress: 16, .. }));

        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 16, "workers={workers}");
        for (key, name) in seen.iter() {
            let group = partition[*key as usize] % workers;
            let expected = match group {
                0 => caller.clone(),
                _ => Some("om-df-worker-0".to_string()),
            };
            assert_eq!(
                *name, expected,
                "key {key} (partition {}, group {group}) ran on the wrong thread (workers={workers})",
                partition[*key as usize]
            );
        }
        if workers == 2 {
            assert!(
                seen.iter().any(|(_, name)| *name != caller),
                "some key lands in group 1, so the pool ran a group"
            );
        }
    }
}

/// A fault in **any** group poisons the whole epoch — the driver's own
/// group 0 included. The failing key is walked over every partition, at
/// two pool sizes, as a panic and as a logic `Err`: nothing commits,
/// the offsets stay, the epoch counts one replay, and once the fault
/// clears the replay is exactly-once.
#[test]
fn a_fault_in_any_group_poisons_the_whole_epoch() {
    const KEYS: u64 = 16;
    for workers in [2usize, 4] {
        for panics in [true, false] {
            for bad_partition in 0..4 {
                let bad = Arc::new(AtomicU64::new(u64::MAX));
                let armed = bad.clone();
                let df = Dataflow::builder()
                    .partitions(4)
                    .max_batch(64)
                    .workers(workers)
                    .register(
                        "counter",
                        om_dataflow::RowFn(
                            move |key: u64,
                                  state: om_dataflow::StateView<'_>,
                                  msg: (u64, u64),
                                  out: &mut Effects<(u64, u64)>| {
                                if key == armed.load(Ordering::SeqCst) {
                                    if panics {
                                        panic!("injected logic fault");
                                    }
                                    return Err(om_common::OmError::Internal(
                                        "row does not decode".into(),
                                    ));
                                }
                                let cur = state
                                    .get(b"")
                                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                                    .unwrap_or(0);
                                out.set_state((cur + msg.1).to_le_bytes().to_vec());
                                out.emit((msg.0, cur + msg.1));
                                Ok(())
                            },
                        ),
                    )
                    .build();
                let partition = submit_counting(&df, KEYS);
                let key = (0..KEYS)
                    .find(|&k| partition[k as usize] == bad_partition)
                    .expect("some key lands in every partition");
                bad.store(key, Ordering::SeqCst);
                let case = format!(
                    "workers={workers} panics={panics} key={key} partition={bad_partition}"
                );

                let err = df.run_epoch().expect_err("a faulty group poisons the epoch");
                assert!(err.to_string().contains("poisoned"), "{err} ({case})");
                assert_eq!(df.committed_epoch(), 0, "{case}");
                assert_eq!(df.committed_egress_len(), 0, "{case}");
                assert_eq!(df.committed_offsets(), vec![0; 4], "{case}");
                assert_eq!(state_sum(&df, KEYS), 0, "{case}");
                assert_eq!(df.stats().1, 1, "one replay ({case})");

                bad.store(u64::MAX, Ordering::SeqCst);
                df.run_to_completion().unwrap();
                assert_eq!(state_sum(&df, KEYS), KEYS, "{case}");
                assert_eq!(df.committed_egress_len() as u64, KEYS, "{case}");
                assert_eq!(df.committed_offsets().iter().sum::<u64>(), KEYS, "{case}");
            }
        }
    }
}
