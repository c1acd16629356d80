//! Integration tests for the dataflow runtime: epoch processing, per-key
//! state, internal messaging, crash recovery and the exactly-once
//! guarantee.
//!
//! Every case runs at each worker count in [`WORKER_COUNTS`]: the serial
//! baseline (`workers(1)`), a two-thread pool and a pool past the
//! partition count — the guarantees must hold identically whether the
//! epoch is pumped by one thread or raced by many.

use om_dataflow::{Address, Dataflow, Effects};
use std::sync::Arc;

/// Worker counts every guarantee is proven at: serial baseline, small
/// pool, pool at/above core count. An explicit `workers(n > 1)` always
/// fans out (even on a single-core host), so the parallel path is
/// exercised regardless of the machine.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Messages used by the test topology.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg {
    /// Add to a counter function's state.
    Add(u64),
    /// Counter forwards its new total to the "sink" function, which emits
    /// an egress record.
    AddAndReport(u64),
    /// Carries a total to the sink.
    Total(u64, u64), // (key, total)
}

fn counter_state(bytes: Option<&[u8]>) -> u64 {
    bytes
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .unwrap_or(0)
}

/// Builds a two-function topology: `counter` keeps a per-key running sum;
/// `sink` emits every received total to the egress.
fn build(partitions: usize, max_batch: usize, workers: usize) -> Dataflow<Msg> {
    Dataflow::builder()
        .partitions(partitions)
        .max_batch(max_batch)
        .workers(workers)
        .register("counter", |key: u64, state: Option<&[u8]>, msg: Msg, out: &mut Effects<Msg>| {
            let mut total = counter_state(state);
            match msg {
                Msg::Add(n) => {
                    total += n;
                    out.set_state(total.to_le_bytes().to_vec());
                }
                Msg::AddAndReport(n) => {
                    total += n;
                    out.set_state(total.to_le_bytes().to_vec());
                    out.send(Address::new("sink", key), Msg::Total(key, total));
                }
                Msg::Total(..) => unreachable!("counter never receives totals"),
            }
        })
        .register("sink", |_key, _state: Option<&[u8]>, msg: Msg, out: &mut Effects<Msg>| {
            if let Msg::Total(..) = msg {
                out.emit(msg);
            }
        })
        .build()
}

#[test]
fn worker_count_resolution() {
    // Explicit counts are honored (capped at the partition count);
    // workers(0) auto-resolves to something >= 1.
    assert_eq!(build(4, 16, 1).workers(), 1);
    assert_eq!(build(4, 16, 2).workers(), 2);
    assert_eq!(build(4, 16, 4).workers(), 4);
    assert_eq!(build(2, 16, 8).workers(), 2, "capped at partitions");
    assert!(build(4, 16, 0).workers() >= 1, "auto resolves to >= 1");
}

#[test]
fn empty_runtime_is_idle() {
    for workers in WORKER_COUNTS {
        let df = build(2, 16, workers);
        assert_eq!(df.run_epoch().unwrap(), om_dataflow::EpochOutcome::Idle);
        assert_eq!(df.pending_ingress(), 0);
    }
}

#[test]
fn single_epoch_processes_and_commits_state() {
    for workers in WORKER_COUNTS {
        let df = build(4, 64, workers);
        for i in 0..10 {
            df.submit(Address::new("counter", i % 3), Msg::Add(1))
                .unwrap();
        }
        let outcome = df.run_epoch().unwrap();
        match outcome {
            om_dataflow::EpochOutcome::Committed { ingress, invocations } => {
                assert_eq!(ingress, 10, "workers={workers}");
                assert_eq!(invocations, 10, "workers={workers}");
            }
            other => panic!("expected commit, got {other:?} (workers={workers})"),
        }
        let totals: u64 = (0..3)
            .map(|k| counter_state(df.state_of(Address::new("counter", k)).as_deref()))
            .sum();
        assert_eq!(totals, 10, "workers={workers}");
    }
}

#[test]
fn per_key_state_is_independent() {
    for workers in WORKER_COUNTS {
        let df = build(4, 64, workers);
        df.submit(Address::new("counter", 1), Msg::Add(5)).unwrap();
        df.submit(Address::new("counter", 2), Msg::Add(7)).unwrap();
        df.run_to_completion().unwrap();
        assert_eq!(counter_state(df.state_of(Address::new("counter", 1)).as_deref()), 5);
        assert_eq!(counter_state(df.state_of(Address::new("counter", 2)).as_deref()), 7);
        assert_eq!(df.state_of(Address::new("counter", 3)), None);
    }
}

#[test]
fn internal_sends_are_processed_within_the_epoch() {
    for workers in WORKER_COUNTS {
        let df = build(4, 64, workers);
        for _ in 0..20 {
            df.submit(Address::new("counter", 9), Msg::AddAndReport(1))
                .unwrap();
        }
        let outcome = df.run_epoch().unwrap();
        match outcome {
            om_dataflow::EpochOutcome::Committed { ingress, invocations } => {
                assert_eq!(ingress, 20, "workers={workers}");
                assert_eq!(
                    invocations, 40,
                    "each ingress spawns one sink invocation (workers={workers})"
                );
            }
            other => panic!("{other:?} (workers={workers})"),
        }
        let egress = df.committed_egress();
        assert_eq!(egress.len(), 20, "workers={workers}");
        // Per-key FIFO: totals for key 9 must be 1..=20 in order, no
        // matter how many workers raced the epoch.
        let totals: Vec<u64> = egress
            .iter()
            .map(|m| match m {
                Msg::Total(9, t) => *t,
                other => panic!("unexpected egress {other:?}"),
            })
            .collect();
        assert_eq!(totals, (1..=20).collect::<Vec<_>>(), "workers={workers}");
    }
}

#[test]
fn multiple_epochs_respect_batch_limit() {
    for workers in WORKER_COUNTS {
        let df = build(2, 8, workers);
        for i in 0..100 {
            df.submit(Address::new("counter", i), Msg::Add(1)).unwrap();
        }
        let epochs = df.run_to_completion().unwrap();
        assert!(epochs >= 100 / (8 * 2), "expected several epochs, got {epochs}");
        assert_eq!(df.pending_ingress(), 0);
        let (committed, replays, invocations, unroutable) = df.stats();
        assert_eq!(committed, epochs);
        assert_eq!(replays, 0);
        assert_eq!(invocations, 100, "workers={workers}");
        assert_eq!(unroutable, 0);
    }
}

#[test]
fn unroutable_messages_are_counted_not_fatal() {
    for workers in WORKER_COUNTS {
        let df = build(2, 8, workers);
        df.submit(Address::new("ghost", 1), Msg::Add(1)).unwrap();
        df.submit(Address::new("counter", 1), Msg::Add(1)).unwrap();
        df.run_to_completion().unwrap();
        let (_, _, _, unroutable) = df.stats();
        assert_eq!(unroutable, 1, "workers={workers}");
        assert_eq!(counter_state(df.state_of(Address::new("counter", 1)).as_deref()), 1);
    }
}

#[test]
fn crash_rolls_back_and_replay_is_exactly_once() {
    for workers in WORKER_COUNTS {
        let df = build(4, 32, workers);
        for i in 0..30 {
            df.submit(Address::new("counter", i % 5), Msg::AddAndReport(1))
                .unwrap();
        }
        // Crash mid-epoch.
        df.inject_crash_after(10);
        let outcome = df.run_epoch().unwrap();
        assert_eq!(
            outcome,
            om_dataflow::EpochOutcome::CrashedAndRecovered,
            "workers={workers}"
        );
        // Nothing leaked: state and egress rolled back.
        assert_eq!(df.committed_egress_len(), 0, "workers={workers}");
        let sum_after_crash: u64 = (0..5)
            .map(|k| counter_state(df.state_of(Address::new("counter", k)).as_deref()))
            .sum();
        assert_eq!(sum_after_crash, 0, "state rollback incomplete (workers={workers})");

        // Replay to completion: exactly 30 additions and 30 egress records.
        df.run_to_completion().unwrap();
        let sum: u64 = (0..5)
            .map(|k| counter_state(df.state_of(Address::new("counter", k)).as_deref()))
            .sum();
        assert_eq!(sum, 30, "every input applied exactly once (workers={workers})");
        assert_eq!(
            df.committed_egress_len(),
            30,
            "no lost or duplicated egress (workers={workers})"
        );
        let (_, replays, _, _) = df.stats();
        assert_eq!(replays, 1, "workers={workers}");
    }
}

#[test]
fn repeated_crashes_still_converge_exactly_once() {
    for workers in WORKER_COUNTS {
        let df = build(2, 16, workers);
        for i in 0..40 {
            df.submit(Address::new("counter", i % 4), Msg::AddAndReport(1))
                .unwrap();
        }
        let mut crashes = 0;
        for n in [3u64, 7, 11] {
            df.inject_crash_after(n);
            if df.run_epoch().unwrap() == om_dataflow::EpochOutcome::CrashedAndRecovered {
                crashes += 1;
            }
        }
        assert!(crashes >= 2, "crash injection mostly fired ({crashes}, workers={workers})");
        df.run_to_completion().unwrap();
        let sum: u64 = (0..4)
            .map(|k| counter_state(df.state_of(Address::new("counter", k)).as_deref()))
            .sum();
        assert_eq!(sum, 40, "workers={workers}");
        assert_eq!(df.committed_egress_len(), 40, "workers={workers}");
    }
}

/// Crash injection firing **while partitions race**: the batch is skewed
/// so most partitions hold one record (their group finishes and stages
/// almost immediately) while one hot key carries a long cascade; the
/// countdown is armed to fire deep into that cascade — i.e. after other
/// partitions are already done and parked at the epoch barrier. The
/// poisoned epoch must discard the finished partitions' staged work too.
#[test]
fn crash_firing_while_some_partitions_are_already_done_discards_everything() {
    for workers in [2usize, 4] {
        let df = build(8, 256, workers);
        // One record per key across many partitions: cheap groups.
        for k in 0..16 {
            df.submit(Address::new("counter", k), Msg::AddAndReport(1))
                .unwrap();
        }
        // One hot key with a deep cascade: 64 ingress records, each
        // spawning a sink invocation (128 invocations on this key alone).
        for _ in 0..64 {
            df.submit(Address::new("counter", 1000), Msg::AddAndReport(1))
                .unwrap();
        }
        // Fire near the end of the total invocation budget (16*2 + 64*2
        // = 160): by then the cheap groups have long staged their work.
        df.inject_crash_after(150);
        let outcome = df.run_epoch().unwrap();
        assert_eq!(
            outcome,
            om_dataflow::EpochOutcome::CrashedAndRecovered,
            "workers={workers}"
        );
        // No partition's work survived — not even the ones that finished
        // cleanly before the crash fired.
        assert_eq!(df.committed_egress_len(), 0, "workers={workers}");
        assert_eq!(df.committed_epoch(), 0, "workers={workers}");
        for k in (0..16).chain([1000]) {
            assert_eq!(
                df.state_of(Address::new("counter", k)),
                None,
                "partition state leaked through the poisoned epoch (key {k}, workers={workers})"
            );
        }
        assert_eq!(
            df.committed_offsets(),
            vec![0; 8],
            "offsets advanced through a poisoned epoch (workers={workers})"
        );
        // Replay: exactly-once totals as if the crash never happened.
        df.run_to_completion().unwrap();
        assert_eq!(
            counter_state(df.state_of(Address::new("counter", 1000)).as_deref()),
            64,
            "workers={workers}"
        );
        assert_eq!(df.committed_egress_len(), 16 + 64, "workers={workers}");
    }
}

#[test]
fn submissions_during_epoch_are_deferred_not_lost() {
    for workers in WORKER_COUNTS {
        let df = Arc::new(build(2, 4, workers));
        for i in 0..8 {
            df.submit(Address::new("counter", i), Msg::Add(1)).unwrap();
        }
        // Concurrent submitter racing with epochs.
        let df2 = df.clone();
        let submitter = std::thread::spawn(move || {
            for i in 8..48 {
                df2.submit(Address::new("counter", i), Msg::Add(1)).unwrap();
                if i % 5 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut committed = 0;
        while committed < 20 && df.pending_ingress() > 0 || !submitter.is_finished() {
            if let om_dataflow::EpochOutcome::Committed { .. } = df.run_epoch().unwrap() {
                committed += 1;
            }
        }
        submitter.join().unwrap();
        df.run_to_completion().unwrap();
        let total: u64 = (0..48)
            .map(|k| counter_state(df.state_of(Address::new("counter", k)).as_deref()))
            .sum();
        assert_eq!(total, 48, "all racing submissions eventually processed (workers={workers})");
    }
}

#[test]
fn take_committed_egress_drains() {
    for workers in WORKER_COUNTS {
        let df = build(2, 16, workers);
        df.submit(Address::new("counter", 1), Msg::AddAndReport(1))
            .unwrap();
        df.run_to_completion().unwrap();
        assert_eq!(df.take_committed_egress().len(), 1, "workers={workers}");
        assert_eq!(df.committed_egress_len(), 0);
    }
}

mod common;
use common::{ledger_builder, model, submit_all, workload, Observed};

/// Row-keyed state, parallel ≡ serial ≡ the sequential model: the final
/// rows and every per-key fold (which reads the rows earlier messages of
/// the same epoch wrote) are identical at every worker count.
#[test]
fn row_state_matches_the_sequential_model_at_every_worker_count() {
    let ops = workload(300, 5);
    let expected = model(&ops);
    for workers in WORKER_COUNTS {
        // A small batch spreads the run over many epochs; within each,
        // several messages still hit the same ledger.
        let df = ledger_builder(4, 16, workers).build();
        submit_all(&df, &ops);
        df.run_to_completion().unwrap();
        let mut observed = Observed::default();
        observed.absorb(df.take_committed_egress());
        observed.read_rows(&df, 5);
        assert_eq!(observed, expected, "workers={workers}");
    }
}

/// A crash after **every possible invocation count** of the run: the
/// dirty rows of the interrupted epoch are discarded, the batch replays,
/// and rows and folds still equal the model — no append applied twice,
/// no tombstone lost, no fold emitted twice.
#[test]
fn row_state_survives_a_crash_at_every_invocation() {
    let ops = workload(60, 3);
    let expected = model(&ops);
    for workers in WORKER_COUNTS {
        for crash_at in 0..ops.len() as u64 {
            let df = ledger_builder(2, 8, workers).build();
            submit_all(&df, &ops);
            // The countdown spans epochs: it fires at the crash_at-th
            // invocation of the run, wherever that epoch boundary falls.
            df.inject_crash_after(crash_at);
            df.run_to_completion().unwrap();
            let (_, replays, _, _) = df.stats();
            assert_eq!(replays, 1, "crash {crash_at} fired once (workers={workers})");
            let mut observed = Observed::default();
            observed.absorb(df.take_committed_egress());
            observed.read_rows(&df, 3);
            assert_eq!(observed, expected, "crash_at={crash_at} workers={workers}");
        }
    }
}
