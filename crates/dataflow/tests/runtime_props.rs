//! Property tests for the dataflow runtime: exactly-once under arbitrary
//! crash points, state equivalence with a sequential model, and
//! parallel ≡ serial execution equivalence across worker counts.

use om_dataflow::{Address, Dataflow, Effects};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn counter_df(partitions: usize, max_batch: usize, workers: usize) -> Dataflow<(u64, u64)> {
    // Message: (key, increment); state: running sum; egress: every update.
    Dataflow::builder()
        .partitions(partitions)
        .max_batch(max_batch)
        .workers(workers)
        .register(
            "sum",
            |key: u64, state: Option<&[u8]>, msg: (u64, u64), out: &mut Effects<(u64, u64)>| {
                let cur = state
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                let next = cur + msg.1;
                out.set_state(next.to_le_bytes().to_vec());
                out.emit((key, next));
            },
        )
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the crash schedule or worker count, the final states
    /// equal the sequential model and the egress contains each update
    /// exactly once.
    #[test]
    fn prop_exactly_once_under_crashes(
        increments in proptest::collection::vec((0u64..8, 1u64..5), 1..80),
        crash_points in proptest::collection::vec(1u64..40, 0..4),
        partitions in 1usize..5,
        max_batch in 1usize..40,
        workers in 1usize..5,
    ) {
        let df = counter_df(partitions, max_batch, workers);
        for (k, inc) in &increments {
            df.submit(Address::new("sum", *k), (*k, *inc)).unwrap();
        }
        for cp in crash_points {
            df.inject_crash_after(cp);
            let _ = df.run_epoch().unwrap();
        }
        df.run_to_completion().unwrap();

        // Sequential model.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (k, inc) in &increments {
            *model.entry(*k).or_insert(0) += inc;
        }
        for (k, expected) in &model {
            let got = df
                .state_of(Address::new("sum", *k))
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .unwrap_or(0);
            prop_assert_eq!(got, *expected, "key {} diverged (workers {})", k, workers);
        }
        prop_assert_eq!(df.committed_egress_len(), increments.len(), "egress not exactly-once");
    }

    /// Partitioning is transparent: any partition count yields identical
    /// final state for the same input.
    #[test]
    fn prop_partition_count_is_transparent(
        increments in proptest::collection::vec((0u64..16, 1u64..4), 1..60),
    ) {
        let mut reference: Option<BTreeMap<u64, u64>> = None;
        for partitions in [1usize, 2, 4] {
            let df = counter_df(partitions, 16, 1);
            for (k, inc) in &increments {
                df.submit(Address::new("sum", *k), (*k, *inc)).unwrap();
            }
            df.run_to_completion().unwrap();
            let state: BTreeMap<u64, u64> = (0..16)
                .filter_map(|k| {
                    df.state_of(Address::new("sum", k))
                        .map(|b| (k, u64::from_le_bytes(b.try_into().unwrap())))
                })
                .collect();
            match &reference {
                None => reference = Some(state),
                Some(expected) => prop_assert_eq!(&state, expected),
            }
        }
    }

    /// Parallel execution is observationally equivalent to serial: for
    /// any workload, running the same input at workers ∈ {1, 2, cores}
    /// commits identical epoch counts, identical keyed state, identical
    /// ingress offsets, and identical per-key egress order.
    #[test]
    fn prop_parallel_equals_serial(
        increments in proptest::collection::vec((0u64..12, 1u64..5), 1..70),
        partitions in 1usize..6,
        max_batch in 1usize..24,
    ) {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        #[derive(Debug, PartialEq)]
        struct Observed {
            epochs: u64,
            offsets: Vec<u64>,
            state: BTreeMap<u64, u64>,
            per_key_egress: BTreeMap<u64, Vec<u64>>,
        }
        let mut reference: Option<Observed> = None;
        for workers in [1usize, 2, cores] {
            let df = counter_df(partitions, max_batch, workers);
            for (k, inc) in &increments {
                df.submit(Address::new("sum", *k), (*k, *inc)).unwrap();
            }
            df.run_to_completion().unwrap();
            let state: BTreeMap<u64, u64> = (0..12)
                .filter_map(|k| {
                    df.state_of(Address::new("sum", k))
                        .map(|b| (k, u64::from_le_bytes(b.try_into().unwrap())))
                })
                .collect();
            let mut per_key_egress: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for (k, total) in df.take_committed_egress() {
                per_key_egress.entry(k).or_default().push(total);
            }
            let observed = Observed {
                epochs: df.committed_epoch(),
                offsets: df.committed_offsets(),
                state,
                per_key_egress,
            };
            match &reference {
                None => reference = Some(observed),
                Some(expected) => prop_assert_eq!(
                    &observed, expected,
                    "workers {} diverged from the serial baseline", workers
                ),
            }
        }
    }
}

mod common;
use common::{ledger_builder, model, submit_all, Observed, RowMsg};

fn row_ops() -> impl Strategy<Value = Vec<(u64, RowMsg)>> {
    let op = (0u64..4, 0u64..6, 0u8..10, any::<u64>()).prop_map(|(key, id, kind, value)| {
        let msg = match kind {
            0 | 1 => RowMsg::Delete { id },
            2 => RowMsg::Fold,
            _ => RowMsg::Append { id, value },
        };
        (key, msg)
    });
    proptest::collection::vec(op, 1..90)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row-keyed state under arbitrary crash schedules, partitionings,
    /// batch sizes and worker counts: committed rows and every per-key
    /// ordered fold equal the sequential model — so serial and parallel
    /// runs, which both equal the model, also equal each other.
    #[test]
    fn prop_row_state_is_exactly_once_and_worker_count_transparent(
        ops in row_ops(),
        crash_points in proptest::collection::vec(1u64..40, 0..4),
        partitions in 1usize..5,
        max_batch in 1usize..24,
    ) {
        let expected = model(&ops);
        for workers in [1usize, 2, 4] {
            let df = ledger_builder(partitions, max_batch, workers).build();
            submit_all(&df, &ops);
            for cp in &crash_points {
                df.inject_crash_after(*cp);
                let _ = df.run_epoch().unwrap();
            }
            df.run_to_completion().unwrap();
            let mut observed = Observed::default();
            observed.absorb(df.take_committed_egress());
            observed.read_rows(&df, 4);
            prop_assert_eq!(&observed, &expected, "workers {}", workers);
        }
    }
}
