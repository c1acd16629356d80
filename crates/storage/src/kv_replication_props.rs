//! Property-based tests of the replication channel: a primary [`Store`]
//! assigns per-key write sequences and an [`Applier`] installs the record
//! stream on a secondary through its seeded reorder window. Whatever the
//! schedule, window, shard count or seed, the flushed secondary equals
//! the primary (tombstones included), and last-writer-wins drops and
//! counts every superseded or redelivered record.

use crate::kv_replication::{Applier, ReplicationRecord, ReplicationStats};
use crate::kv_store::{Store, VersionedValue};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

type Kv = Store<u8, u32>;
type Record = ReplicationRecord<u8, u32>;

#[derive(Debug, Clone)]
enum WriteOp {
    Put(u8, u32),
    Delete(u8),
}

fn write_strategy() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u32>()).prop_map(|(k, v)| WriteOp::Put(k % 12, v)),
        1 => any::<u8>().prop_map(|k| WriteOp::Delete(k % 12)),
    ]
}

/// The primary's side of one write: installs it under the next per-key
/// sequence and returns the record that streams to the secondary.
fn write(primary: &Kv, key: u8, value: Option<u32>) -> Record {
    let installed = primary.update(key, |cur| VersionedValue {
        value,
        key_seq: cur.map_or(1, |c| c.key_seq + 1),
    });
    ReplicationRecord {
        key,
        value,
        key_seq: installed.key_seq,
    }
}

/// Runs `ops` against a fresh primary: the primary, its record stream,
/// and the last-writer-wins model of its live state.
fn primary_stream(ops: &[WriteOp], shards: usize) -> (Kv, Vec<Record>, BTreeMap<u8, u32>) {
    let primary = Store::new(shards);
    let mut model = BTreeMap::new();
    let records = ops
        .iter()
        .map(|op| match op {
            WriteOp::Put(k, v) => {
                model.insert(*k, *v);
                write(&primary, *k, Some(*v))
            }
            WriteOp::Delete(k) => {
                model.remove(k);
                write(&primary, *k, None)
            }
        })
        .collect();
    (primary, records, model)
}

/// An applier over a fresh secondary, with handles on both.
fn applier(
    shards: usize,
    window: usize,
    seed: u64,
) -> (Applier<u8, u32>, Arc<Kv>, Arc<ReplicationStats>) {
    let secondary = Arc::new(Store::new(shards));
    let stats = Arc::new(ReplicationStats::default());
    let applier = Applier::new(secondary.clone(), stats.clone(), window, seed);
    (applier, secondary, stats)
}

fn live_state(store: &Kv) -> BTreeMap<u8, u32> {
    store.dump().into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reordered replication converges to the primary's last-writer-wins
    /// state — values, tombstones and per-key sequences — and every
    /// record is applied exactly once.
    #[test]
    fn eventual_mode_converges_despite_reordering(
        ops in prop::collection::vec(write_strategy(), 1..120),
        shards in 1usize..8,
        window in 1usize..24,
        seed in any::<u64>(),
    ) {
        let (primary, records, model) = primary_stream(&ops, shards);
        let (mut applier, secondary, stats) = applier(shards, window, seed);
        for record in records {
            applier.offer(record);
        }
        applier.flush();

        prop_assert_eq!(live_state(&secondary), model);
        for key in 0..12u8 {
            prop_assert_eq!(
                secondary.get_versioned(&key),
                primary.get_versioned(&key),
                "key {} diverged (tombstones included)", key
            );
        }
        prop_assert_eq!(stats.applied() as usize, ops.len());
        prop_assert!(stats.stale_drops() <= stats.applied());
    }

    /// With a window of one the applier is in-order replication: each
    /// record is visible on the secondary as soon as it is offered, and
    /// none is ever dropped as stale.
    #[test]
    fn window_of_one_replicates_each_record_as_offered(
        ops in prop::collection::vec(write_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let (primary, records, _) = primary_stream(&ops, 4);
        let (mut applier, secondary, stats) = applier(4, 1, seed);
        for record in records {
            let key = record.key;
            let expected = VersionedValue { value: record.value, key_seq: record.key_seq };
            applier.offer(record);
            prop_assert_eq!(secondary.get_versioned(&key), Some(expected));
        }
        prop_assert_eq!(stats.stale_drops(), 0);
        prop_assert_eq!(live_state(&secondary), live_state(&primary));
    }

    /// The reorder window is seeded: two appliers fed the same stream
    /// with the same seed pass through identical states.
    #[test]
    fn apply_order_is_deterministic_per_seed(
        ops in prop::collection::vec(write_strategy(), 1..80),
        window in 1usize..16,
        seed in any::<u64>(),
    ) {
        let (_, records, _) = primary_stream(&ops, 4);
        let (mut a, secondary_a, stats_a) = applier(4, window, seed);
        let (mut b, secondary_b, stats_b) = applier(2, window, seed);
        for record in records {
            a.offer(record.clone());
            b.offer(record);
            prop_assert_eq!(live_state(&secondary_a), live_state(&secondary_b));
        }
        a.flush();
        b.flush();
        prop_assert_eq!(live_state(&secondary_a), live_state(&secondary_b));
        prop_assert_eq!(stats_a.stale_drops(), stats_b.stale_drops());
    }

    /// Redelivering the whole stream after convergence changes nothing:
    /// every redelivered record is at most as new as what the secondary
    /// holds, so last-writer-wins drops (and counts) all of them.
    #[test]
    fn redelivered_records_are_dropped_as_stale(
        ops in prop::collection::vec(write_strategy(), 1..80),
        window in 1usize..16,
        seed in any::<u64>(),
    ) {
        let (_, records, model) = primary_stream(&ops, 4);
        let (mut applier, secondary, stats) = applier(4, window, seed);
        for record in records.iter().cloned() {
            applier.offer(record);
        }
        applier.flush();
        let drops_before = stats.stale_drops();

        for record in records {
            applier.offer(record);
        }
        applier.flush();
        prop_assert_eq!(live_state(&secondary), model);
        prop_assert_eq!(stats.stale_drops() - drops_before, ops.len() as u64);
        prop_assert_eq!(stats.applied(), 2 * ops.len() as u64);
    }
}

#[test]
fn late_stale_put_cannot_resurrect_a_tombstone() {
    let (mut applier, secondary, stats) = applier(2, 1, 5);
    applier.offer(ReplicationRecord {
        key: 9,
        value: None,
        key_seq: 2,
    });
    applier.offer(ReplicationRecord {
        key: 9,
        value: Some(1),
        key_seq: 1,
    });
    assert_eq!(secondary.get(&9), None);
    let version = secondary.get_versioned(&9).expect("tombstone kept");
    assert!(version.is_tombstone());
    assert_eq!(version.key_seq, 2);
    assert_eq!(stats.stale_drops(), 1);
}

#[test]
fn reorder_window_drops_superseded_writes_but_keeps_the_last() {
    let mut total_drops = 0;
    for seed in 0..8u64 {
        let primary = Store::new(2);
        let (mut applier, secondary, stats) = applier(2, 16, seed);
        for v in 0..100u32 {
            applier.offer(write(&primary, 0, Some(v)));
        }
        applier.flush();
        assert_eq!(secondary.get(&0), Some(99), "seed {seed}");
        assert_eq!(stats.applied(), 100, "seed {seed}");
        total_drops += stats.stale_drops();
    }
    assert!(
        total_drops > 0,
        "a shuffled window must deliver some writes after their successors"
    );
}

#[test]
fn records_wait_in_the_window_until_it_fills_or_flushes() {
    let primary = Store::new(2);
    let (mut applier, secondary, stats) = applier(2, 8, 1);
    for k in 0..3u8 {
        applier.offer(write(&primary, k, Some(k as u32)));
    }
    assert_eq!(stats.applied(), 0, "a partial window is buffered");
    assert!(secondary.is_empty());
    for k in 3..8u8 {
        applier.offer(write(&primary, k, Some(k as u32)));
    }
    assert_eq!(stats.applied(), 8, "a full window drains");
    applier.offer(write(&primary, 8, Some(8)));
    assert_eq!(stats.applied(), 8);
    applier.flush();
    assert_eq!(stats.applied(), 9, "flush drains the remainder");
    assert_eq!(live_state(&secondary), live_state(&primary));
}
