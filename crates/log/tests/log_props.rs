//! Property-based tests of the partitioned log (the Kafka stand-in).
//!
//! Invariants under arbitrary append schedules, each append an explicit
//! `(producer, seq)` pair stored as given:
//!
//! * the log appends what it is given — repeated and out-of-order pairs
//!   each land once, in arrival order, and `max_seq` is the largest seq;
//! * offsets are dense (0..n) per partition;
//! * concurrent producers interleave without losing or duplicating
//!   records;
//! * a reopened `PersistentTopic` reads back exactly what was appended.

use om_log::{EventLog, PersistentTopic, PersistentTopicOptions, SerdeCodec, Topic};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An append schedule: `(partition, producer, seq, payload)`. The small
/// seq range makes repeated pairs and seqs below an earlier one common.
fn schedule(partitions: usize) -> impl Strategy<Value = Vec<(usize, u64, u64, u32)>> {
    prop::collection::vec((0..partitions, 0u64..3, 0u64..16, any::<u32>()), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Repeated and out-of-order pairs: the partition is exactly the
    /// appended sequence, at dense offsets.
    #[test]
    fn every_append_lands_once_in_arrival_order(appends in schedule(1)) {
        let topic: Topic<u32> = Topic::new("t", 1);
        for (i, &(_, producer, seq, payload)) in appends.iter().enumerate() {
            prop_assert_eq!(topic.append_raw(0, producer, seq, payload).unwrap(), i as u64);
        }
        let entries = topic.read_from(0, 0, usize::MAX);
        prop_assert_eq!(entries.len(), appends.len(), "one record per append");
        for (i, (entry, &(_, producer, seq, payload))) in entries.iter().zip(&appends).enumerate() {
            prop_assert_eq!(entry.offset, i as u64, "offsets are dense");
            prop_assert_eq!((entry.producer, entry.seq, entry.payload), (producer, seq, payload));
        }
        let largest = appends.iter().map(|&(_, _, seq, _)| seq).max().unwrap();
        prop_assert_eq!(topic.max_seq(0), largest);
    }

    /// Concurrent producers on one partition: every send lands exactly
    /// once and per-producer order is preserved.
    #[test]
    fn concurrent_producers_preserve_per_producer_order(
        per_producer in 1usize..80,
        producers in 2usize..5,
    ) {
        let topic: Topic<(u64, usize)> = Topic::new("t", 1);
        let ids: Vec<u64> = (1..=producers as u64).collect();
        std::thread::scope(|scope| {
            for &id in &ids {
                let topic = &topic;
                scope.spawn(move || {
                    // This thread's own sequence counter.
                    for (seq, i) in (1u64..).zip(0..per_producer) {
                        topic.append_raw(0, id, seq, (id, i)).unwrap();
                    }
                });
            }
        });

        let entries = topic.read_from(0, 0, usize::MAX);
        prop_assert_eq!(entries.len(), per_producer * producers);
        let mut next: HashMap<u64, usize> = ids.iter().map(|&id| (id, 0)).collect();
        for entry in entries {
            let (id, i) = entry.payload;
            let expected = next.get_mut(&id).expect("known producer");
            prop_assert_eq!(i, *expected, "per-producer order broken for {}", id);
            *expected += 1;
        }
        for (&id, &n) in &next {
            prop_assert_eq!(n, per_producer, "producer {} lost records", id);
        }
    }

    /// Partitioned appends keep each partition dense and independent.
    #[test]
    fn partitions_are_independent(
        sends in prop::collection::vec((0usize..4, any::<u16>()), 1..120)
    ) {
        let topic: Topic<u16> = Topic::new("t", 4);
        let mut per_partition: Vec<Vec<u16>> = vec![Vec::new(); 4];
        // One producer's sequence spans every partition it appends to.
        for (seq, (p, v)) in (1u64..).zip(&sends) {
            topic.append_raw(*p, 1, seq, *v).unwrap();
            per_partition[*p].push(*v);
        }
        for (p, expected) in per_partition.iter().enumerate() {
            let entries = topic.read_from(p, 0, usize::MAX);
            let payloads: Vec<u16> = entries.iter().map(|e| e.payload).collect();
            prop_assert_eq!(&payloads, expected);
            prop_assert_eq!(topic.end_offset(p), expected.len() as u64);
            for (i, e) in entries.iter().enumerate() {
                prop_assert_eq!(e.offset, i as u64);
            }
        }
        prop_assert_eq!(topic.len(), sends.len());
    }
}

/// A fresh directory for one case, removed when dropped.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new() -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        Self(std::env::temp_dir().join(format!(
            "om-log-props-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same schedule into a `PersistentTopic` (segments small enough
    /// to roll) and an in-memory `Topic`: after a reopen, every
    /// partition reads back the same records and `max_seq`.
    #[test]
    fn a_reopened_persistent_topic_reads_back_what_was_appended(appends in schedule(2)) {
        let dir = Scratch::new();
        let open = || {
            let options = PersistentTopicOptions { segment_bytes: 128, ..Default::default() };
            PersistentTopic::<u32>::open_with(&dir.0, "t", 2, Arc::new(SerdeCodec), options)
                .unwrap()
        };
        let expected: Topic<u32> = Topic::new("t", 2);
        {
            let topic = open();
            for &(p, producer, seq, payload) in &appends {
                let offset = topic.append_raw(p, producer, seq, payload).unwrap();
                prop_assert_eq!(offset, expected.append_raw(p, producer, seq, payload).unwrap());
            }
        }
        let topic = open();
        prop_assert_eq!(topic.len(), appends.len());
        for p in 0..2 {
            let read = topic.read_from(p, 0, usize::MAX);
            prop_assert_eq!(read, expected.read_from(p, 0, usize::MAX));
            prop_assert_eq!(topic.max_seq(p), expected.max_seq(p));
        }
    }
}
