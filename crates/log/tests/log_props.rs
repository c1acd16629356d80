//! Property-based tests of the partitioned log (the Kafka stand-in).
//!
//! Invariants under arbitrary send/retransmit schedules, each producer
//! an explicit id with the sequence counter it keeps itself, appending
//! through `Topic::append_raw`:
//!
//! * idempotent appends — however often a `(producer, seq)` pair is
//!   retransmitted, exactly one record lands, and per-producer records
//!   appear in sequence order;
//! * offsets are dense (0..n) per partition;
//! * concurrent producers interleave without losing or duplicating
//!   records.

use om_log::Topic;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Appends with randomized duplicate retransmissions: the log must
    /// contain each sequence exactly once, in order.
    #[test]
    fn retransmissions_never_duplicate(
        // (payload, extra_retransmits) per logical record
        records in prop::collection::vec((any::<u32>(), 0usize..3), 1..60),
        // positions to retransmit *earlier* sequences from, late
        late_retx in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        let topic: Topic<u32> = Topic::new("t", 1);
        const PRODUCER: u64 = 1;
        let mut sent: Vec<(u64, u32)> = Vec::new();

        for (seq, (payload, retx)) in (1u64..).zip(&records) {
            let offset = topic.append_raw(0, PRODUCER, seq, *payload).unwrap();
            sent.push((seq, *payload));
            for _ in 0..*retx {
                prop_assert_eq!(topic.append_raw(0, PRODUCER, seq, *payload).unwrap(), offset);
            }
        }
        // Late retransmissions of randomly chosen old sequences.
        for idx in &late_retx {
            let (seq, payload) = sent[idx.index(sent.len())];
            topic.append_raw(0, PRODUCER, seq, payload).unwrap();
        }

        let entries = topic.read_from(0, 0, usize::MAX);
        prop_assert_eq!(entries.len(), records.len(), "one record per logical send");
        for (i, entry) in entries.iter().enumerate() {
            prop_assert_eq!(entry.offset, i as u64, "offsets are dense");
            prop_assert_eq!(entry.seq, sent[i].0, "sequence order preserved");
            prop_assert_eq!(entry.payload, sent[i].1);
        }
        let expected_dups: u64 =
            records.iter().map(|(_, r)| *r as u64).sum::<u64>() + late_retx.len() as u64;
        prop_assert_eq!(topic.duplicate_count(), expected_dups);
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
