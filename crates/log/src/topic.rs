//! Topics, partitions and idempotent appends.

use om_common::{OmError, OmResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One record in a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<T> {
    /// Dense offset within the partition (0-based).
    pub offset: u64,
    /// Producer that appended the record.
    pub producer: u64,
    /// Producer-assigned sequence number (dedup key).
    pub seq: u64,
    /// The record itself.
    pub payload: T,
}

#[derive(Debug)]
struct Partition<T> {
    entries: Vec<Entry<T>>,
    /// Highest sequence seen per producer (idempotence fence).
    producer_fence: HashMap<u64, u64>,
}

impl<T> Default for Partition<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            producer_fence: HashMap::new(),
        }
    }
}

impl<T: Clone> Partition<T> {
    /// Offset of the already-appended `(producer, seq)` record, or `None`
    /// when appending it would not be a duplicate (the idempotence
    /// check). The fence is only a fast filter: a sequence at or below
    /// it that is **not actually present** is an out-of-order first
    /// transmission (two threads of one logical producer raced seq
    /// assignment against the partition lock), not a retransmission —
    /// it must be appended, never dropped.
    fn duplicate_of(&self, producer: u64, seq: u64) -> Option<u64> {
        match self.producer_fence.get(&producer) {
            Some(&last) if seq <= last => self
                .entries
                .iter()
                .rev()
                .find(|e| e.producer == producer && e.seq == seq)
                .map(|e| e.offset),
            _ => None,
        }
    }

    /// Appends unless `(producer, seq)` was already seen. Returns the
    /// offset of the (existing or new) record and whether it was a
    /// duplicate.
    fn append(&mut self, producer: u64, seq: u64, payload: T) -> (u64, bool) {
        match self.duplicate_of(producer, seq) {
            Some(offset) => (offset, true),
            None => {
                let offset = self.entries.len() as u64;
                self.entries.push(Entry {
                    offset,
                    producer,
                    seq,
                    payload,
                });
                let fence = self.producer_fence.entry(producer).or_insert(0);
                *fence = (*fence).max(seq);
                (offset, false)
            }
        }
    }
}

/// A partitioned, append-only topic.
pub struct Topic<T> {
    name: String,
    partitions: Vec<Mutex<Partition<T>>>,
    duplicates: AtomicU64,
}

impl<T: Clone> Topic<T> {
    /// An empty in-memory topic with `partitions` partitions.
    pub fn new(name: impl Into<String>, partitions: usize) -> Self {
        assert!(partitions > 0, "topic needs at least one partition");
        Self {
            name: name.into(),
            partitions: (0..partitions).map(|_| Mutex::new(Partition::default())).collect(),
            duplicates: AtomicU64::new(0),
        }
    }

    /// The topic's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fixed number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Offset of the already-appended `(producer, seq)` record of
    /// `partition`, or `None` when appending it would not be a duplicate.
    /// The persistent topic asks this *before* writing to disk so
    /// retransmissions are never persisted twice.
    pub(crate) fn duplicate_of(
        &self,
        partition: usize,
        producer: u64,
        seq: u64,
    ) -> OmResult<Option<u64>> {
        let p = self
            .partitions
            .get(partition)
            .ok_or_else(|| OmError::NotFound(format!("partition {partition}")))?;
        Ok(p.lock().duplicate_of(producer, seq))
    }

    /// Appends `payload` to `partition` as `producer`'s record `seq`,
    /// unless that pair is already there; returns the record's offset,
    /// the original one for a retransmission. The caller keeps its own
    /// producer id and sequence counter.
    pub fn append_raw(
        &self,
        partition: usize,
        producer: u64,
        seq: u64,
        payload: T,
    ) -> OmResult<u64> {
        let p = self
            .partitions
            .get(partition)
            .ok_or_else(|| OmError::NotFound(format!("partition {partition}")))?;
        let (offset, dup) = p.lock().append(producer, seq, payload);
        if dup {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        Ok(offset)
    }

    /// Reads up to `max` entries of `partition` starting at `offset`.
    pub fn read_from(&self, partition: usize, offset: u64, max: usize) -> Vec<Entry<T>> {
        let p = self.partitions[partition].lock();
        let start = offset.min(p.entries.len() as u64) as usize;
        let end = start.saturating_add(max).min(p.entries.len());
        p.entries[start..end].to_vec()
    }

    /// Exclusive end offset of `partition` (== number of records).
    pub fn end_offset(&self, partition: usize) -> u64 {
        self.partitions[partition].lock().entries.len() as u64
    }

    /// Highest producer-assigned sequence number ever appended to
    /// `partition` (0 when empty). Served from the idempotence fences, so
    /// no payloads are copied — consumers resuming a shared log use this
    /// to keep their sequences monotonic.
    pub fn max_seq(&self, partition: usize) -> u64 {
        self.partitions[partition]
            .lock()
            .producer_fence
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total records across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.lock().entries.len()).sum()
    }

    /// Whether the topic holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of deduplicated (dropped) appends so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test producer: an id and the sequence counter it keeps itself,
    /// appending through [`Topic::append_raw`].
    struct Producer {
        id: u64,
        seq: u64,
    }

    impl Producer {
        fn new(id: u64) -> Self {
            Self { id, seq: 0 }
        }

        /// Appends `payload` as this producer's next record; returns
        /// `(seq, offset)`.
        fn send<T: Clone>(&mut self, t: &Topic<T>, partition: usize, payload: T) -> (u64, u64) {
            self.seq += 1;
            (self.seq, t.append_raw(partition, self.id, self.seq, payload).unwrap())
        }
    }

    #[test]
    fn append_and_read_roundtrip() {
        let t: Topic<&'static str> = Topic::new("orders", 2);
        let mut p = Producer::new(1);
        p.send(&t, 0, "a");
        p.send(&t, 0, "b");
        p.send(&t, 1, "c");
        assert_eq!(t.len(), 3);
        let read = t.read_from(0, 0, 10);
        assert_eq!(read.len(), 2);
        assert_eq!(read[0].payload, "a");
        assert_eq!(read[0].offset, 0);
        assert_eq!(read[1].offset, 1);
        assert_eq!(t.end_offset(1), 1);
    }

    #[test]
    fn read_from_middle_and_bounds() {
        let t: Topic<u32> = Topic::new("t", 1);
        let mut p = Producer::new(1);
        for i in 0..10 {
            p.send(&t, 0, i);
        }
        let read = t.read_from(0, 7, 100);
        assert_eq!(read.iter().map(|e| e.payload).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert!(t.read_from(0, 10, 5).is_empty());
        assert!(t.read_from(0, 999, 5).is_empty());
        assert_eq!(t.read_from(0, 0, 3).len(), 3);
    }

    #[test]
    fn retransmissions_are_deduplicated() {
        let t: Topic<&'static str> = Topic::new("t", 1);
        let mut p = Producer::new(1);
        let (seq, offset) = p.send(&t, 0, "payment");
        // Ack lost; producer retries the same seq three times.
        for _ in 0..3 {
            let off2 = t.append_raw(0, p.id, seq, "payment").unwrap();
            assert_eq!(off2, offset, "dedup must return original offset");
        }
        assert_eq!(t.len(), 1, "no duplicate records");
        assert_eq!(t.duplicate_count(), 3);
    }

    #[test]
    fn out_of_order_first_appends_are_not_dropped_as_duplicates() {
        // Two threads of one logical producer can race sequence
        // assignment against the partition lock: seq 2 lands before
        // seq 1. Seq 1 is below the fence but was never appended — it
        // is a first transmission and must be stored, while a real
        // retransmission of either seq still deduplicates.
        let t: Topic<&'static str> = Topic::new("t", 1);
        t.append_raw(0, 7, 2, "second").unwrap();
        let offset = t.append_raw(0, 7, 1, "first").unwrap();
        assert_eq!(offset, 1, "late-arriving first transmission appended");
        assert_eq!(t.len(), 2);
        assert_eq!(t.duplicate_count(), 0);
        assert_eq!(t.append_raw(0, 7, 1, "first").unwrap(), 1, "true dup resolves");
        assert_eq!(t.append_raw(0, 7, 2, "second").unwrap(), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.duplicate_count(), 2);
        assert_eq!(t.max_seq(0), 2);
    }

    #[test]
    fn independent_producers_do_not_fence_each_other() {
        let t: Topic<u32> = Topic::new("t", 1);
        let (mut p1, mut p2) = (Producer::new(1), Producer::new(2));
        p1.send(&t, 0, 1);
        p2.send(&t, 0, 2); // p2's seq 1 must not be fenced by p1's
        assert_eq!(t.len(), 2);
        assert_eq!(t.duplicate_count(), 0);
    }

    #[test]
    fn invalid_partition_is_an_error() {
        let t: Topic<u32> = Topic::new("t", 2);
        let err = t.append_raw(5, 1, 1, 42).unwrap_err();
        assert_eq!(err.label(), "not_found");
    }

    #[test]
    fn concurrent_producers_preserve_all_records() {
        let t: Topic<u64> = Topic::new("t", 4);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let t = &t;
                scope.spawn(move || {
                    let mut p = Producer::new(w + 1);
                    for i in 0..500 {
                        p.send(t, (i % 4) as usize, w * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(t.len(), 2000);
        // Offsets within each partition must be dense.
        for part in 0..4 {
            let entries = t.read_from(part, 0, usize::MAX);
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(e.offset, i as u64);
            }
        }
    }

    proptest! {
        /// However a producer interleaves sends and random retransmissions,
        /// the partition contains exactly the distinct payload sequence in
        /// order.
        #[test]
        fn prop_idempotent_append(resend_mask in proptest::collection::vec(0u8..4, 1..50)) {
            let t: Topic<u64> = Topic::new("t", 1);
            let mut p = Producer::new(1);
            let mut sent = Vec::new();
            for (i, &resends) in resend_mask.iter().enumerate() {
                let payload = i as u64;
                let (seq, _) = p.send(&t, 0, payload);
                sent.push(payload);
                for _ in 0..resends {
                    t.append_raw(0, p.id, seq, payload).unwrap();
                }
            }
            let stored: Vec<u64> =
                t.read_from(0, 0, usize::MAX).into_iter().map(|e| e.payload).collect();
            prop_assert_eq!(stored, sent);
        }
    }
}
