//! Topics, partitions and appends.

use om_common::{OmError, OmResult};
use parking_lot::Mutex;

/// One record in a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<T> {
    /// Dense offset within the partition (0-based).
    pub offset: u64,
    /// Producer that appended the record.
    pub producer: u64,
    /// Producer-assigned sequence number, stored as given.
    pub seq: u64,
    /// The record itself.
    pub payload: T,
}

#[derive(Debug)]
struct Partition<T> {
    entries: Vec<Entry<T>>,
    /// Highest sequence number appended (0 when empty).
    max_seq: u64,
}

impl<T> Default for Partition<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            max_seq: 0,
        }
    }
}

/// A partitioned, append-only topic.
pub struct Topic<T> {
    name: String,
    partitions: Vec<Mutex<Partition<T>>>,
}

impl<T: Clone> Topic<T> {
    /// An empty in-memory topic with `partitions` partitions.
    pub fn new(name: impl Into<String>, partitions: usize) -> Self {
        assert!(partitions > 0, "topic needs at least one partition");
        Self {
            name: name.into(),
            partitions: (0..partitions).map(|_| Mutex::new(Partition::default())).collect(),
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

    /// Appends `payload` to `partition` as `producer`'s record `seq` at
    /// the next offset, and returns that offset. The pair is stored as
    /// given: a repeated pair is a new record.
    pub fn append_raw(
        &self,
        partition: usize,
        producer: u64,
        seq: u64,
        payload: T,
    ) -> OmResult<u64> {
        let mut p = self
            .partitions
            .get(partition)
            .ok_or_else(|| OmError::NotFound(format!("partition {partition}")))?
            .lock();
        let offset = p.entries.len() as u64;
        p.entries.push(Entry {
            offset,
            producer,
            seq,
            payload,
        });
        p.max_seq = p.max_seq.max(seq);
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
    /// `partition` (0 when empty), kept as a high-water mark so no
    /// payloads are copied.
    pub fn max_seq(&self, partition: usize) -> u64 {
        self.partitions[partition].lock().max_seq
    }

    /// Total records across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.lock().entries.len()).sum()
    }

    /// Whether the topic holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_repeated_pair_is_stored_again_at_the_next_offset() {
        let t: Topic<&'static str> = Topic::new("t", 1);
        assert_eq!(t.append_raw(0, 1, 1, "payment").unwrap(), 0);
        assert_eq!(t.append_raw(0, 1, 1, "payment").unwrap(), 1);
        assert_eq!(t.append_raw(0, 1, 1, "payment").unwrap(), 2);
        let read = t.read_from(0, 0, 10);
        assert_eq!(
            read.iter()
                .map(|e| (e.offset, e.producer, e.seq, e.payload))
                .collect::<Vec<_>>(),
            (0..3).map(|o| (o, 1, 1, "payment")).collect::<Vec<_>>()
        );
        assert_eq!(t.max_seq(0), 1);
    }

    #[test]
    fn out_of_order_first_appends_are_not_dropped_as_duplicates() {
        // Two threads of one logical producer can race sequence
        // assignment against the partition lock: seq 2 lands before
        // seq 1, and both are stored in arrival order.
        let t: Topic<&'static str> = Topic::new("t", 1);
        assert_eq!(t.max_seq(0), 0, "an empty partition");
        t.append_raw(0, 7, 2, "second").unwrap();
        let offset = t.append_raw(0, 7, 1, "first").unwrap();
        assert_eq!(offset, 1, "late-arriving first transmission appended");
        assert_eq!(t.len(), 2);
        let seqs: Vec<u64> = t.read_from(0, 0, 10).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 1]);
        assert_eq!(t.max_seq(0), 2, "a lower seq never lowers the mark");
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
}
