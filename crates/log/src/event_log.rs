//! The [`EventLog`] abstraction: what a replayable ingress/egress
//! transport must provide, regardless of where the records live.
//!
//! `om-dataflow`'s runtime consumes its ingress through this trait, so a
//! dataflow can run over the in-memory [`Topic`] (fast, dies with the
//! process) or the file-backed [`PersistentTopic`](crate::PersistentTopic)
//! (records survive a process crash and replay on a cold restart)
//! without code changes.

use crate::topic::{Entry, Topic};
use om_common::OmResult;

/// A partitioned, append-only, offset-addressed record log — the
/// contract shared by [`Topic`] and
/// [`PersistentTopic`](crate::PersistentTopic).
///
/// A log appends what it is given: each append carries a `(producer,
/// seq)` pair that is stored with the record, and a repeated pair is a
/// new record. Offsets are dense per partition and never change once
/// assigned, so a consumer that checkpoints `(partition, offset)` with
/// its state can always resume by replay; that, not the log, is what
/// makes processing exactly-once.
pub trait EventLog<T>: Send + Sync {
    /// Fixed number of partitions.
    fn partition_count(&self) -> usize;

    /// Appends `(producer, seq, payload)` to `partition` at its next
    /// offset and returns that offset. Durable implementations persist
    /// the record *before* acknowledging.
    fn append_raw(&self, partition: usize, producer: u64, seq: u64, payload: T) -> OmResult<u64>;

    /// Reads up to `max` records of `partition` starting at `offset`.
    fn read_from(&self, partition: usize, offset: u64, max: usize) -> Vec<Entry<T>>;

    /// Exclusive end offset of `partition` (== number of records).
    fn end_offset(&self, partition: usize) -> u64;

    /// Highest producer-assigned sequence number ever appended to
    /// `partition` (0 when empty) — a producer resuming a shared log
    /// uses this to keep its sequences unique across restarts.
    fn max_seq(&self, partition: usize) -> u64;

    /// Total records across partitions.
    fn len(&self) -> usize;

    /// Whether the log holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Always 0: no log drops an append. Kept only because the
    /// benchmark's timing decorator forwards it.
    fn duplicate_count(&self) -> u64 {
        0
    }
}

impl<T: Clone + Send> EventLog<T> for Topic<T> {
    fn partition_count(&self) -> usize {
        Topic::partition_count(self)
    }

    fn append_raw(&self, partition: usize, producer: u64, seq: u64, payload: T) -> OmResult<u64> {
        Topic::append_raw(self, partition, producer, seq, payload)
    }

    fn read_from(&self, partition: usize, offset: u64, max: usize) -> Vec<Entry<T>> {
        Topic::read_from(self, partition, offset, max)
    }

    fn end_offset(&self, partition: usize) -> u64 {
        Topic::end_offset(self, partition)
    }

    fn max_seq(&self, partition: usize) -> u64 {
        Topic::max_seq(self, partition)
    }

    fn len(&self) -> usize {
        Topic::len(self)
    }
}
