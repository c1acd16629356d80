//! # om-log
//!
//! A Kafka-like partitioned, append-only **event log**: the replayable
//! ingress/egress transport of the Statefun-like dataflow runtime
//! (`om-dataflow`) — recovery rewinds consumers to the offsets recorded in
//! the last checkpoint and replays.
//!
//! Two flavours implement the [`EventLog`] contract:
//!
//! * [`Topic`] — in-memory partitions; fast, but records die with the
//!   process.
//! * [`PersistentTopic`] — segment files per partition;
//!   appends are CRC-framed and flushed before they are acknowledged, a
//!   cold reopen replays the segments (truncating a torn tail), so a
//!   rebuilt consumer can replay in-flight records from disk alone. See
//!   `docs/DURABILITY.md` for the file formats.
//!
//! Semantics common to both:
//!
//! * **Partitioned topics** — each topic has a fixed number of
//!   partitions; an entry's partition is chosen by the producer (typically
//!   by key hash) and ordering is guaranteed *within* a partition only.
//! * **Plain appends** — every append carries a `(producer, seq)` pair
//!   that the caller assigns ([`EventLog::append_raw`]; the dataflow
//!   runtime keeps one producer id and one sequence counter) and that is
//!   stored with the record as given: the log appends what it is given,
//!   and a repeated pair is a new record. Each partition keeps the
//!   highest `seq` appended ([`EventLog::max_seq`]; the persistent
//!   topic rebuilds it from its segments on reopen), so a restarted
//!   producer resumes past it.
//! * **Consumer offsets** — a consumer reads from an offset it keeps
//!   itself; `om-dataflow` commits its offsets atomically with its state
//!   checkpoint, and exactly-once processing comes from that, not from
//!   the appends.

#![deny(missing_docs)]

pub mod event_log;
pub mod persistent;
pub mod topic;

pub use event_log::EventLog;
pub use persistent::{PersistentTopic, PersistentTopicOptions, RecordCodec, SerdeCodec};
pub use topic::{Entry, Topic};
