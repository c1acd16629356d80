//! # om-kv
//!
//! A Redis-like in-memory key-value store with **primary–secondary
//! replication** — the replica pair under `om-storage`'s eventually
//! consistent backend.
//!
//! The crate provides:
//!
//! * a sharded, concurrently accessible store used for both replicas
//!   ([`store::Store`]), with per-key last-writer-wins by write sequence;
//! * the apply side of the asynchronous replication channel
//!   ([`replication`]): records may be applied out of order (a seeded
//!   reorder window simulates the multi-connection fan-in of a real
//!   deployment), stale ones are dropped and counted, and the secondary
//!   converges once the stream is flushed.

#![deny(missing_docs)]

pub mod replication;
pub mod store;

pub use replication::{ReplicationRecord, ReplicationStats};
pub use store::{Store, VersionedValue};
