//! # om-storage
//!
//! The **unified state-backend layer**: one pluggable storage interface
//! behind every platform binding of the Online Marketplace benchmark.
//!
//! The source paper evaluates each data platform against the storage it
//! ships with — Orleans grain storage, Flink state, Redis, PostgreSQL.
//! Factoring the transactional surface those deployments actually use into
//! a single [`StateBackend`] trait lets the benchmark sweep the full
//! *platform × backend* matrix instead: any binding can run over any
//! storage discipline, selected from `RunConfig` without code changes.
//!
//! Three disciplines ship today:
//!
//! * [`EventualBackend`] — per-key last-writer-wins over a sharded
//!   in-memory store, with an asynchronous secondary replica (Redis role). Multi-key
//!   commits are applied key by key: concurrent readers can observe torn
//!   subsets, and the secondary only converges after [`StateBackend::quiesce`].
//! * [`SnapshotBackend`] — snapshot isolation over sharded version chains
//!   and a timestamp oracle (PostgreSQL role). Multi-key commits install
//!   under one commit lock and are atomic: no reader snapshot ever
//!   observes a torn subset, and a commit never aborts.
//! * [`FileBackend`] — file-backed durability (RocksDB role): every commit
//!   is one framed, checksummed write-ahead-log batch on disk, incremental
//!   snapshots bound replay, and a cold restart over the same directory
//!   recovers exactly the committed state (torn tails are truncated). The
//!   only backend whose state survives a process crash; see
//!   `docs/DURABILITY.md` for the file formats and recovery rules.
//!
//! Both implementations are **sharded** — a fixed power-of-two shard array
//! keyed by hash, with per-shard locks — so the backend never reintroduces
//! the single global `RwLock<HashMap>` hot spot the actor runtime's grain
//! storage started with.
//!
//! The parts with one user stay private: the eventual backend's sharded
//! store and its replication applier (`kv_store`, `kv_replication`), the
//! snapshot backend's version chains and oracle (`versions`), and the
//! group-commit barrier (`commit_group`) under [`segment_log`], the one
//! log both durable stores write through.
//!
//! Everything stateful in the workspace persists through this layer:
//! actor grain snapshots (`om-actor`), the customized binding's dashboard
//! projection and replica cache (`om-marketplace`), and the dataflow
//! runtime's epoch checkpoints (`om-dataflow`'s `BackendCheckpointStore`).
//! See `docs/ARCHITECTURE.md` for the full picture.

#![deny(missing_docs)]

pub mod backend;
mod commit_group;
pub mod eventual;
pub mod file;
mod kv_replication;
#[cfg(test)]
mod kv_replication_props;
mod kv_store;
pub mod segment_log;
pub mod snapshot;
mod versions;
pub mod vfs;

pub use backend::{
    make_backend, make_backend_at, make_backend_with, StateBackend, StateSession, WriteBatch,
    WriteOp,
};
pub use eventual::EventualBackend;
pub use file::{FileBackend, FileBackendOptions};
pub use segment_log::CommitGroupStats;
pub use snapshot::SnapshotBackend;
pub use vfs::{real_vfs, CrashImage, FaultVfs, RealVfs, Vfs, VfsFile, VfsOp};

/// Rounds a requested shard count up to a power of two (minimum 1), the
/// invariant both backends rely on for hash-and-mask routing.
pub(crate) fn shards_pow2(shards: usize) -> usize {
    shards.max(1).next_power_of_two()
}
