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
//! * [`SnapshotBackend`] — one in-memory image, an ordered map under one
//!   reader-writer lock (PostgreSQL role). A multi-key commit applies
//!   under the write lock and each read call under the read lock, so no
//!   reader ever observes a torn subset (serializable, which is stronger
//!   than snapshot isolation), and a commit never aborts.
//! * [`FileBackend`] — file-backed durability (RocksDB role): every commit
//!   is one framed, checksummed write-ahead-log batch on disk, incremental
//!   snapshots bound replay, and a cold restart over the same directory
//!   recovers exactly the committed state (torn tails are truncated). The
//!   only backend whose state survives a process crash; see
//!   `docs/DURABILITY.md` for the file formats and recovery rules.
//!
//! The two atomic stores keep the same in-memory image (`image`): the
//! snapshot backend's whole state, and the file backend's read path over
//! its write-ahead log. Both already order every commit behind one lock,
//! so one map under one lock costs them no concurrency their single-call
//! API could use. The eventual backend keeps a **sharded** per-key store
//! (a power-of-two shard array keyed by hash, with per-shard locks): it
//! has no global writer lock, and per-key last-writer-wins with a lagging
//! replica is what its cell measures.
//!
//! The parts with one user stay private: the eventual backend's sharded
//! store and its replication applier (`kv_store`, `kv_replication`), the
//! atomic stores' image (`image`), and the group-commit barrier
//! (`commit_group`) under [`segment_log`], the one log both durable
//! stores write through.
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
mod image;
mod kv_replication;
#[cfg(test)]
mod kv_replication_props;
mod kv_store;
pub mod segment_log;
pub mod snapshot;
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
