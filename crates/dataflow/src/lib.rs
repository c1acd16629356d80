//! # om-dataflow
//!
//! An Apache Flink **Statefun-like stateful dataflow runtime** with
//! **exactly-once** processing — the substrate under the Online
//! Marketplace *Statefun* binding (paper §III: "Statefun is a
//! dataflow-based platform that provides exactly-once processing").
//!
//! ## Model
//!
//! * Applications register **stateful functions** ([`FnLogic`]) addressed
//!   by `(function type, key)`. The state of an address is an ordered set
//!   of **rows** `row → bytes` (Flink's `MapState`): an invocation reads
//!   the rows it needs through a [`StateView`] (`get`, ordered `prefix`
//!   iteration) and emits [`Effects`]: row writes and deletions, messages
//!   to other functions, and egress records. A function whose state is
//!   one value uses the row with the empty name — a plain closure over
//!   `Option<&[u8]>` with [`Effects::set_state`]; one that keeps a
//!   growing collection registers through [`RowFn`] and keys one row per
//!   element, so an invocation costs the rows it touches and a checkpoint
//!   the rows that changed, however much the instance has accumulated.
//! * The runtime is **partitioned**: key-hash partitioning assigns every
//!   address to one of `p` partitions, each processed by one worker, so
//!   invocations for the same key are serialized (per-key FIFO) while
//!   distinct partitions run in parallel.
//! * **Exactly-once** is implemented with epoch-based checkpointing, the
//!   moral equivalent of Flink's aligned barriers for our in-process
//!   setting: an epoch pulls a bounded batch from the replayable ingress
//!   log (`om-log`), processes it (including all transitively produced
//!   internal messages) to quiescence, then atomically commits
//!   *(changed state rows, ingress offsets, buffered egress)*. A crash rolls
//!   back to the previous checkpoint and replays — inputs are never lost
//!   and egress is never duplicated. The structural costs (barrier
//!   alignment, state snapshots, output buffering until commit) are the
//!   same ones a production Statefun deployment pays, which is what makes
//!   the E1/E6 comparisons meaningful.
//!
//! ## Checkpoint durability
//!
//! Every epoch persists through a [`BackendCheckpointStore`] over an
//! [`om_storage::StateBackend`] with one atomic multi-key commit, one
//! backend key per row — so a rebuilt runtime (or one recovering from an
//! injected crash) restarts from the last committed epoch. A runtime
//! built without a store gets one over a fresh snapshot-isolation
//! backend of its own. See [`Dataflow::recover`] and
//! `docs/ARCHITECTURE.md`.

#![deny(missing_docs)]

pub mod checkpoint;
pub mod runtime;

pub use checkpoint::{BackendCheckpointStore, CheckpointSnapshot, StateDelta, StateRow};
pub use runtime::{
    Address, Dataflow, DataflowBuilder, Effects, EpochOutcome, FnLogic, RecoveryReport, RowFn,
    StateView,
};
