//! # om-actor
//!
//! An Orleans-like **virtual actor runtime** ("grains" hosted in "silos"),
//! the substrate under three of the four Online Marketplace bindings
//! (paper §III: *Orleans Eventual*, *Orleans Transactions*, *Customized
//! Orleans*).
//!
//! ## Runtime model
//!
//! * A [`grain::GrainId`] names a virtual actor: a `(kind, key)` pair.
//!   Grains are *virtual* — callers never create them; the first message
//!   activates the grain on some silo (hash placement recorded in the
//!   cluster directory), mirroring Orleans' location and lifecycle
//!   transparency (paper Fig. 1).
//! * Each activation processes messages **single-threaded, turn by turn**
//!   from its mailbox; concurrency exists only *across* grains. Orleans
//!   promises one turn at a time per activation, not a thread to run it:
//!   whichever thread's enqueue finds the grain idle runs its next turn.
//! * A call to an idle grain runs on the calling thread. The cluster's one
//!   worker pool ([`om_common::pool::WorkerPool`], shared by all its silos)
//!   runs the rest as jobs: events, grains that were mid-turn on another
//!   thread, and turns left over when a mailbox holds more than one turn's
//!   batch. A handler that panics fails its call with
//!   `Unavailable` and retires its activation; the grain reactivates from
//!   storage on its next message, and the thread that ran the turn
//!   carries on. Killing a silo drops its activations and their volatile
//!   state; grains that persisted state via
//!   [`grain::GrainContext::persist`] recover it on reactivation
//!   (grain storage survives silo failures, as in Fig. 1's storage layer).
//!   A grain whose state grows keeps a small snapshot plus one row per
//!   entity ([`grain::GrainContext::put_row`]), so a turn stores what it
//!   changed rather than everything the grain holds.
//! * Messaging is either fire-and-forget events ([`cluster::Cluster::notify`],
//!   used for the asynchronous event flows of the benchmark) or blocking
//!   request/response. [`cluster::Cluster::call_all`] is the one reply
//!   path: it enqueues a whole fan-out of calls, runs a turn of each
//!   activation it made runnable on the calling thread, and parks on one
//!   gather latch only for the calls a grain busy elsewhere still owes;
//!   replies come back in call order, and messages to one grain are
//!   handled in the order given. [`cluster::Cluster::call`] is a fan-out
//!   of one. The transactional checkout and the 2PC coordinator send each
//!   protocol phase as one fan-out, so they wait once per phase rather
//!   than once per grain (the cluster counts `calls`, `waits` and the
//!   `parks` among the waits).
//! * A seeded [`cluster::FaultConfig`] can drop or duplicate event
//!   messages — the delivery-semantics knob behind the benchmark's event
//!   processing criteria.
//!
//! ## Transactions
//!
//! The [`tx`] module layers ACID distributed transactions over grains, in
//! the style of Orleans Transactions: per-grain locks taken under
//! **conservative 2PL** — a transaction is admitted only once every grain
//! it declared is free, so it never waits for a lock and never deadlocks —
//! staged writes ([`tx::participant`]), and a client-side **two-phase
//! commit** coordinator writing a durable decision log
//! ([`tx::coordinator`]). The overhead this machinery adds
//! over bare eventual messaging is exactly what experiment E5 measures.

#![deny(missing_docs)]

pub mod cluster;
pub mod grain;
pub mod mailbox;
pub mod silo;
pub mod storage;
pub mod tx;

pub use cluster::{Cluster, ClusterBuilder, FaultConfig};
pub use grain::{Grain, GrainContext, GrainId, Row};
pub use storage::StorageMap;
