//! # Online Marketplace (Rust)
//!
//! Umbrella crate for the Online Marketplace microservice benchmark — a
//! from-scratch Rust reproduction of *Benchmarking Data Management Systems
//! for Microservices* (Laigner & Zhou, ICDE 2024).
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can drive the whole stack through one dependency:
//!
//! * [`common`] — ids, entities, events, time, config, stats, RNG.
//! * [`storage`] — the unified `StateBackend` layer: one sharded,
//!   pluggable storage interface (Redis-like replicated KV with an
//!   asynchronous last-writer-wins replica / snapshot isolation /
//!   file-durable) behind every platform binding.
//! * [`log`] — Kafka-like partitioned event log, replayed from the
//!   consumer offsets a dataflow checkpoint commits.
//! * [`actor`] — Orleans-like virtual actor runtime with a distributed
//!   transaction layer (2PL + 2PC).
//! * [`dataflow`] — Statefun-like exactly-once stateful dataflow runtime.
//! * [`marketplace`] — the eight microservices and the four platform
//!   bindings (Eventual, Transactional, Dataflow, Customized).
//! * [`driver`] — benchmark driver: data generation, workload submission,
//!   metrics and the data-management criteria auditor.
//! * [`http`] — the HTTP layer of the customized stack (paper Fig. 1):
//!   HTTP/1.1 parser, REST gateway, in-memory server.
//!
//! See `docs/ARCHITECTURE.md` for the system inventory.

pub use om_actor as actor;
pub use om_common as common;
pub use om_dataflow as dataflow;
pub use om_driver as driver;
pub use om_http as http;
pub use om_log as log;
pub use om_marketplace as marketplace;
pub use om_storage as storage;
