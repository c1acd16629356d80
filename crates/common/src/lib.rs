//! # om-common
//!
//! Shared foundation for the Online Marketplace benchmark — the Rust
//! reproduction of *Benchmarking Data Management Systems for Microservices*
//! (Laigner & Zhou, ICDE 2024).
//!
//! This crate holds everything the substrates (`om-storage`, `om-log`,
//! `om-actor`, `om-dataflow`) and the application
//! (`om-marketplace`, `om-driver`) agree on:
//!
//! * strongly-typed identifiers ([`ids`]),
//! * the marketplace domain entities ([`entity`]),
//! * the order-line payload the checkout workflow carries between
//!   services ([`event`]),
//! * logical time ([`time`]),
//! * workload & scale configuration ([`config`]),
//! * latency/throughput statistics ([`stats`]),
//! * deterministic randomness and skewed key selection ([`rng`]),
//! * common error types ([`error`]).
//!
//! No crate in the workspace depends on wall-clock randomness for logic;
//! every stochastic choice flows from [`rng::SplitMix64`] seeded by the
//! experiment configuration, which makes runs reproducible.

pub mod checksum;
pub mod codec;
pub mod dirlock;
pub mod config;
pub mod entity;
pub mod error;
pub mod event;
pub mod ids;
pub mod limits;
pub mod money;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use error::{OmError, OmResult};
pub use money::Money;
