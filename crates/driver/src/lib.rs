//! # om-driver
//!
//! The Online Marketplace **benchmark driver** (paper §II, *Driver*):
//! manages the experiment lifecycle — data generation, data ingestion,
//! system warm-up, submission of workload, statistics collection and
//! cleanup — plus the **criteria auditor** that turns the paper's
//! data-management criteria into measured violation counts.
//!
//! Practical challenges the talk highlights are handled explicitly:
//!
//! * **Deleted products without distorting the key distribution** — the
//!   workload keeps a fixed rank→product table; deleting a product swaps a
//!   replacement into its rank instead of shrinking the key space
//!   ([`workload::WorkloadState`]).
//! * **Safe concurrent access to transaction inputs** — customers are
//!   leased from a pool so no two in-flight transactions share a cart.
//!
//! Entry point: [`runner::run_benchmark`].

pub mod audit;
pub mod datagen;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod workload;

pub use audit::{CriteriaReport, CriterionVerdict};
pub use datagen::DataGenerator;
pub use report::RunReport;
pub use runner::{run_benchmark, run_matrix_cell};
pub use scenario::{next_scenario_op, ScenarioState};
