//! # om-mvcc
//!
//! A PostgreSQL-like **multi-version storage engine** with snapshot
//! isolation, built for the *Customized* Online Marketplace binding
//! (paper §III: "offloads consistent querying … to PostgreSQL").
//!
//! The engine provides:
//!
//! * a monotonic [`oracle::TsOracle`] issuing snapshot and commit
//!   timestamps;
//! * generic, typed [`table::Table`]s storing version chains per key;
//! * multi-table ACID transactions through [`tx::TxManager`]:
//!   * **Snapshot isolation** — readers see the newest version committed at
//!     or before their snapshot; writers buffer intents and validate
//!     *first-committer-wins* at commit;
//!   * **Serializable** (optimistic) — additionally validates the read set
//!     at commit, rejecting transactions whose reads were overwritten;
//! * snapshot **scans** over tables and secondary-index-style predicate
//!   queries — the mechanism behind the benchmark's *Seller Dashboard*
//!   criterion (two queries over one snapshot);
//! * version **garbage collection** bounded by the oldest active snapshot.
//!
//! The heart of the correctness argument is the commit critical section in
//! [`tx::TxManager::commit`]: validation, commit-timestamp assignment,
//! version installation and oracle publication happen atomically, so any
//! snapshot taken after a commit's timestamp observes *all* of the
//! transaction's writes across *all* tables — never a torn subset.

pub mod oracle;
pub mod table;
pub mod tx;

pub use oracle::{Timestamp, TsOracle};
pub use table::{prefix_range, Table};
pub use tx::{IsolationLevel, Tx, TxManager, TxOutcome};
