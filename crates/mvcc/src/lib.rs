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
//! transaction's writes across *all* tables — never a torn subset. A
//! transaction carries its own footprint (per table it touched: its
//! buffered writes, and its read keys when serializable), so a commit
//! validates and installs only in the tables its transaction touched,
//! however many the manager holds. A snapshot costs an oracle registration
//! at `begin` and a release at drop; reading through it touches only the
//! tables it reads, and a read-only snapshot leaves no state in any table.

#![deny(missing_docs)]

pub mod oracle;
pub mod table;
pub mod tx;

pub use oracle::{Timestamp, TsOracle};
pub use table::{prefix_range, PrefixRange, Table};
pub use tx::{IsolationLevel, Tx, TxManager, TxOutcome};
