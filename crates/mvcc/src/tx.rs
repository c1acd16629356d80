//! Transaction manager: begin/commit/abort, isolation levels and GC.

use crate::oracle::{Timestamp, TsOracle};
use crate::table::{DynTable, Table};
use om_common::{OmError, OmResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Transaction identifier (process-local).
pub type TxId = u64;

/// Supported isolation levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationLevel {
    /// Snapshot isolation: snapshot reads + first-committer-wins writes.
    Snapshot,
    /// Optimistic serializable: snapshot isolation plus read-set
    /// validation at commit (reads must not have been overwritten).
    /// Key-level only — range scans validate the keys they returned, so
    /// phantoms on *new* keys are not detected.
    Serializable,
}

/// An open transaction handle.
///
/// Dropping an uncommitted transaction aborts it (releases its snapshot
/// and discards buffered writes).
pub struct Tx {
    id: TxId,
    snapshot: Timestamp,
    isolation: IsolationLevel,
    manager: Arc<TxManagerInner>,
    finished: AtomicBool,
}

impl Tx {
    pub fn id(&self) -> TxId {
        self.id
    }

    pub fn snapshot(&self) -> Timestamp {
        self.snapshot
    }

    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    pub fn is_serializable(&self) -> bool {
        self.isolation == IsolationLevel::Serializable
    }

    pub(crate) fn assert_open(&self) {
        debug_assert!(
            !self.finished.load(Ordering::Relaxed),
            "operation on finished transaction"
        );
    }
}

impl Drop for Tx {
    fn drop(&mut self) {
        if !self.finished.swap(true, Ordering::Relaxed) {
            self.manager.abort_inner(self.id, self.snapshot);
        }
    }
}

/// Outcome of a successful commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxOutcome {
    pub commit_ts: Timestamp,
    /// Number of row versions installed.
    pub writes: usize,
}

struct TxManagerInner {
    oracle: TsOracle,
    tables: Mutex<Vec<DynTable>>,
    /// Serializes validate→assign→install→publish. See crate docs.
    commit_mutex: Mutex<()>,
    next_tx: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl TxManagerInner {
    fn abort_inner(&self, tx: TxId, snapshot: Timestamp) {
        for t in self.tables.lock().iter() {
            t.discard(tx);
        }
        self.oracle.release_snapshot(snapshot);
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }
}

/// The multi-table transaction manager.
///
/// Tables are created through [`TxManager::create_table`] so the manager
/// can drive validation, installation and GC across every table a
/// transaction touched.
#[derive(Clone)]
pub struct TxManager {
    inner: Arc<TxManagerInner>,
}

impl Default for TxManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxManager {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TxManagerInner {
                oracle: TsOracle::new(),
                tables: Mutex::new(Vec::new()),
                commit_mutex: Mutex::new(()),
                next_tx: AtomicU64::new(1),
                commits: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
            }),
        }
    }

    /// Creates (and registers) a typed table.
    pub fn create_table<K, R>(&self, name: impl Into<String>) -> Arc<Table<K, R>>
    where
        K: Ord + Clone + Send + Sync + 'static,
        R: Clone + Send + Sync + 'static,
    {
        let table = Arc::new(Table::new(name));
        self.inner.tables.lock().push(table.clone());
        table
    }

    /// Opens a transaction at the current snapshot.
    pub fn begin(&self, isolation: IsolationLevel) -> Tx {
        let snapshot = self.inner.oracle.acquire_snapshot();
        Tx {
            id: self.inner.next_tx.fetch_add(1, Ordering::Relaxed),
            snapshot,
            isolation,
            manager: self.inner.clone(),
            finished: AtomicBool::new(false),
        }
    }

    /// Commits `tx`, validating against every registered table.
    ///
    /// On conflict returns [`OmError::Conflict`] and the transaction is
    /// fully aborted (buffered writes discarded, snapshot released).
    pub fn commit(&self, tx: Tx) -> OmResult<TxOutcome> {
        tx.assert_open();
        let serializable = tx.is_serializable();
        let guard = self.inner.commit_mutex.lock();
        let tables = self.inner.tables.lock().clone();
        for t in &tables {
            if let Err(reason) = t.validate(tx.id(), tx.snapshot(), serializable) {
                drop(guard);
                // Drop handler performs the abort.
                return Err(OmError::Conflict(reason));
            }
        }
        let commit_ts = self.inner.oracle.next_commit_ts();
        let mut writes = 0;
        for t in &tables {
            writes += t.install(tx.id(), commit_ts);
        }
        self.inner.oracle.publish(commit_ts);
        drop(guard);
        self.inner.oracle.release_snapshot(tx.snapshot());
        tx.finished.store(true, Ordering::Relaxed);
        self.inner.commits.fetch_add(1, Ordering::Relaxed);
        Ok(TxOutcome { commit_ts, writes })
    }

    /// Explicitly aborts `tx` (equivalent to dropping it).
    pub fn abort(&self, tx: Tx) {
        drop(tx);
    }

    /// Runs `body` in a transaction, retrying on conflict up to
    /// `max_retries` times. The closure may return `Err` to abort.
    pub fn run<T, F>(&self, isolation: IsolationLevel, max_retries: usize, mut body: F) -> OmResult<T>
    where
        F: FnMut(&Tx) -> OmResult<T>,
    {
        let mut attempt = 0;
        loop {
            let tx = self.begin(isolation);
            match body(&tx) {
                Ok(value) => match self.commit(tx) {
                    Ok(_) => return Ok(value),
                    Err(e) if e.is_retryable() && attempt < max_retries => {
                        attempt += 1;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    // tx dropped here -> aborted
                    return Err(e);
                }
            }
        }
    }

    /// Garbage-collects superseded versions across all tables; returns the
    /// number of versions dropped.
    pub fn gc(&self) -> usize {
        let horizon = self.inner.oracle.gc_horizon();
        let tables = self.inner.tables.lock().clone();
        tables.iter().map(|t| t.gc(horizon)).sum()
    }

    /// Last published commit timestamp.
    pub fn current_ts(&self) -> Timestamp {
        self.inner.oracle.current()
    }

    /// (commits, aborts) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.inner.commits.load(Ordering::Relaxed),
            self.inner.aborts.load(Ordering::Relaxed),
        )
    }

    /// Number of snapshots currently held open (diagnostics).
    pub fn active_snapshots(&self) -> usize {
        self.inner.oracle.active_snapshots()
    }
}
