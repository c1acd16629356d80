//! Transaction manager: begin/commit/abort, isolation levels and GC.

use crate::oracle::{Timestamp, TsOracle};
use crate::table::{DynTable, Table};
use om_common::{OmError, OmResult};
use parking_lot::Mutex;
use std::any::Any;
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

/// A transaction's footprint in one table — its buffered writes and, when
/// serializable, the keys it read. Type-erased so one [`Tx`] can carry
/// footprints in tables of different key and row types; the table that
/// made it is the one that reads it back.
pub(crate) type TableFootprint = Box<dyn Any + Send + Sync>;

/// An open transaction handle.
///
/// The transaction owns its footprint: for each table it touched, that
/// table's registry index and what it wrote (and read, if serializable)
/// there. Dropping an uncommitted transaction aborts it — it releases its
/// snapshot, and its footprint goes with it; no table is visited.
pub struct Tx {
    id: TxId,
    snapshot: Timestamp,
    isolation: IsolationLevel,
    manager: Arc<TxManagerInner>,
    finished: AtomicBool,
    footprint: Mutex<Vec<(usize, TableFootprint)>>,
}

impl Tx {
    /// The transaction's process-local identifier.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The commit timestamp the transaction reads at: it sees every
    /// commit at or before it and none after.
    pub fn snapshot(&self) -> Timestamp {
        self.snapshot
    }

    /// The isolation level the transaction was opened with.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Whether the transaction validates its reads at commit.
    pub fn is_serializable(&self) -> bool {
        self.isolation == IsolationLevel::Serializable
    }

    pub(crate) fn assert_open(&self) {
        debug_assert!(
            !self.finished.load(Ordering::Relaxed),
            "operation on finished transaction"
        );
    }

    /// Runs `f` on the transaction's footprint in table `table`, or on
    /// `None` if it has not touched that table.
    pub(crate) fn footprint<F: 'static, O>(
        &self,
        table: usize,
        f: impl FnOnce(Option<&mut F>) -> O,
    ) -> O {
        let mut footprint = self.footprint.lock();
        f(footprint
            .iter_mut()
            .find(|(t, _)| *t == table)
            .map(|(_, fp)| downcast(fp)))
    }

    /// Runs `f` on the transaction's footprint in table `table`, creating
    /// an empty one on first touch.
    pub(crate) fn touch<F: Default + Send + Sync + 'static, O>(
        &self,
        table: usize,
        f: impl FnOnce(&mut F) -> O,
    ) -> O {
        let mut footprint = self.footprint.lock();
        let at = match footprint.iter().position(|(t, _)| *t == table) {
            Some(at) => at,
            None => {
                footprint.push((table, Box::new(F::default())));
                footprint.len() - 1
            }
        };
        f(downcast(&mut footprint[at].1))
    }
}

fn downcast<F: 'static>(footprint: &mut TableFootprint) -> &mut F {
    footprint
        .downcast_mut()
        .expect("a table reads back only the footprint it made")
}

impl Drop for Tx {
    fn drop(&mut self) {
        if !self.finished.swap(true, Ordering::Relaxed) {
            self.manager.abort_inner(self.snapshot);
        }
    }
}

/// Outcome of a successful commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxOutcome {
    /// The timestamp the transaction's writes were installed at.
    pub commit_ts: Timestamp,
    /// Number of row versions installed.
    pub writes: usize,
}

struct TxManagerInner {
    oracle: TsOracle,
    /// Every table, at its registry index.
    tables: Mutex<Vec<DynTable>>,
    /// Serializes validate→assign→install→publish. See crate docs.
    commit_mutex: Mutex<()>,
    next_tx: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl TxManagerInner {
    fn abort_inner(&self, snapshot: Timestamp) {
        self.oracle.release_snapshot(snapshot);
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }
}

/// The multi-table transaction manager.
///
/// Tables are created through [`TxManager::create_table`], which gives
/// each its registry index; a transaction records its footprint by that
/// index, and a commit validates and installs in exactly the tables it
/// touched. A table is only used with transactions of the manager that
/// created it.
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
    /// A manager with no tables, whose oracle has published nothing.
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
        let mut tables = self.inner.tables.lock();
        let table = Arc::new(Table::new(tables.len(), name));
        tables.push(table.clone());
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
            footprint: Mutex::new(Vec::new()),
        }
    }

    /// Commits `tx`, validating and installing in the tables it touched.
    ///
    /// On conflict returns [`OmError::Conflict`] and the transaction is
    /// fully aborted (buffered writes discarded, snapshot released).
    pub fn commit(&self, tx: Tx) -> OmResult<TxOutcome> {
        tx.assert_open();
        debug_assert!(
            Arc::ptr_eq(&tx.manager, &self.inner),
            "a transaction commits through the manager that began it"
        );
        let footprint = std::mem::take(&mut *tx.footprint.lock());
        let guard = self.inner.commit_mutex.lock();
        let tables = self.inner.tables.lock();
        for (table, fp) in &footprint {
            if let Err(reason) = tables[*table].validate(fp.as_ref(), tx.snapshot()) {
                drop(tables);
                drop(guard);
                // Drop handler performs the abort.
                return Err(OmError::Conflict(reason));
            }
        }
        let commit_ts = self.inner.oracle.next_commit_ts();
        let writes = footprint
            .into_iter()
            .map(|(table, fp)| tables[table].install(fp, commit_ts))
            .sum();
        self.inner.oracle.publish(commit_ts);
        drop(tables);
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

    /// (commits, aborts) so far. A transaction dropped without a commit —
    /// a read-only snapshot included — counts as an abort, as does a
    /// commit that lost validation.
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
