//! The `StateBackend` trait: the transactional surface the platform
//! bindings actually use, captured once so storage is pluggable.

use om_common::config::BackendKind;
use om_common::OmResult;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One write of a multi-key commit. `value == None` deletes the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// Key the write targets.
    pub key: Vec<u8>,
    /// New value, or `None` for a deletion.
    pub value: Option<Vec<u8>>,
}

/// An ordered batch of writes submitted through [`StateBackend::commit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch over pre-built ops (applied in order).
    pub fn from_ops(ops: Vec<WriteOp>) -> Self {
        Self { ops }
    }

    /// Stages an insert/update of `key`.
    pub fn put(mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Self {
        self.ops.push(WriteOp {
            key: key.into(),
            value: Some(value.into()),
        });
        self
    }

    /// Stages a deletion of `key`.
    pub fn delete(mut self, key: impl Into<Vec<u8>>) -> Self {
        self.ops.push(WriteOp {
            key: key.into(),
            value: None,
        });
        self
    }

    /// Number of staged writes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch stages no writes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The staged writes, in submission order.
    pub fn ops(&self) -> &[WriteOp] {
        &self.ops
    }

    /// Consumes the batch into its writes.
    pub fn into_ops(self) -> Vec<WriteOp> {
        self.ops
    }
}

/// A client-scoped handle providing **read-your-writes** over a backend.
///
/// Sessions are cheap, single-threaded cursors: the eventual backend uses
/// them to serve reads from its (possibly lagging) secondary replica while
/// guaranteeing a session never unsees its own writes; the snapshot
/// backend satisfies the guarantee trivially because its commits are
/// synchronous.
pub trait StateSession: Send {
    /// Reads `key`, honouring read-your-writes for this session.
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>>;

    /// Writes through the backend, recording the write in the session's
    /// causal context.
    fn put(&mut self, key: &[u8], value: &[u8]);

    /// Deletes through the backend, recording the delete in the session's
    /// causal context.
    fn delete(&mut self, key: &[u8]);

    /// How many reads could not be served locally and had to fall back to
    /// the authoritative copy (the cost the weaker discipline charges).
    fn fallbacks(&self) -> u64;
}

/// The uniform storage surface behind the platform bindings.
///
/// The contract distils what the bindings need from their concrete stores:
/// point reads and writes, prefix scans, read-your-writes sessions, and an
/// **atomic multi-key commit** of blind writes. How much of that
/// contract is honoured — and at what cost — is exactly the axis the
/// benchmark measures:
///
/// | | [`commit`](StateBackend::commit) | [`get_many`](StateBackend::get_many) |
/// |---|---|---|
/// | eventual | applied per key (torn states observable) | independent reads |
/// | snapshot isolation | atomic, never aborts | one committed state |
/// | file durable | atomic, durable before visible | one committed state |
///
/// The two atomic stores keep one in-memory image: a batch applies under
/// its write lock and each read call runs under its read lock.
///
/// ```
/// use om_common::config::BackendKind;
/// use om_storage::{make_backend, WriteBatch};
///
/// let backend = make_backend(BackendKind::SnapshotIsolation, 4);
/// backend.put(b"stock/1", b"5");
/// assert_eq!(backend.get(b"stock/1"), Some(b"5".to_vec()));
///
/// // Atomic multi-key commit: place the order and consume the stock
/// // together (under snapshot isolation, no reader sees one without
/// // the other).
/// let batch = WriteBatch::new()
///     .put(b"order/7".to_vec(), b"placed".to_vec())
///     .delete(b"stock/1".to_vec());
/// backend.commit(batch).unwrap();
/// assert_eq!(backend.get(b"stock/1"), None);
///
/// // Read-your-writes session: a session never unsees its own write,
/// // even when the backend serves reads from a lagging replica.
/// let mut session = backend.session();
/// session.put(b"cart/9", b"item");
/// assert_eq!(session.get(b"cart/9"), Some(b"item".to_vec()));
/// ```
pub trait StateBackend: Send + Sync {
    /// Which discipline this backend implements.
    fn kind(&self) -> BackendKind;

    /// Authoritative point read (latest committed value).
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Single-key write, immediately visible to [`StateBackend::get`].
    /// Panics if the store cannot honour it (a wedged durable store) —
    /// production write paths that must survive storage faults use
    /// [`StateBackend::try_put`] instead.
    fn put(&self, key: &[u8], value: &[u8]);

    /// Single-key delete. Panics like [`StateBackend::put`] on a store
    /// that cannot honour it.
    fn delete(&self, key: &[u8]);

    /// Fallible single-key write: identical visibility semantics to
    /// [`StateBackend::put`], but a store that cannot accept writes (a
    /// wedged [`FileDurable`](BackendKind::FileDurable) store) returns
    /// the typed error instead of panicking, so callers can shed or
    /// retry. The memory backends never fail.
    fn try_put(&self, key: &[u8], value: &[u8]) -> OmResult<()> {
        self.put(key, value);
        Ok(())
    }

    /// Fallible single-key delete — see [`StateBackend::try_put`].
    fn try_delete(&self, key: &[u8]) -> OmResult<()> {
        self.delete(key);
        Ok(())
    }

    /// Whether the store is **wedged**: a durable-write failure left it
    /// unable to accept commits, and every write fails fast with
    /// [`om_common::OmError::Wedged`] until [`StateBackend::unwedge`]
    /// repairs it. Memory backends are never wedged.
    fn is_wedged(&self) -> bool {
        false
    }

    /// Repairs a wedged store in place (close, truncate the torn tail,
    /// re-open, verify), returning the torn bytes dropped. `None` means
    /// the backend has no wedge concept (the memory disciplines);
    /// `Some(Err(_))` means the repair itself failed and the store is
    /// still wedged.
    fn unwedge(&self) -> Option<OmResult<u64>> {
        None
    }

    /// Multi-key read. The snapshot and file backends read every key in
    /// one step, from one committed state; the eventual backend reads
    /// each key independently, so a concurrent commit may be observed
    /// half-applied.
    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>>;

    /// All live `(key, value)` pairs whose key starts with `prefix`,
    /// ordered by key.
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Applies a multi-key batch of blind writes; within a batch the last
    /// write to a key wins. The snapshot backend applies the batch
    /// atomically and never aborts: a batch reads nothing, so there is no
    /// conflict to validate. The eventual backend applies
    /// last-writer-wins per key. Only the file backend returns `Err`:
    /// when it cannot make the batch durable, and then it is
    /// [wedged](StateBackend::is_wedged). Returns the number of writes
    /// applied.
    fn commit(&self, batch: WriteBatch) -> OmResult<usize>;

    /// [`commit`](StateBackend::commit) **by reference**: identical
    /// semantics without consuming the ops. The default clones into a
    /// batch.
    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        self.commit(WriteBatch::from_ops(ops.to_vec()))
    }

    /// Opens a read-your-writes session.
    fn session(&self) -> Box<dyn StateSession + '_>;

    /// Blocks until asynchronous work (replication) has drained; after
    /// quiesce an eventual backend's replicas agree.
    fn quiesce(&self);

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Whether the backend holds no live keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Backend diagnostic counters (replication lag, commit conflicts, …).
    fn counters(&self) -> BTreeMap<String, u64>;
}

/// Constructs the backend for `kind`. `shards` sizes the eventual
/// backend's store (rounded up to a power of two); the snapshot and file
/// backends keep one image and ignore it. This is the single seam
/// `RunConfig` drives: everything above it holds an
/// `Arc<dyn StateBackend>`.
///
/// A [`BackendKind::FileDurable`] backend built here lives in a scratch
/// directory that is removed when the backend drops; pass a concrete
/// directory through [`make_backend_at`] to get restartable state.
pub fn make_backend(kind: BackendKind, shards: usize) -> Arc<dyn StateBackend> {
    make_backend_at(kind, shards, None).expect("backend construction")
}

/// [`make_backend`] with an explicit durable-state directory.
///
/// Only [`BackendKind::FileDurable`] consults `data_dir` — it opens (or
/// initialises) the store there, recovering whatever a previous process
/// left behind, and keeps the directory on drop. The memory-only
/// backends ignore it. `None` falls back to a self-cleaning scratch
/// directory for the file backend.
pub fn make_backend_at(
    kind: BackendKind,
    shards: usize,
    data_dir: Option<&std::path::Path>,
) -> OmResult<Arc<dyn StateBackend>> {
    make_backend_with(
        kind,
        shards,
        data_dir,
        &om_common::config::DurableOptions::default(),
    )
}

/// [`make_backend_at`] with explicit
/// [`DurableOptions`](om_common::config::DurableOptions) — the full
/// config-driven seam: `RunConfig::durable` / `PlatformSpec::durable`
/// select whether the file backend fsyncs its commits here. The
/// memory-only backends ignore `durable`.
pub fn make_backend_with(
    kind: BackendKind,
    shards: usize,
    data_dir: Option<&std::path::Path>,
    durable: &om_common::config::DurableOptions,
) -> OmResult<Arc<dyn StateBackend>> {
    Ok(match kind {
        BackendKind::Eventual => Arc::new(crate::eventual::EventualBackend::new(shards)),
        BackendKind::SnapshotIsolation => Arc::new(crate::snapshot::SnapshotBackend::new()),
        BackendKind::FileDurable => {
            let options = crate::file::FileBackendOptions::from_durable(shards, durable);
            match data_dir {
                Some(dir) => Arc::new(crate::file::FileBackend::open(dir, options)?),
                None => Arc::new(crate::file::FileBackend::scratch_with(options)?),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_collects_ops_in_order() {
        let batch = WriteBatch::new()
            .put(b"a".to_vec(), b"1".to_vec())
            .delete(b"b".to_vec())
            .put(b"c".to_vec(), b"3".to_vec());
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.ops()[0].key, b"a");
        assert_eq!(batch.ops()[1].value, None);
        assert_eq!(batch.ops()[2].value.as_deref(), Some(&b"3"[..]));
    }

    #[test]
    fn factory_builds_both_disciplines() {
        for kind in BackendKind::ALL {
            let b = make_backend(kind, 4);
            assert_eq!(b.kind(), kind);
            b.put(b"k", b"v");
            assert_eq!(b.get(b"k"), Some(b"v".to_vec()));
            assert_eq!(b.len(), 1);
        }
    }
}
