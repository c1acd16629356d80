//! The recording backend the row suites share (`row_keys`,
//! `dataflow_rows`, `actor_rows`): a memory backend that logs every write
//! it takes, with the path the write came by. Each suite derives its
//! counts from that log.

#![allow(dead_code)] // each suite reads its own part of the log

use om_common::config::BackendKind;
use om_common::OmResult;
use om_storage::{make_backend, StateBackend, StateSession, WriteBatch, WriteOp};
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a write reached the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePath {
    /// One `commit` / `commit_ops` batch.
    Commit,
    /// One `put` / `delete`.
    Single,
}

/// One logged write: a whole commit batch, or a single put or delete.
#[derive(Debug, Clone)]
pub struct Write {
    pub path: WritePath,
    pub ops: Vec<WriteOp>,
}

impl Write {
    /// Bytes written: keys plus values.
    pub fn bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| (op.key.len() + op.value.as_ref().map_or(0, Vec::len)) as u64)
            .sum()
    }
}

/// `(commits, bytes)` of the commit batches among `writes`.
pub fn commit_totals<'a>(writes: impl IntoIterator<Item = &'a Write>) -> (u64, u64) {
    writes
        .into_iter()
        .filter(|w| w.path == WritePath::Commit)
        .fold((0, 0), |(commits, bytes), w| {
            (commits + 1, bytes + w.bytes())
        })
}

/// A memory backend of `kind` that logs every write before applying it.
pub struct RecordingBackend {
    inner: Arc<dyn StateBackend>,
    log: Mutex<Vec<Write>>,
}

impl RecordingBackend {
    pub fn new(kind: BackendKind) -> Arc<Self> {
        Arc::new(Self {
            inner: make_backend(kind, 8),
            log: Mutex::new(Vec::new()),
        })
    }

    /// Every write so far, in the order the backend took them.
    pub fn log(&self) -> MutexGuard<'_, Vec<Write>> {
        self.log.lock()
    }

    fn record(&self, path: WritePath, ops: Vec<WriteOp>) {
        self.log.lock().push(Write { path, ops });
    }
}

impl StateBackend for RecordingBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) {
        let op = WriteOp {
            key: key.to_vec(),
            value: Some(value.to_vec()),
        };
        self.record(WritePath::Single, vec![op]);
        self.inner.put(key, value)
    }
    fn delete(&self, key: &[u8]) {
        let op = WriteOp {
            key: key.to_vec(),
            value: None,
        };
        self.record(WritePath::Single, vec![op]);
        self.inner.delete(key)
    }
    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        self.inner.get_many(keys)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan_prefix(prefix)
    }
    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        self.record(WritePath::Commit, batch.ops().to_vec());
        self.inner.commit(batch)
    }
    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        self.record(WritePath::Commit, ops.to_vec());
        self.inner.commit_ops(ops)
    }
    fn session(&self) -> Box<dyn StateSession + '_> {
        self.inner.session()
    }
    fn quiesce(&self) {
        self.inner.quiesce()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.counters()
    }
}
