//! Row-keyed grain storage through the cluster: a turn's rows reach the
//! backend as one batch in the order the grain wrote them, a row-keyed
//! kind reactivates with its rows in row order, and a plain kind never
//! pays for a prefix scan.

use om_actor::{Cluster, GrainContext, GrainId, Row};
use om_common::config::BackendKind;
use om_common::OmResult;
use om_storage::{make_backend, StateBackend, StateSession, WriteBatch, WriteOp};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// A memory backend that records every commit's writes and counts prefix
/// scans.
struct RecordingBackend {
    inner: Arc<dyn StateBackend>,
    commits: Mutex<Vec<Vec<WriteOp>>>,
    scans: AtomicU64,
}

impl RecordingBackend {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: make_backend(BackendKind::SnapshotIsolation, 8),
            commits: Mutex::new(Vec::new()),
            scans: AtomicU64::new(0),
        })
    }

    fn commits(&self) -> Vec<Vec<WriteOp>> {
        self.commits.lock().clone()
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
        self.inner.put(key, value)
    }
    fn delete(&self, key: &[u8]) {
        self.inner.delete(key)
    }
    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        self.inner.get_many(keys)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.inner.scan_prefix(prefix)
    }
    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        self.commits.lock().push(batch.ops().to_vec());
        self.inner.commit(batch)
    }
    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        self.commits.lock().push(ops.to_vec());
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

#[derive(Debug, Clone)]
enum Msg {
    /// Blocks the turn until the test releases it.
    Hold(Arc<Mutex<Option<mpsc::Receiver<()>>>>),
    Put(u8, u8),
    Delete(u8),
    Snapshot(u8),
    /// The rows the activation was built with.
    Rows,
}

fn storage_key(kind: &str, key: u64) -> Vec<u8> {
    let mut out = kind.as_bytes().to_vec();
    out.push(b'/');
    out.extend_from_slice(&key.to_be_bytes());
    out
}

fn row_key(kind: &str, key: u64, row: u8) -> Vec<u8> {
    let mut out = storage_key(kind, key);
    out.extend_from_slice(&[b'r', row]);
    out
}

/// A grain that writes the rows it is told to and reports the rows and
/// snapshot it was activated with.
fn rows_grain(
    snapshot: Option<Vec<u8>>,
    rows: Vec<Row>,
) -> Box<dyn om_actor::Grain<Msg, Vec<Row>>> {
    let mut restored = rows;
    if let Some(s) = snapshot {
        restored.insert(0, (Vec::new(), s));
    }
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
        match msg {
            Msg::Hold(gate) => {
                if let Some(rx) = gate.lock().take() {
                    let _ = rx.recv();
                }
            }
            Msg::Put(row, value) => ctx.put_row(vec![b'r', row], vec![value]),
            Msg::Delete(row) => ctx.delete_row(vec![b'r', row]),
            Msg::Snapshot(value) => ctx.persist(vec![value]),
            Msg::Rows => {}
        }
        restored.clone()
    })
}

fn cluster(backend: Arc<RecordingBackend>) -> Cluster<Msg, Vec<Row>> {
    Cluster::builder()
        .silos(1)
        .workers_per_silo(2)
        .storage_backend(backend)
        .register_rows("rowed", |_id, snapshot, rows| rows_grain(snapshot, rows))
        .register("plain", |_id, snapshot| rows_grain(snapshot, Vec::new()))
        .build()
}

#[test]
fn rows_of_one_turn_commit_as_one_batch_in_order() {
    let backend = RecordingBackend::new();
    let cluster = cluster(backend.clone());
    let id = GrainId::new("rowed", 3);
    // The first message holds the turn open while the rest queue up
    // behind it, so all of them are handled by that one turn.
    let (release, gate) = mpsc::channel();
    cluster.notify(id, Msg::Hold(Arc::new(Mutex::new(Some(gate)))));
    for msg in [
        Msg::Put(2, 20),
        Msg::Put(1, 10),
        Msg::Snapshot(7),
        Msg::Put(9, 90),
        Msg::Delete(9),
    ] {
        cluster.notify(id, msg);
    }
    release.send(()).unwrap();
    assert!(cluster.drain(Duration::from_secs(5)));

    let commits = backend.commits();
    assert_eq!(commits.len(), 1, "one turn, one commit: {commits:?}");
    let expected = vec![
        WriteOp {
            key: row_key("rowed", 3, 2),
            value: Some(vec![20]),
        },
        WriteOp {
            key: row_key("rowed", 3, 1),
            value: Some(vec![10]),
        },
        WriteOp {
            key: row_key("rowed", 3, 9),
            value: Some(vec![90]),
        },
        WriteOp {
            key: row_key("rowed", 3, 9),
            value: None,
        },
        WriteOp {
            key: storage_key("rowed", 3),
            value: Some(vec![7]),
        },
    ];
    assert_eq!(commits[0], expected);
    // The put then delete of row 9 left nothing behind.
    assert_eq!(backend.get(&row_key("rowed", 3, 9)), None);
    assert_eq!(backend.len(), 3, "snapshot + rows 1 and 2");
    assert_eq!(cluster.storage().save_count(), 1);
}

#[test]
fn row_keyed_kind_reactivates_with_its_rows_in_row_order() {
    let backend = RecordingBackend::new();
    let cluster = cluster(backend.clone());
    let id = GrainId::new("rowed", 5);
    let sibling = GrainId::new("rowed", 6);
    for msg in [
        Msg::Put(3, 30),
        Msg::Snapshot(1),
        Msg::Put(1, 10),
        Msg::Put(2, 20),
        Msg::Delete(3),
    ] {
        cluster.call(id, msg).unwrap();
    }
    cluster.call(sibling, Msg::Put(1, 61)).unwrap();
    assert!(cluster.drain(Duration::from_secs(5)));

    cluster.kill_silo(0);
    cluster.restart_silo(0);
    assert_eq!(
        cluster.call(id, Msg::Rows).unwrap(),
        vec![
            (Vec::new(), vec![1]),
            (vec![b'r', 1], vec![10]),
            (vec![b'r', 2], vec![20]),
        ],
        "snapshot, then rows in row order; the deleted row and the sibling's rows absent"
    );
    assert_eq!(
        cluster.call(sibling, Msg::Rows).unwrap(),
        vec![(vec![b'r', 1], vec![61])]
    );
}

#[test]
fn plain_kind_never_scans_on_activation() {
    let backend = RecordingBackend::new();
    let cluster = cluster(backend.clone());
    for key in 0..20 {
        cluster
            .call(GrainId::new("plain", key), Msg::Snapshot(key as u8))
            .unwrap();
    }
    assert!(cluster.drain(Duration::from_secs(5)));
    cluster.kill_silo(0);
    cluster.restart_silo(0);
    for key in 0..20 {
        assert_eq!(
            cluster.call(GrainId::new("plain", key), Msg::Rows).unwrap(),
            vec![(Vec::new(), vec![key as u8])],
            "plain grain {key} restored from its snapshot"
        );
    }
    assert_eq!(
        backend.scans.load(Ordering::Relaxed),
        0,
        "no prefix scan for a plain kind"
    );

    // A row-keyed activation costs exactly one scan.
    cluster.call(GrainId::new("rowed", 1), Msg::Rows).unwrap();
    assert_eq!(backend.scans.load(Ordering::Relaxed), 1);
}
