//! A directory written before log segments were pre-allocated opens and
//! reads back whole. `parent_format/` was written by the append-only
//! layout (each segment exactly as long as its frames): a file backend
//! of 11 commits (a base snapshot at commit 6, commits 7-11 in two WAL
//! segments) and a two-partition topic of 15 records in rolled segments.
//! The workloads below are the ones that wrote it.
//!
//! Opening such a directory resumes in each log's final segment, which
//! is re-filled with zeros to its full size; the segments before it stay
//! as they are, short and unpadded, and replay the same way.

use om_log::{EventLog, PersistentTopic, PersistentTopicOptions, SerdeCodec};
use om_storage::{FileBackend, FileBackendOptions, StateBackend, WriteBatch};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/parent_format");
const COMMITS: u64 = 11;
const RECORDS: u64 = 15;

fn backend_options() -> FileBackendOptions {
    FileBackendOptions {
        snapshot_every: 6,
        segment_bytes: 160,
        sync_commits: true,
        compact_max_deltas: 4,
        compact_ratio_pct: 1_000,
    }
}

fn topic_options() -> PersistentTopicOptions {
    PersistentTopicOptions {
        segment_bytes: 96,
        sync_appends: true,
        ..PersistentTopicOptions::default()
    }
}

/// Commit `k`: `order/<k>`, the `last` marker, and every third commit
/// deletes the order two before it.
fn batch(k: u64) -> WriteBatch {
    let batch = WriteBatch::new()
        .put(format!("order/{k}"), format!("placed-{k}"))
        .put(&b"last"[..], k.to_le_bytes().to_vec());
    if k.is_multiple_of(3) {
        batch.delete(format!("order/{}", k - 2))
    } else {
        batch
    }
}

/// The state after commits `1..=n`.
fn model(n: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut m = BTreeMap::new();
    for k in 1..=n {
        m.insert(
            format!("order/{k}").into_bytes(),
            format!("placed-{k}").into_bytes(),
        );
        m.insert(b"last".to_vec(), k.to_le_bytes().to_vec());
        if k.is_multiple_of(3) {
            m.remove(format!("order/{}", k - 2).as_bytes());
        }
    }
    m.into_iter().collect()
}

/// Record `i` goes to partition `i % 2` as producer 1, sequence `i + 1`.
fn expected_records(partition: u64, n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .filter(|i| i % 2 == partition)
        .map(|i| (i + 1, i * 1_000))
        .collect()
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let target = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_tree(&path, &target);
        } else {
            std::fs::copy(&path, &target).unwrap();
        }
    }
}

struct DirGuard(PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn records(topic: &PersistentTopic<u64>, partition: u64) -> Vec<(u64, u64)> {
    topic
        .read_from(partition as usize, 0, 100)
        .iter()
        .map(|e| (e.seq, e.payload))
        .collect()
}

#[test]
fn a_directory_written_by_the_append_only_layout_reads_back_whole() {
    let scratch = std::env::temp_dir().join(format!("om-parent-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let _guard = DirGuard(scratch.clone());
    copy_tree(Path::new(FIXTURE), &scratch);
    let (state, ingress) = (scratch.join("state"), scratch.join("ingress"));

    let backend = FileBackend::open(&state, backend_options()).unwrap();
    assert_eq!(
        backend.scan_prefix(b""),
        model(COMMITS),
        "every key of the 11 commits"
    );
    assert_eq!(
        backend.counters()["backend.recovered_commits"],
        5,
        "commits 7-11 replay"
    );
    assert_eq!(backend.counters()["backend.torn_tail_bytes"], 0);
    // The final segment resumed, re-filled to its full size; the one
    // before it is untouched.
    let wal = |n: u64| std::fs::read(state.join("wal").join(format!("wal-{n}.log"))).unwrap();
    let fixture_wal =
        |n: u64| std::fs::read(Path::new(FIXTURE).join(format!("state/wal/wal-{n}.log"))).unwrap();
    assert_eq!(wal(7), fixture_wal(7));
    let tail = wal(10);
    assert_eq!(tail.len(), 160);
    assert_eq!(tail[..fixture_wal(10).len()], fixture_wal(10)[..]);
    for k in COMMITS + 1..=COMMITS + 4 {
        backend.commit(batch(k)).unwrap();
    }
    drop(backend);
    let backend = FileBackend::open(&state, backend_options()).unwrap();
    assert_eq!(backend.scan_prefix(b""), model(COMMITS + 4));
    drop(backend);

    let topic: PersistentTopic<u64> =
        PersistentTopic::open_with(&ingress, "orders", 2, Arc::new(SerdeCodec), topic_options())
            .unwrap();
    assert_eq!(EventLog::len(&topic), RECORDS as usize);
    for p in 0..2 {
        assert_eq!(
            records(&topic, p),
            expected_records(p, RECORDS),
            "partition {p}"
        );
    }
    for i in RECORDS..RECORDS + 4 {
        topic
            .append_raw((i % 2) as usize, 1, i + 1, i * 1_000)
            .unwrap();
    }
    drop(topic);
    let topic: PersistentTopic<u64> =
        PersistentTopic::open_with(&ingress, "orders", 2, Arc::new(SerdeCodec), topic_options())
            .unwrap();
    for p in 0..2 {
        assert_eq!(
            records(&topic, p),
            expected_records(p, RECORDS + 4),
            "partition {p}"
        );
    }
}
