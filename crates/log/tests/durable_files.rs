//! The files the two durable stores leave on disk, pinned: names,
//! lengths and CRC-32s of every file a fixed workload writes through a
//! [`FileBackend`] (WAL segments, base and delta snapshots, compaction)
//! and through a two-partition [`PersistentTopic`] (rolled segments and
//! `topic.meta`).
//!
//! The workload is single-threaded, so each cohort is one commit or one
//! record and the bytes are a function of the code alone. Segment sizes
//! are small enough that both stores roll, and the backend's snapshot
//! and compaction settings make it write a base, chain a delta and then
//! compact the chain into a new base. Each store is reopened midway, so
//! recovery's choice of tail segment is pinned too. The listing is taken
//! after every phase. `durable_files.golden` is that listing: a
//! difference is a change of the on-disk layout or bytes, not a fixture
//! to regenerate.
//!
//! A base or delta snapshot is written with one section holding every
//! entry in key order (builds that kept sharded in-memory maps wrote one
//! section per shard; the loader still takes any number, which
//! `parent_format.rs` pins).
//!
//! A log segment is created full-size and zero-filled, so its length and
//! CRC cover the padding too; its line adds the length and CRC of its
//! written region (its frames, up to the first zero length field). Those
//! two columns read what the whole file read when segments were
//! append-only: the frames are byte-identical, only the padding is new.

use om_common::checksum::{crc32, parse_frame};
use om_log::{PersistentTopic, PersistentTopicOptions, SerdeCodec};
use om_storage::{FaultVfs, FileBackend, FileBackendOptions, StateBackend, VfsOp, WriteBatch};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn backend_options() -> FileBackendOptions {
    FileBackendOptions {
        snapshot_every: 6,
        segment_bytes: 160,
        sync_commits: false,
        compact_max_deltas: 1,
        compact_ratio_pct: 1_000,
    }
}

fn topic_options() -> PersistentTopicOptions {
    PersistentTopicOptions {
        segment_bytes: 96,
        ..PersistentTopicOptions::default()
    }
}

/// Every file under `root`, recursively, as `relative-name length
/// crc32` lines in name order; a `.log` segment's line ends with
/// `written <length> <crc32>` of its frames.
fn listing(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut text = String::new();
    for path in files {
        let bytes = std::fs::read(&path).unwrap();
        let name = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        text.push_str(&format!("{name} {} {:08x}", bytes.len(), crc32(&bytes)));
        if name.ends_with(".log") {
            let mut end = 0;
            while let Ok(Some((_, next))) = parse_frame(&bytes, end) {
                end = next;
            }
            text.push_str(&format!(" written {end} {:08x}", crc32(&bytes[..end])));
        }
        text.push('\n');
    }
    text
}

/// Commits `k` for each `k` in `keys`: two puts, and every third commit
/// also deletes the key two before it.
fn commit_range(backend: &FileBackend, keys: std::ops::Range<u64>) {
    for k in keys {
        let mut batch = WriteBatch::new()
            .put(format!("order/{k}"), format!("placed-{k}"))
            .put(&b"last"[..], k.to_le_bytes().to_vec());
        if k % 3 == 0 && k >= 2 {
            batch = batch.delete(format!("order/{}", k - 2));
        }
        backend.commit(batch).unwrap();
    }
}

fn backend_phases(dir: &Path, out: &mut String) {
    {
        let backend = FileBackend::open(dir, backend_options()).unwrap();
        // Five commits roll the 160-byte segment without a snapshot;
        // the sixth writes the first base.
        commit_range(&backend, 1..6);
        out.push_str("## state: 5 commits, segments rolled\n");
        out.push_str(&listing(dir));
        commit_range(&backend, 6..7);
        out.push_str("## state: 6 commits, first base\n");
        out.push_str(&listing(dir));
        // Six more chain one small delta on the base.
        commit_range(&backend, 7..13);
        out.push_str("## state: 12 commits, a delta on the base\n");
        out.push_str(&listing(dir));
        commit_range(&backend, 13..16);
    }
    out.push_str("## state: 15 commits, closed\n");
    out.push_str(&listing(dir));
    let backend = FileBackend::open(dir, backend_options()).unwrap();
    // Recovery resumes in the tail segment; the next snapshot finds the
    // chain at its one-delta limit and compacts it into a new base.
    commit_range(&backend, 16..25);
    out.push_str("## state: 24 commits after a reopen, compacted\n");
    out.push_str(&listing(dir));
    drop(backend);
}

fn open_topic(dir: &Path) -> PersistentTopic<u64> {
    PersistentTopic::open_with(dir, "orders", 2, Arc::new(SerdeCodec), topic_options()).unwrap()
}

fn topic_phases(dir: &Path, out: &mut String) {
    {
        let topic = open_topic(dir);
        for i in 0..14u64 {
            topic.append_raw((i % 2) as usize, 1, i + 1, i * 1_000).unwrap();
        }
    }
    out.push_str("## ingress: 14 records, closed\n");
    out.push_str(&listing(dir));
    let topic = open_topic(dir);
    for i in 14..24u64 {
        topic.append_raw((i % 2) as usize, 1, i + 1, i * 1_000).unwrap();
    }
    out.push_str("## ingress: 24 records after a reopen\n");
    out.push_str(&listing(dir));
    drop(topic);
}

#[test]
fn durable_files_match_the_golden_listing() {
    let scratch = std::env::temp_dir().join(format!("om-durable-files-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = String::new();
    backend_phases(&scratch.join("state"), &mut out);
    topic_phases(&scratch.join("ingress"), &mut out);
    std::fs::remove_dir_all(&scratch).unwrap();
    assert_eq!(
        out,
        include_str!("durable_files.golden"),
        "the durable file layout or bytes changed"
    );
}

/// What the stores delete and write goes through their `Vfs` too: a
/// recording open logs the removal of a snapshot temp file a dead
/// process left, and a fresh topic's `topic.meta`.
#[test]
fn temp_file_removal_and_topic_meta_go_through_the_vfs() {
    let scratch = std::env::temp_dir().join(format!("om-durable-vfs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let state = scratch.join("state");
    std::fs::create_dir_all(state.join("snap")).unwrap();
    let stray = state.join("snap").join("snap-7.tmp");
    std::fs::write(&stray, b"half a base").unwrap();
    let vfs = FaultVfs::new(1).recording();
    drop(FileBackend::open_with_vfs(&state, backend_options(), Arc::new(vfs.clone())).unwrap());
    let ingress = scratch.join("ingress");
    let topic: PersistentTopic<u64> = PersistentTopic::open_with_vfs(
        &ingress,
        "orders",
        2,
        Arc::new(SerdeCodec),
        topic_options(),
        Arc::new(vfs.clone()),
    )
    .unwrap();
    drop(topic);
    let log = vfs.take_log();
    std::fs::remove_dir_all(&scratch).unwrap();
    assert!(log.contains(&VfsOp::Remove(stray)), "{log:?}");
    let meta = ingress.join("topic.meta");
    assert!(
        log.iter().any(|op| matches!(op, VfsOp::WriteFile(p, _) if *p == meta)),
        "{log:?}"
    );
}
