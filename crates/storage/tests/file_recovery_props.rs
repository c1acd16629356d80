//! Property tests of the file backend's recovery rules: **truncating the
//! WAL at *any* byte boundary recovers to the last fully-committed
//! batch** — a torn multi-key commit is never partially visible, no
//! committed batch is lost, and recovery is deterministic.
//!
//! The workload commits multi-key batches (every batch writes one round
//! marker to several keys), then simulates a crash by losing the WAL's
//! frames from an arbitrary byte on: the file ends there, or (the zeros
//! outcome of XFS and ext4 `data=writeback`) the lost bytes read back as
//! zeros. The recovered store must equal the reference model after
//! exactly the batches whose frames survived in full.

use om_common::checksum::parse_frame;
use om_storage::{FileBackend, FileBackendOptions, StateBackend, WriteBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "om-file-props-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

struct DirGuard(PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One committed batch: puts (key, value) and deletes (key, None).
type Batch = Vec<(u8, Option<u16>)>;

fn batch_strategy() -> impl Strategy<Value = Batch> {
    prop::collection::vec(
        (any::<u8>(), any::<u16>(), any::<bool>())
            .prop_map(|(k, v, put)| (k % 8, put.then_some(v))),
        1..6,
    )
}

fn key_bytes(k: u8) -> Vec<u8> {
    vec![b'k', k]
}

/// The WAL-only options the torn-tail property needs: no snapshots, and
/// segments larger than any workload here writes, so every committed
/// batch is exactly one frame in one file.
const WAL_ONLY: FileBackendOptions = FileBackendOptions {
    snapshot_every: 0,
    segment_bytes: 1 << 16,
    sync_commits: false,
    compact_max_deltas: 16,
    compact_ratio_pct: 100,
};

fn wal_segment(dir: &std::path::Path) -> PathBuf {
    let mut logs: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    assert_eq!(logs.len(), 1, "WAL_ONLY options must yield a single segment");
    logs.pop().unwrap()
}

/// The end of a segment's frames, where its zero padding starts.
fn written_end(bytes: &[u8]) -> usize {
    let mut at = 0;
    while let Ok(Some((_, next))) = parse_frame(bytes, at) {
        at = next;
    }
    at
}

/// Power loss after the first `cut` bytes of the segment `seg`, which
/// holds `bytes`: the rest is lost — the file ends at `cut`, or keeps
/// its length with the lost bytes reading zero. Returns the segment as
/// the crash left it. (A lost byte that was zero anyway changes
/// nothing: a frame can survive a cut inside its zero bytes.)
fn crash(seg: &std::path::Path, bytes: &[u8], cut: usize, zeros: bool) -> Vec<u8> {
    let mut image = bytes[..cut].to_vec();
    if zeros {
        image.resize(bytes.len(), 0);
    }
    std::fs::write(seg, &image).unwrap();
    image
}

/// Applies the first `n` batches to a reference model.
fn model_after(batches: &[Batch], n: usize) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut model = BTreeMap::new();
    for batch in &batches[..n] {
        for (k, v) in batch {
            match v {
                Some(v) => {
                    model.insert(key_bytes(*k), v.to_le_bytes().to_vec());
                }
                None => {
                    model.remove(&key_bytes(*k));
                }
            }
        }
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any batch sequence and any truncation byte, the reopened
    /// store holds exactly the prefix of fully-framed batches.
    #[test]
    fn truncation_at_any_byte_recovers_the_last_full_commit(
        batches in prop::collection::vec(batch_strategy(), 1..10),
        cut_ratio in 0.0f64..1.0,
        zeros in any::<bool>(),
    ) {
        let dir = scratch("any-byte");
        let _guard = DirGuard(dir.clone());
        {
            let backend = FileBackend::open(&dir, WAL_ONLY).unwrap();
            for batch in &batches {
                let mut wb = WriteBatch::new();
                for (k, v) in batch {
                    wb = match v {
                        Some(v) => wb.put(key_bytes(*k), v.to_le_bytes().to_vec()),
                        None => wb.delete(key_bytes(*k)),
                    };
                }
                backend.commit(wb).unwrap();
            }
        }
        let seg = wal_segment(&dir);
        let bytes = std::fs::read(&seg).unwrap();
        let cut = ((written_end(&bytes) as f64) * cut_ratio) as usize;

        // Crash: the tail after `cut` never reached the disk.
        let image = crash(&seg, &bytes, cut, zeros);
        // How many whole frames survive the cut — each frame is exactly
        // one committed batch, in commit order.
        let mut survivors = 0usize;
        let mut at = 0usize;
        while let Ok(Some((_, next))) = parse_frame(&image, at) {
            survivors += 1;
            at = next;
        }

        let recovered = FileBackend::open(&dir, WAL_ONLY).unwrap();
        let model = model_after(&batches, survivors);
        prop_assert_eq!(recovered.len(), model.len(), "cut={} survivors={}", cut, survivors);
        for k in 0..8u8 {
            prop_assert_eq!(
                recovered.get(&key_bytes(k)),
                model.get(&key_bytes(k)).cloned(),
                "key {} after cut={} survivors={}",
                k, cut, survivors
            );
        }

        // And the recovered store keeps working: one more commit, one
        // more reopen, still consistent.
        recovered.put(b"post", b"crash");
        drop(recovered);
        let again = FileBackend::open(&dir, WAL_ONLY).unwrap();
        prop_assert_eq!(again.get(b"post"), Some(b"crash".to_vec()));
    }

    /// Same property with snapshots in play: the cut hits the
    /// post-snapshot WAL tail, and recovery = snapshot + surviving tail
    /// frames. No committed batch below the snapshot is ever at risk.
    #[test]
    fn truncation_after_a_snapshot_recovers_snapshot_plus_tail(
        before in prop::collection::vec(batch_strategy(), 1..6),
        after in prop::collection::vec(batch_strategy(), 1..6),
        cut_ratio in 0.0f64..1.0,
        zeros in any::<bool>(),
    ) {
        let dir = scratch("snap-tail");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions { snapshot_every: 0, ..WAL_ONLY };
        {
            let backend = FileBackend::open(&dir, opts).unwrap();
            let commit = |batch: &Batch| {
                let mut wb = WriteBatch::new();
                for (k, v) in batch {
                    wb = match v {
                        Some(v) => wb.put(key_bytes(*k), v.to_le_bytes().to_vec()),
                        None => wb.delete(key_bytes(*k)),
                    };
                }
                backend.commit(wb).unwrap();
            };
            for batch in &before {
                commit(batch);
            }
            backend.snapshot_now().unwrap();
            for batch in &after {
                commit(batch);
            }
        }
        // The snapshot rolled to a fresh segment holding only the
        // post-snapshot batches; cut inside it.
        let seg = wal_segment(&dir);
        let bytes = std::fs::read(&seg).unwrap();
        let cut = ((written_end(&bytes) as f64) * cut_ratio) as usize;
        let image = crash(&seg, &bytes, cut, zeros);
        let mut survivors = 0usize;
        let mut at = 0usize;
        while let Ok(Some((_, next))) = parse_frame(&image, at) {
            survivors += 1;
            at = next;
        }

        let recovered = FileBackend::open(&dir, opts).unwrap();
        let mut all: Vec<Batch> = before.clone();
        all.extend_from_slice(&after);
        let model = model_after(&all, before.len() + survivors);
        for k in 0..8u8 {
            prop_assert_eq!(
                recovered.get(&key_bytes(k)),
                model.get(&key_bytes(k)).cloned(),
                "key {} cut={} survivors={}",
                k, cut, survivors
            );
        }
        prop_assert_eq!(recovered.len(), model.len());
    }

    /// **Concurrent group commit** under `sync_commits`: N threads
    /// commit multi-key batches through the cohort barrier, then the
    /// WAL is truncated at an arbitrary byte. Recovery must land on a
    /// **prefix-closed** set of commits: exactly the batches whose
    /// frames survived in full, in WAL order — never half a batch,
    /// never a later commit without an earlier one. (The segment log
    /// numbers records under its stage lock, so WAL order is commit
    /// order even with 4 writers racing.)
    #[test]
    fn concurrent_group_commits_truncate_to_a_prefix_at_any_byte(
        commits_per_writer in 1u8..6,
        cut_ratio in 0.0f64..1.0,
        zeros in any::<bool>(),
    ) {
        const WRITERS: u8 = 4;
        let dir = scratch("group");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            sync_commits: true,
            ..WAL_ONLY
        };
        {
            let backend = std::sync::Arc::new(FileBackend::open(&dir, opts).unwrap());
            let mut handles = Vec::new();
            for w in 0..WRITERS {
                let backend = backend.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..commits_per_writer {
                        // Two keys per batch: one per-writer, one
                        // contended — a torn recovery would split them.
                        let wb = WriteBatch::new()
                            .put(key_bytes(w), vec![i])
                            .put(b"shared".to_vec(), vec![w, i]);
                        backend.commit(wb).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        }
        let seg = wal_segment(&dir);
        let bytes = std::fs::read(&seg).unwrap();
        let cut = ((written_end(&bytes) as f64) * cut_ratio) as usize;
        let image = crash(&seg, &bytes, cut, zeros);

        // The reference model: replay the whole frames that survive the
        // cut, in file order (== commit order).
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut at = 0usize;
        while let Ok(Some((payload, next))) = parse_frame(&image, at) {
            // seq u64 ++ n_ops u32 ++ ops — decode just enough to apply.
            let n_ops = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
            let mut p = 12usize;
            for _ in 0..n_ops {
                let tag = payload[p];
                let key_len =
                    u32::from_le_bytes(payload[p + 1..p + 5].try_into().unwrap()) as usize;
                let key = payload[p + 5..p + 5 + key_len].to_vec();
                p += 5 + key_len;
                if tag == 1 {
                    let val_len =
                        u32::from_le_bytes(payload[p..p + 4].try_into().unwrap()) as usize;
                    model.insert(key, payload[p + 4..p + 4 + val_len].to_vec());
                    p += 4 + val_len;
                } else {
                    model.remove(&key);
                }
            }
            at = next;
        }

        let recovered = FileBackend::open(&dir, opts).unwrap();
        let live: BTreeMap<Vec<u8>, Vec<u8>> =
            recovered.scan_prefix(b"").into_iter().collect();
        prop_assert_eq!(&live, &model, "cut={} of {}", cut, bytes.len());
        // Acknowledged batches are a prefix: if any batch of writer w
        // survived, the shared key must hold a pair some writer wrote —
        // never a mix of two batches.
        if let Some(pair) = live.get(&b"shared"[..]) {
            prop_assert_eq!(pair.len(), 2);
        }
    }

    /// Recovery from a base + delta chain + WAL tail equals the
    /// reference model for any commit/snapshot schedule — tombstones
    /// and compaction back into a fresh base included — and so does a
    /// second reopen after the recovered store snapshots.
    #[test]
    fn incremental_snapshot_chains_recover_the_model(
        phases in prop::collection::vec(prop::collection::vec(batch_strategy(), 1..5), 1..4),
    ) {
        let dir = scratch("chain");
        let _guard = DirGuard(dir.clone());
        // Tiny compaction thresholds so the property also walks the
        // fold-into-base path.
        let opts = FileBackendOptions {
            compact_max_deltas: 2,
            compact_ratio_pct: 150,
            ..WAL_ONLY
        };
        let mut all: Vec<Batch> = Vec::new();
        {
            let backend = FileBackend::open(&dir, opts).unwrap();
            // Snapshot between phases (the last phase stays WAL-only).
            for (p, phase) in phases.iter().enumerate() {
                for batch in phase {
                    let mut wb = WriteBatch::new();
                    for (k, v) in batch {
                        wb = match v {
                            Some(v) => wb.put(key_bytes(*k), v.to_le_bytes().to_vec()),
                            None => wb.delete(key_bytes(*k)),
                        };
                    }
                    backend.commit(wb).unwrap();
                    all.push(batch.clone());
                }
                if p + 1 < phases.len() {
                    backend.snapshot_now().unwrap();
                }
            }
        }
        let recovered = FileBackend::open(&dir, opts).unwrap();
        let live: BTreeMap<Vec<u8>, Vec<u8>> =
            recovered.scan_prefix(b"").into_iter().collect();
        prop_assert_eq!(&live, &model_after(&all, all.len()), "chain recovery diverged");
        // And the store keeps accepting commits after recovery; a
        // snapshot then covers the replayed WAL tail too, so the store
        // reopens whole once that tail is pruned.
        recovered.put(b"post", b"1");
        prop_assert_eq!(recovered.len(), live.len() + 1);
        recovered.snapshot_now().unwrap();
        drop(recovered);
        let mut expected = model_after(&all, all.len());
        expected.insert(b"post".to_vec(), b"1".to_vec());
        let back = FileBackend::open(&dir, opts).unwrap();
        let live: BTreeMap<Vec<u8>, Vec<u8>> = back.scan_prefix(b"").into_iter().collect();
        prop_assert_eq!(&live, &expected, "reopened after a post-recovery snapshot");
    }
}
