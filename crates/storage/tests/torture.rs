//! Crash-consistency torture harness for the durable store.
//!
//! The tentpole loop: run a deterministic workload through a recording
//! [`FaultVfs`], then — for **every** write boundary the op log holds —
//! materialize the directory a machine that lost power at that op could
//! reboot with ([`CrashImage`]), recover a fresh [`FileBackend`] from
//! it, and assert the recovery contract:
//!
//! * **acks are prefix-closed** — the recovered state equals the model
//!   after exactly `j` commits for some `j` (no gaps, no reordering);
//! * **no acknowledged commit below the boundary is lost** — with
//!   `sync_commits`, every commit acknowledged while the log was at or
//!   below the boundary must be in the recovered prefix;
//! * **no torn value is visible** — every recovered value is exactly a
//!   value some commit wrote, never a byte-level hybrid.
//!
//! The default run sweeps every boundary of a small workload under a
//! couple of crash seeds (the CI "torture slice"); `OM_TORTURE_FULL=1`
//! widens the workload and the seed set. Every assertion carries the
//! `seed=…/boundary=…` coordinates, and `OM_TORTURE_SEED=<n>` replays a
//! failing seed exactly.
//!
//! Also here: the scheduled-fault matrix (torn write, transient EINTR,
//! disk-full, read-side corruption) and the WAL byte-flip tests — one
//! flipped byte in each frame section (length, CRC, payload) must make
//! recovery truncate at the damaged frame or fail loudly, never serve
//! the damage.

use om_common::OmError;
use om_storage::vfs::{CrashImage, FaultVfs};
use om_storage::{FileBackend, FileBackendOptions, StateBackend, WriteBatch};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// -- sweep configuration ----------------------------------------------------

fn full_sweep() -> bool {
    std::env::var_os("OM_TORTURE_FULL").is_some()
}

/// Base crash seed: overridable so a CI failure line can be replayed
/// byte-for-byte with `OM_TORTURE_SEED=<n>`.
fn torture_seed() -> u64 {
    std::env::var("OM_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00)
}

fn crash_seeds() -> Vec<u64> {
    let base = torture_seed();
    let n = if full_sweep() { 6 } else { 2 };
    (0..n).map(|i| base.wrapping_add(i)).collect()
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "om-torture-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct DirGuard(PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// -- the model workload -----------------------------------------------------
//
// Commit k (1-based) writes `key-<k % KEYS>` = a value derived from k
// and the marker `seq` = k **in one atomic batch**. The marker names
// the prefix; the rotating keys make a lost/reordered commit visible in
// the map itself; the long values make torn frames produce byte-level
// hybrids the equality check would catch.

const KEYS: u64 = 5;

fn wkey(k: u64) -> Vec<u8> {
    format!("key-{}", k % KEYS).into_bytes()
}

fn wvalue(k: u64) -> Vec<u8> {
    format!("value-{k}-{}", "x".repeat(64 + (k as usize % 17))).into_bytes()
}

/// Expected full state after exactly `j` commits.
fn model_at(j: u64) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut m = BTreeMap::new();
    for k in 1..=j {
        m.insert(wkey(k), wvalue(k));
    }
    if j > 0 {
        m.insert(b"seq".to_vec(), j.to_le_bytes().to_vec());
    }
    m
}

/// Dumps the recovered store as a map over every key the workload can
/// ever write (so an extra/ghost key cannot hide).
fn dump(backend: &FileBackend) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut m = BTreeMap::new();
    for k in 0..KEYS {
        let key = format!("key-{k}").into_bytes();
        if let Some(v) = backend.get(&key) {
            m.insert(key, v);
        }
    }
    if let Some(v) = backend.get(b"seq") {
        m.insert(b"seq".to_vec(), v);
    }
    m
}

/// The recovered prefix length, per the marker key.
fn recovered_seq(backend: &FileBackend) -> u64 {
    backend
        .get(b"seq")
        .map(|v| u64::from_le_bytes(v[..8].try_into().expect("marker is 8 bytes")))
        .unwrap_or(0)
}

fn commit_one(backend: &FileBackend, k: u64) {
    backend
        .commit(
            WriteBatch::new()
                .put(wkey(k), wvalue(k))
                .put(&b"seq"[..], k.to_le_bytes().to_vec()),
        )
        .unwrap_or_else(|e| panic!("commit {k} failed with no fault scheduled: {e}"));
}

// -- the boundary sweep -----------------------------------------------------

/// Runs `commits` through a recording VFS with the given options, then
/// crash-tests every op-log boundary under every seed.
fn sweep_every_boundary(tag: &str, commits: u64, options: FileBackendOptions) {
    let root = scratch(tag);
    let _g = DirGuard(root.clone());
    let vfs = FaultVfs::new(torture_seed()).recording();

    // Workload: every commit acked (no faults), ack boundaries recorded.
    let mut acks: Vec<(u64, usize)> = Vec::new();
    let counters = {
        let backend =
            FileBackend::open_with_vfs(&root, options, Arc::new(vfs.clone())).unwrap();
        for k in 1..=commits {
            commit_one(&backend, k);
            // `sync_commits` means the ack implies every op recorded so
            // far is on media: the durability floor of later crashes.
            acks.push((k, vfs.log_len()));
        }
        backend.counters()
    };
    let log = vfs.take_log();
    assert!(
        log.len() > commits as usize,
        "{tag}: op log too small to be real ({} ops)",
        log.len()
    );
    let seeds = crash_seeds();
    // Ops on `snap-<seq>` files: the boundaries that fall inside base
    // writes (create, write, fsync, rename, prune).
    let base_ops = log
        .iter()
        .filter(|op| format!("{op:?}").contains("snap-"))
        .count();
    eprintln!(
        "torture[{tag}]: {} ops, {base_ops} of them in {} base writes, {} deltas; x {} seeds \
         (base seed {:#x}; OM_TORTURE_SEED replays, OM_TORTURE_FULL=1 widens)",
        log.len(),
        counters["backend.snapshots"],
        counters["backend.deltas"],
        seeds.len(),
        torture_seed()
    );

    for boundary in 0..=log.len() {
        for &seed in &seeds {
            let ctx = format!("{tag}: seed={seed:#x} boundary={boundary}/{}", log.len());
            let out = scratch("img");
            let _og = DirGuard(out.clone());
            CrashImage::materialize(&log, boundary, seed, &root, &out)
                .unwrap_or_else(|e| panic!("{ctx}: materialize failed: {e}"));
            let recovered = FileBackend::open(&out, options)
                .unwrap_or_else(|e| panic!("{ctx}: power-loss image must recover: {e}"));

            let j = recovered_seq(&recovered);
            assert!(j <= commits, "{ctx}: recovered seq {j} beyond what was written");
            // Prefix-closed + no torn value: the whole store equals the
            // model after exactly j commits.
            assert_eq!(dump(&recovered), model_at(j), "{ctx}: state is not the prefix {j}");
            // Durability floor: every commit acked at-or-below the
            // boundary is in the prefix.
            let floor = acks
                .iter()
                .filter(|(_, at)| *at <= boundary)
                .map(|(k, _)| *k)
                .max()
                .unwrap_or(0);
            assert!(
                j >= floor,
                "{ctx}: acked commit lost — recovered prefix {j} < acked floor {floor}"
            );
        }
    }
}

/// The headline sweep: WAL + incremental snapshots + deltas + pruning +
/// segment rolls, power loss at every recorded write boundary. The
/// tight compaction thresholds fold the chain back into a fresh base
/// every other snapshot, so the sweep crosses base writes (tmp + fsync +
/// rename + dir fsync + delta and WAL prune) as well as deltas.
#[test]
fn power_loss_at_every_boundary_recovers_an_acked_prefix_incremental() {
    let commits = if full_sweep() { 64 } else { 30 };
    sweep_every_boundary(
        "incremental",
        commits,
        FileBackendOptions {
            snapshot_every: 6,
            segment_bytes: 512,
            sync_commits: true,
            compact_max_deltas: 2,
            compact_ratio_pct: 150,
        },
    );
}

/// The grouped write path (cohort barrier, leader flush) honours the
/// same contract — single-threaded here so the op order is exact.
#[test]
fn power_loss_sweep_covers_the_group_commit_write_path() {
    let commits = if full_sweep() { 32 } else { 12 };
    sweep_every_boundary(
        "grouped",
        commits,
        FileBackendOptions {
            snapshot_every: 8,
            segment_bytes: 1 << 20,
            sync_commits: true,
            compact_max_deltas: 4,
            compact_ratio_pct: 100,
        },
    );
}

// -- WAL read-side corruption (byte flips per frame section) ----------------

/// Writes `commits` through a real VFS with no snapshots (so every
/// commit is one WAL frame in one segment) and returns the store dir
/// plus the byte ranges of every frame.
fn wal_with_frames(commits: u64) -> (PathBuf, DirGuard, PathBuf, Vec<(usize, usize)>) {
    let root = scratch("flip");
    let guard = DirGuard(root.clone());
    let options = FileBackendOptions {
        snapshot_every: 0,
        sync_commits: true,
        ..FileBackendOptions::default()
    };
    {
        let backend = FileBackend::open(&root, options).unwrap();
        for k in 1..=commits {
            commit_one(&backend, k);
        }
    }
    let wal = std::fs::read_dir(root.join("wal"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .expect("one WAL segment");
    let bytes = std::fs::read(&wal).unwrap();
    let mut frames = Vec::new();
    let mut at = 0usize;
    while let Ok(Some((payload, next))) = om_common::checksum::parse_frame(&bytes, at) {
        let _ = payload;
        frames.push((at, next));
        at = next;
    }
    assert_eq!(frames.len() as u64, commits, "one frame per commit");
    (root, guard, wal, frames)
}

/// Satellite (c): flip one byte in each section of a mid-log frame —
/// the 4-byte length, the 4-byte CRC, and the payload — and recover.
/// The damaged frame and everything after it must be dropped (the WAL
/// cannot tell a flipped byte from a torn tail), and the surviving
/// state must be exactly the prefix before it. Nothing corrupt is ever
/// served.
#[test]
fn wal_byte_flip_in_each_frame_section_truncates_at_the_damaged_frame() {
    const COMMITS: u64 = 8;
    const DAMAGED: usize = 4; // 0-based frame index => commits 1..=4 survive
    let (root, _g, wal, frames) = wal_with_frames(COMMITS);
    let (start, _end) = frames[DAMAGED];
    let pristine = std::fs::read(&wal).unwrap();
    for (section, at) in [
        ("len", start + 1),
        ("crc", start + 5),
        ("payload", start + 11),
    ] {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x40;
        std::fs::write(&wal, &bytes).unwrap();
        let recovered = FileBackend::open(
            &root,
            FileBackendOptions {
                snapshot_every: 0,
                sync_commits: true,
                ..FileBackendOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("flip in {section}: final-segment damage must recover: {e}"));
        assert_eq!(
            recovered_seq(&recovered),
            DAMAGED as u64,
            "flip in {section}: recovery must stop exactly at the damaged frame"
        );
        assert_eq!(
            dump(&recovered),
            model_at(DAMAGED as u64),
            "flip in {section}: recovered state must be the clean prefix"
        );
        drop(recovered);
        // Recovery truncated the tail: re-opening is clean and appends
        // resume from the surviving prefix.
        let reopened = FileBackend::open(
            &root,
            FileBackendOptions {
                snapshot_every: 0,
                sync_commits: true,
                ..FileBackendOptions::default()
            },
        )
        .unwrap();
        assert_eq!(recovered_seq(&reopened), DAMAGED as u64, "flip in {section}");
        drop(reopened);
        std::fs::write(&wal, &pristine).unwrap();
    }
}

/// A flipped byte in a **non-final** segment is not a crash artifact —
/// a torn tail can only exist at the very end of the log — so recovery
/// must refuse loudly instead of silently dropping acknowledged
/// commits.
#[test]
fn wal_corruption_in_a_non_final_segment_fails_loudly() {
    let root = scratch("midflip");
    let _g = DirGuard(root.clone());
    let options = FileBackendOptions {
        snapshot_every: 0,
        segment_bytes: 256, // force several segments
        sync_commits: true,
        ..FileBackendOptions::default()
    };
    {
        let backend = FileBackend::open(&root, options).unwrap();
        for k in 1..=12u64 {
            commit_one(&backend, k);
        }
    }
    let mut segments: Vec<PathBuf> = std::fs::read_dir(root.join("wal"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "workload must span segments: {segments:?}");
    let first = &segments[0];
    let mut bytes = std::fs::read(first).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(first, &bytes).unwrap();
    let err = FileBackend::open(&root, options)
        .err()
        .expect("corruption below the final segment must refuse to open");
    let msg = err.to_string();
    assert!(
        msg.contains("not the final segment"),
        "error must name the damaged segment's position: {msg}"
    );
}

// -- scheduled-fault matrix -------------------------------------------------

fn matrix_options() -> FileBackendOptions {
    FileBackendOptions {
        snapshot_every: 0,
        sync_commits: true,
        ..FileBackendOptions::default()
    }
}

/// A torn commit write wedges the store; unwedge truncates the torn
/// bytes and commits resume; a cold reopen agrees with the repair.
#[test]
fn torn_write_wedges_and_unwedge_truncates_the_torn_tail() {
    let root = scratch("torn");
    let _g = DirGuard(root.clone());
    let vfs = FaultVfs::new(torture_seed());
    let backend =
        FileBackend::open_with_vfs(&root, matrix_options(), Arc::new(vfs.clone())).unwrap();
    // Counted from the open's last write (the segment's zero fill):
    // commit 2's write tears. Clones share one fault schedule.
    let _ = vfs.clone().torn_write(vfs.writes_seen() + 2);
    commit_one(&backend, 1);
    let err = backend
        .commit(WriteBatch::new().put(wkey(2), wvalue(2)).put(&b"seq"[..], 2u64.to_le_bytes().to_vec()))
        .expect_err("the torn write must fail the commit");
    assert!(matches!(err, OmError::Wedged(_)), "torn write must wedge: {err}");
    assert!(backend.is_wedged());
    assert!(vfs.fired().iter().any(|f| f == "torn write"), "{:?}", vfs.fired());
    // Fail-fast while wedged; no partial frame ever becomes visible.
    assert!(backend.try_put(b"x", b"y").is_err());
    let torn = FileBackend::unwedge(&backend).expect("repair succeeds");
    assert!(torn > 0, "the torn prefix had bytes to drop");
    assert!(!backend.is_wedged());
    commit_one(&backend, 2);
    assert_eq!(dump(&backend), model_at(2));
    drop(backend);
    let reborn = FileBackend::open(&root, matrix_options()).unwrap();
    assert_eq!(dump(&reborn), model_at(2), "cold reopen agrees with the repair");
}

/// Transient EINTR-class interruptions are retried inside the store:
/// the commit acks normally and nothing wedges.
#[test]
fn interrupted_writes_are_retried_transparently() {
    let root = scratch("eintr");
    let _g = DirGuard(root.clone());
    let vfs = FaultVfs::new(torture_seed());
    let backend =
        FileBackend::open_with_vfs(&root, matrix_options(), Arc::new(vfs.clone())).unwrap();
    // Commit 2's write, counted past the open's zero fill.
    let _ = vfs.clone().interrupt_write(vfs.writes_seen() + 2);
    commit_one(&backend, 1);
    commit_one(&backend, 2);
    assert!(!backend.is_wedged(), "a retried interrupt must not wedge");
    assert!(vfs.fired().iter().any(|f| f == "interrupted write"), "{:?}", vfs.fired());
    drop(backend);
    let reborn = FileBackend::open(&root, matrix_options()).unwrap();
    assert_eq!(dump(&reborn), model_at(2));
}

/// Disk-full wedges the store exactly like any other failed write: the
/// acked prefix stays durable and readable after a cold reopen. Records
/// written inside a pre-allocated segment need no space, so the disk
/// fills at a segment's creation: the roll fails (a maintenance error),
/// the commits after it overrun the full segment, and the first write
/// that would grow it wedges.
#[test]
fn disk_full_wedges_and_the_acked_prefix_survives() {
    let root = scratch("full");
    let _g = DirGuard(root.clone());
    // Two 256-byte segments fit, the third does not.
    let vfs = FaultVfs::new(torture_seed()).disk_full_after(600);
    let options = FileBackendOptions {
        segment_bytes: 256,
        ..matrix_options()
    };
    let backend = FileBackend::open_with_vfs(&root, options, Arc::new(vfs.clone())).unwrap();
    let mut acked = 0u64;
    for k in 1..=20u64 {
        let batch = WriteBatch::new()
            .put(wkey(k), wvalue(k))
            .put(&b"seq"[..], k.to_le_bytes().to_vec());
        match backend.commit(batch) {
            Ok(_) => acked = k,
            Err(e) => {
                assert!(matches!(e, OmError::Wedged(_)), "disk full must wedge: {e}");
                break;
            }
        }
    }
    assert!(acked >= 1, "the byte budget admits at least one commit");
    assert!(backend.is_wedged());
    assert!(vfs.fired().iter().any(|f| f == "disk full"), "{:?}", vfs.fired());
    assert!(backend.counters()["backend.maintenance_errors"] >= 1, "the roll failed first");
    drop(backend);
    let reborn = FileBackend::open(&root, matrix_options()).unwrap();
    assert_eq!(dump(&reborn), model_at(acked), "acked prefix survives disk-full");
}

/// Read-side corruption during replay (a bit flip on the recovery
/// read) behaves like frame damage: the store either truncates at the
/// damaged frame — leaving a clean, shorter prefix — or refuses to
/// open. It never serves the flipped bytes.
#[test]
fn read_corruption_on_replay_truncates_or_fails_loudly() {
    const COMMITS: u64 = 6;
    let root = scratch("corrupt-read");
    let _g = DirGuard(root.clone());
    {
        let backend = FileBackend::open(&root, matrix_options()).unwrap();
        for k in 1..=COMMITS {
            commit_one(&backend, k);
        }
    }
    let mut outcomes = Vec::new();
    for nth in 1..=2u64 {
        let vfs = FaultVfs::new(torture_seed().wrapping_add(nth)).corrupt_read(nth);
        match FileBackend::open_with_vfs(&root, matrix_options(), Arc::new(vfs.clone())) {
            Ok(backend) => {
                let j = recovered_seq(&backend);
                assert!(j <= COMMITS, "read corruption invented commits");
                assert_eq!(
                    dump(&backend),
                    model_at(j),
                    "nth={nth}: a corrupt replay read must never leave a hybrid state"
                );
                outcomes.push(format!("truncated to {j}"));
            }
            Err(e) => outcomes.push(format!("refused: {e}")),
        }
        // The pristine on-disk bytes were never harmed: a clean reopen
        // still sees everything (replay truncation can shorten the WAL,
        // so only assert when the open refused).
        if outcomes.last().unwrap().starts_with("refused") {
            let clean = FileBackend::open(&root, matrix_options()).unwrap();
            assert_eq!(dump(&clean), model_at(COMMITS), "nth={nth}: disk bytes untouched");
        }
    }
    eprintln!("read-corruption outcomes: {outcomes:?}");
}

/// Four writers race commits while the `n`th fsync fails, for each of
/// the first twenty cohort flushes. However the writers interleave with
/// the failure, the store must wedge cleanly: `unwedge` verifies the
/// acknowledged prefix, a cold reopen holds every acknowledged commit,
/// and no commit that returned `Wedged` is present. A committer that
/// passed the wedge check before a concurrent flush failed must never
/// write its frame after the failed bytes and be acknowledged
/// (docs/FAULTS.md, "Acknowledging past a failed fsync").
#[test]
fn concurrent_writers_never_ack_past_a_failed_fsync() {
    const WRITERS: u64 = 4;
    const COMMITS: u64 = 24;
    let key = |k: u64| format!("w/{k}").into_bytes();
    for n in 1..=20u64 {
        let root = scratch("ack-wedge");
        let _g = DirGuard(root.clone());
        let vfs = FaultVfs::new(torture_seed().wrapping_add(n));
        let backend =
            FileBackend::open_with_vfs(&root, matrix_options(), Arc::new(vfs.clone())).unwrap();
        // Counted from the first cohort: the open synced the new
        // segment's zeros. Clones share one fault schedule.
        let _ = vfs.clone().fail_nth_sync(vfs.syncs_seen() + n);
        let (mut acked, mut wedged) = (Vec::new(), Vec::new());
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let backend = &backend;
                    s.spawn(move || {
                        let (mut acked, mut wedged) = (Vec::new(), Vec::new());
                        for k in w * COMMITS..(w + 1) * COMMITS {
                            match backend.try_put(&key(k), &wvalue(k)) {
                                Ok(()) => acked.push(k),
                                Err(OmError::Wedged(_)) => {
                                    wedged.push(k);
                                    break;
                                }
                                Err(e) => panic!("n={n}: commit {k} failed untyped: {e}"),
                            }
                        }
                        (acked, wedged)
                    })
                })
                .collect();
            for writer in writers {
                let (a, w) = writer.join().unwrap();
                acked.extend(a);
                wedged.extend(w);
            }
        });
        assert!(
            vfs.fired().iter().any(|f| f == "fsync failure"),
            "n={n}: the scheduled fsync failure never fired"
        );
        assert!(
            !wedged.is_empty(),
            "n={n}: the failed fsync must fail some commit"
        );
        backend
            .unwedge()
            .unwrap_or_else(|e| panic!("n={n}: unwedge must verify the acked prefix: {e}"));
        drop(backend);
        let reborn = FileBackend::open(&root, matrix_options()).unwrap();
        for &k in &acked {
            assert_eq!(
                reborn.get(&key(k)),
                Some(wvalue(k)),
                "n={n}: acked commit {k} lost"
            );
        }
        for &k in &wedged {
            assert_eq!(
                reborn.get(&key(k)),
                None,
                "n={n}: commit {k} returned Wedged yet survived"
            );
        }
    }
}
