//! The file-backed durable backend: a sharded write-ahead-log +
//! snapshot store whose state survives a full process crash.
//!
//! This is the only [`StateBackend`] whose contents outlive the process:
//! every commit — single-key writes included — is appended to an
//! append-only WAL segment as **one framed, checksummed batch** before it
//! becomes visible, so recovery can never observe half of a multi-key
//! commit. The write path is built around **group commit**
//! ([`crate::group_commit`]): committers stage their frame under the
//! appender lock and park on a commit barrier; a single cohort leader
//! performs ONE flush (+`fsync` under
//! [`FileBackendOptions::sync_commits`]) for everyone staged, so N
//! concurrent committers share one sync instead of paying N.
//!
//! Snapshots bound WAL replay. In [`SnapshotMode::Full`] each snapshot
//! rewrites the whole state; in [`SnapshotMode::Incremental`] (the
//! default) only the keys dirtied since the previous snapshot are
//! written as a `delta-<seq>` file chained from the last full base, and
//! compaction folds a long or heavy chain back into a base — snapshot
//! cost scales with churn, not state size.
//!
//! On-disk layout under the store's directory (formats are specified
//! byte-for-byte in `docs/DURABILITY.md`):
//!
//! ```text
//! <dir>/wal/wal-<first_seq>.log     append-only framed commit batches
//! <dir>/snap/snap-<seq>.snap       full state as of commit <seq>
//! <dir>/snap/delta-<seq>.delta     keys dirtied since the previous
//!                                  snapshot file, chained on the base
//! <dir>/snap/<stem>-<seq>.idx      advisory sidecar index (bloom +
//!                                  sparse key samples) of the base or
//!                                  delta next to it
//! ```
//!
//! Since PR 7 bases and deltas are written in the **v2 partitioned
//! format** (`OMSNAP02`/`OMDELT02`): a section table in the header maps
//! each in-memory shard to a key-sorted region of the file, so recovery
//! loads sections in parallel ([`FileBackendOptions::recovery_threads`])
//! and the sidecar indexes give [`crate::delta_index::ColdReader`]
//! point access without replay. v1 monolithic files from older stores
//! still load (the header magic selects the parser).
//!
//! Recovery ([`FileBackend::open`] over an existing directory) loads the
//! newest base snapshot, applies the deltas chained above it in order,
//! replays every WAL frame with a higher commit sequence, and
//! **truncates a torn tail**: the first frame of the last segment that
//! fails its length or CRC check marks the point where the previous
//! process died mid-append — everything from there on is discarded,
//! landing the store exactly on the last fully-committed batch. A torn
//! frame in any non-final segment is real corruption and refuses to
//! open.
//!
//! ```
//! use om_storage::{FileBackend, FileBackendOptions, StateBackend, WriteBatch};
//!
//! let dir = std::env::temp_dir().join(format!("om-doc-file-{}", std::process::id()));
//! let backend = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
//! let batch = WriteBatch::new().put(b"order/1".to_vec(), b"placed".to_vec());
//! backend.commit(batch).unwrap();
//! drop(backend);
//!
//! // A cold restart recovers the committed state from the files alone.
//! let reborn = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
//! assert_eq!(reborn.get(b"order/1"), Some(b"placed".to_vec()));
//! # drop(reborn);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::backend::{shard_of, StateBackend, StateSession, WriteBatch, WriteOp};
use crate::delta_index::{DeltaIndex, PartBuild};
use crate::group_commit::{ChainState, CommitGroup, SegmentFile, StagedBatch, StagedWal};
use crate::shards_pow2;
use crate::vfs::{real_vfs, write_all_retry, Vfs};
use om_common::checksum::{parse_frame, push_frame};
use om_common::config::{BackendKind, DurableOptions, GroupCommitPolicy, SnapshotMode};
use om_common::{OmError, OmResult};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashSet};
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tuning knobs of a [`FileBackend`].
#[derive(Debug, Clone, Copy)]
pub struct FileBackendOptions {
    /// In-memory shard (lock-domain) count, rounded up to a power of two.
    pub shards: usize,
    /// Commits between snapshots (`0` = never snapshot; the WAL then
    /// grows unboundedly — useful only for tests that inspect the raw
    /// log).
    pub snapshot_every: u64,
    /// WAL segment roll threshold in bytes: an append that leaves the
    /// current segment beyond this size starts a new one.
    pub segment_bytes: u64,
    /// `fsync` every commit cohort before acknowledging it. Off by
    /// default: a commit is pushed to the operating system before it is
    /// acknowledged, which survives a **process** crash (the durability
    /// this store claims); syncing additionally survives kernel/power
    /// failure at a latency cost that group commit amortizes.
    pub sync_commits: bool,
    /// Group-commit policy: [`GroupCommitPolicy::Off`] disables the
    /// barrier entirely — every commit pays its own flush+fsync,
    /// serialized (the PR 4 write path, kept as the bench baseline).
    /// `Fixed(w)` routes commits through the cohort barrier with a
    /// fixed leader window of `w` µs (`0` flushes as soon as leadership
    /// is acquired). `Adaptive{..}` lets the leader watch the cohort
    /// grow and flush at the target size, on arrival stall, or at the
    /// window cap — whichever is first.
    pub group_commit: GroupCommitPolicy,
    /// Full vs incremental snapshots.
    pub snapshot_mode: SnapshotMode,
    /// Incremental mode: fold the delta chain into a fresh base once it
    /// holds this many deltas.
    pub compact_max_deltas: u64,
    /// Incremental mode: fold the chain once cumulative delta bytes
    /// exceed this percentage of the base size.
    pub compact_ratio_pct: u64,
    /// Worker threads used to load snapshot/delta partitions on cold
    /// recovery (`0` = auto: one per core, capped at 8; `1` forces the
    /// serial path). WAL replay stays sequential regardless.
    pub recovery_threads: usize,
}

impl Default for FileBackendOptions {
    fn default() -> Self {
        Self {
            shards: 8,
            snapshot_every: 1_024,
            segment_bytes: 1 << 20,
            sync_commits: false,
            group_commit: GroupCommitPolicy::Fixed(0),
            snapshot_mode: SnapshotMode::Incremental,
            compact_max_deltas: 16,
            compact_ratio_pct: 100,
            recovery_threads: 0,
        }
    }
}

impl FileBackendOptions {
    /// Maps the run-config level [`DurableOptions`] onto backend
    /// options — the seam `RunConfig`/`PlatformSpec` select the write
    /// path through.
    pub fn from_durable(shards: usize, durable: &DurableOptions) -> Self {
        Self {
            shards,
            sync_commits: durable.sync_commits,
            group_commit: durable.group_commit,
            snapshot_mode: durable.snapshot_mode,
            compact_max_deltas: durable.compact_max_deltas,
            compact_ratio_pct: durable.compact_ratio_pct,
            recovery_threads: durable.recovery_threads,
            ..Self::default()
        }
    }
}

// -- batch payload codec ----------------------------------------------------
// (frames come from `om_common::checksum` — the encoding shared with
// om-log's persistent topic)

/// `tag ++ key_len ++ key [++ val_len ++ value]` — the op encoding
/// shared by WAL batches and delta-snapshot entries.
fn encode_op(out: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) {
    match value {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        None => {
            out.push(0);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
        }
    }
}

/// Decodes one op starting at `*at`, advancing the cursor.
pub(crate) fn decode_op(payload: &[u8], at: &mut usize) -> Option<(Vec<u8>, Option<Vec<u8>>)> {
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        if payload.len() - *at < n {
            return None;
        }
        let s = &payload[*at..*at + n];
        *at += n;
        Some(s)
    };
    let tag = take(at, 1)?[0];
    let key_len = u32::from_le_bytes(take(at, 4)?.try_into().ok()?) as usize;
    let key = take(at, key_len)?.to_vec();
    let value = match tag {
        1 => {
            let val_len = u32::from_le_bytes(take(at, 4)?.try_into().ok()?) as usize;
            Some(take(at, val_len)?.to_vec())
        }
        0 => None,
        _ => return None,
    };
    Some((key, value))
}

fn encode_batch(seq: u64, ops: &[WriteOp]) -> Vec<u8> {
    let mut cap = 12;
    for op in ops {
        cap += 5 + op.key.len() + op.value.as_ref().map(|v| 4 + v.len()).unwrap_or(0);
    }
    let mut out = Vec::with_capacity(cap);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        encode_op(&mut out, &op.key, op.value.as_deref());
    }
    out
}

pub(crate) fn decode_batch(payload: &[u8]) -> Option<(u64, Vec<WriteOp>)> {
    if payload.len() < 12 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let n = u32::from_le_bytes(payload[8..12].try_into().ok()?) as usize;
    let mut at = 12usize;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let (key, value) = decode_op(payload, &mut at)?;
        ops.push(WriteOp { key, value });
    }
    if at != payload.len() {
        return None;
    }
    Some((seq, ops))
}

/// Decodes a payload that holds exactly one op (a delta-snapshot
/// entry).
pub(crate) fn decode_op_payload(payload: &[u8]) -> Option<(Vec<u8>, Option<Vec<u8>>)> {
    let mut at = 0usize;
    let op = decode_op(payload, &mut at)?;
    (at == payload.len()).then_some(op)
}

// -- snapshot-family headers -------------------------------------------------

/// Magic payload prefix of a v1 (monolithic) base snapshot header.
const SNAP_MAGIC: &[u8; 8] = b"OMSNAP01";
/// Magic payload prefix of a v1 (monolithic) delta snapshot header.
const DELTA_MAGIC: &[u8; 8] = b"OMDELT01";
/// Magic payload prefix of a v2 (partitioned) base snapshot header.
const SNAP_MAGIC_V2: &[u8; 8] = b"OMSNAP02";
/// Magic payload prefix of a v2 (partitioned) delta snapshot header.
const DELTA_MAGIC_V2: &[u8; 8] = b"OMDELT02";

/// One partition section of a v2 snapshot-family file: `n` key-sorted
/// entry frames occupying the absolute byte range `[off, off+len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Section {
    pub off: u64,
    pub len: u64,
    pub n: u64,
}

/// The parsed header frame of a base or delta file (v1 or v2).
#[derive(Debug, Clone)]
pub(crate) struct SnapHeader {
    /// Base snapshot (`OMSNAP*`) vs delta (`OMDELT*`).
    pub is_base: bool,
    /// v1 monolithic file: no section table, entries unsorted.
    pub legacy: bool,
    /// Commit sequence the file covers up to.
    pub seq: u64,
    /// Total entry frames in the body.
    pub n_entries: u64,
    /// v2 section table (empty for v1).
    pub sections: Vec<Section>,
}

/// Byte length of a v2 header frame with `parts` sections — the body
/// therefore starts at this absolute offset.
fn v2_header_len(parts: usize) -> usize {
    // frame(8) ++ magic(8) ++ seq(8) ++ n_entries(8) ++ parts(4) ++
    // parts × (off(8) ++ len(8) ++ n(8))
    8 + 28 + parts * 24
}

/// Parses the header frame at the start of a snapshot-family file
/// (either version), returning it plus the body's start offset. `None`
/// on any structural damage.
pub(crate) fn parse_snap_header(bytes: &[u8]) -> Option<(SnapHeader, usize)> {
    let (payload, body_start) = parse_frame(bytes, 0).ok()??;
    if payload.len() < 24 {
        return None;
    }
    let magic: &[u8; 8] = payload[..8].try_into().ok()?;
    let (is_base, legacy) = match magic {
        m if m == SNAP_MAGIC => (true, true),
        m if m == DELTA_MAGIC => (false, true),
        m if m == SNAP_MAGIC_V2 => (true, false),
        m if m == DELTA_MAGIC_V2 => (false, false),
        _ => return None,
    };
    let seq = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let n_entries = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let sections = if legacy {
        if payload.len() != 24 {
            return None;
        }
        Vec::new()
    } else {
        if payload.len() < 28 {
            return None;
        }
        let parts = u32::from_le_bytes(payload[24..28].try_into().ok()?) as usize;
        if parts == 0 || !parts.is_power_of_two() || payload.len() != 28 + parts * 24 {
            return None;
        }
        let mut sections = Vec::with_capacity(parts);
        for p in 0..parts {
            let at = 28 + p * 24;
            sections.push(Section {
                off: u64::from_le_bytes(payload[at..at + 8].try_into().ok()?),
                len: u64::from_le_bytes(payload[at + 8..at + 16].try_into().ok()?),
                n: u64::from_le_bytes(payload[at + 16..at + 24].try_into().ok()?),
            });
        }
        if sections.iter().map(|s| s.n).sum::<u64>() != n_entries {
            return None;
        }
        sections
    };
    Some((
        SnapHeader {
            is_base,
            legacy,
            seq,
            n_entries,
            sections,
        },
        body_start,
    ))
}

/// One v2 partition's entries in key order (`None` value = tombstone;
/// bases hold only puts).
type PartEntries = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// Builds a complete v2 snapshot-family file — header frame with a
/// section table, then one key-sorted entry section per partition —
/// together with its sidecar index (built from the exact offsets being
/// written). `parts[i]` must already be key-sorted; base files encode
/// `key ++ value` entries (values must be `Some`), deltas the tagged op
/// encoding (tombstones allowed).
fn build_v2_file(is_base: bool, seq: u64, parts: &[PartEntries]) -> (Vec<u8>, DeltaIndex) {
    let body_start = v2_header_len(parts.len()) as u64;
    let mut body = Vec::new();
    let mut sections = Vec::with_capacity(parts.len());
    let mut builds = Vec::with_capacity(parts.len());
    let mut n_entries = 0u64;
    let mut abs = body_start;
    for part in parts {
        let off = abs;
        let mut build = PartBuild::default();
        for (key, value) in part {
            let mut payload = Vec::with_capacity(9 + key.len());
            if is_base {
                let v = value.as_ref().expect("base snapshot entries are puts");
                payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                payload.extend_from_slice(key);
                payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                payload.extend_from_slice(v);
            } else {
                encode_op(&mut payload, key, value.as_deref());
            }
            build.add(key, abs);
            let before = body.len();
            push_frame(&mut body, &payload);
            abs += (body.len() - before) as u64;
        }
        n_entries += part.len() as u64;
        sections.push(Section {
            off,
            len: abs - off,
            n: part.len() as u64,
        });
        builds.push(build);
    }
    let mut header = Vec::with_capacity(28 + parts.len() * 24);
    header.extend_from_slice(if is_base { SNAP_MAGIC_V2 } else { DELTA_MAGIC_V2 });
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&n_entries.to_le_bytes());
    header.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for s in &sections {
        header.extend_from_slice(&s.off.to_le_bytes());
        header.extend_from_slice(&s.len.to_le_bytes());
        header.extend_from_slice(&s.n.to_le_bytes());
    }
    let mut out = Vec::with_capacity(body_start as usize + body.len());
    push_frame(&mut out, &header);
    debug_assert_eq!(out.len() as u64, body_start);
    out.extend_from_slice(&body);
    (out, DeltaIndex::assemble(seq, builds))
}

/// Lists `prefix<seq>ext` files in `dir`, ascending by sequence (the
/// raw listing shared by recovery and the cold reader; tmp-file cleanup
/// is the live backend's job).
pub(crate) fn sorted_files_in(
    dir: &Path,
    prefix: &str,
    ext: &str,
) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix(prefix)
            .and_then(|n| n.strip_suffix(ext))
            .and_then(|n| n.parse().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Worker threads a recovery with `configured` resolves to: `0` = one
/// per available core, capped at 8.
fn resolved_recovery_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

// -- the backend ------------------------------------------------------------

/// One in-memory shard: the live map plus the keys dirtied since the
/// last snapshot file (base or delta) — what the next incremental
/// snapshot writes. The map is ordered so a prefix scan visits only the
/// matching keys of each shard, not the whole store.
#[derive(Default)]
struct Shard {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    dirty: HashSet<Vec<u8>>,
}

/// The file-backed durable implementation of [`StateBackend`] — see the
/// module docs for formats and the recovery rules.
pub struct FileBackend {
    dir: PathBuf,
    options: FileBackendOptions,
    /// The filesystem seam every byte of this store flows through:
    /// [`crate::vfs::RealVfs`] in production, a fault injector in the
    /// torture harness.
    vfs: Arc<dyn Vfs>,
    /// Power-of-two in-memory mirror of the on-disk state (the read
    /// path); rebuilt from snapshots + WAL on open.
    shards: Vec<RwLock<Shard>>,
    mask: u64,
    /// The cheap staging half of the write path (see
    /// [`crate::group_commit`]). Held for microseconds per commit.
    appender: Mutex<StagedWal>,
    /// The expensive durable half: open segment + snapshot chain. Held
    /// by cohort leaders (or by every commit when group commit is off).
    /// Lock order: flusher before appender, never the reverse.
    flusher: Mutex<SegmentFile>,
    /// The commit barrier cohort leaders are elected through.
    group: CommitGroup,
    /// Set when a WAL write/sync failed after staging was drained: the
    /// store can no longer tell what is durable, so every further
    /// commit fails fast instead of silently acknowledging lost data.
    wedged: AtomicBool,
    /// Multi-key visibility gate: batches apply to the shard array under
    /// the write side, multi-key reads take the read side — so live
    /// readers never observe a torn batch either (the on-disk guarantee,
    /// mirrored in memory).
    multi: RwLock<()>,
    /// Exclusive OS lock on `<dir>/LOCK`, held for the store's lifetime
    /// so two live processes can never interleave WAL appends. The OS
    /// releases it when the process dies (kill -9 included), so a stale
    /// lock can never brick recovery.
    _lock: File,
    /// Remove the directory on drop (scratch stores only).
    owns_dir: bool,
    commits: AtomicU64,
    wal_bytes: AtomicU64,
    snapshots: AtomicU64,
    deltas_written: AtomicU64,
    snapshot_delta_bytes: AtomicU64,
    compactions: AtomicU64,
    segments_rolled: AtomicU64,
    recovered_commits: AtomicU64,
    torn_tail_bytes: AtomicU64,
    unwedges: AtomicU64,
    maintenance_errors: AtomicU64,
    indexes_written: AtomicU64,
    index_rebuilds: AtomicU64,
}

impl FileBackend {
    /// Opens (or initialises) a durable store in `dir`, recovering any
    /// state a previous process left there: newest base snapshot +
    /// delta chain + WAL replay + torn-tail truncation. The directory
    /// is created if absent and is **kept** on drop.
    pub fn open(dir: impl AsRef<Path>, options: FileBackendOptions) -> OmResult<Self> {
        Self::build(dir.as_ref().to_path_buf(), options, false, real_vfs())
    }

    /// [`open`](Self::open) with an explicit [`Vfs`] — the fault
    /// injection seam: the torture harness passes a
    /// [`crate::vfs::FaultVfs`] here and every byte the store writes,
    /// syncs, renames or replays flows through it.
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        options: FileBackendOptions,
        vfs: Arc<dyn Vfs>,
    ) -> OmResult<Self> {
        Self::build(dir.as_ref().to_path_buf(), options, false, vfs)
    }

    /// A store in a fresh scratch directory under the system temp dir,
    /// **removed when the backend drops** — what
    /// [`make_backend`](crate::make_backend) uses when no `data_dir` is
    /// configured, so matrix sweeps never leak files.
    pub fn scratch(shards: usize) -> OmResult<Self> {
        Self::scratch_with(FileBackendOptions {
            shards,
            ..FileBackendOptions::default()
        })
    }

    /// [`scratch`](Self::scratch) with explicit options (bench sweeps
    /// select sync/window/snapshot-mode per cell).
    pub fn scratch_with(options: FileBackendOptions) -> OmResult<Self> {
        static SCRATCH: AtomicU64 = AtomicU64::new(0);
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let dir = std::env::temp_dir().join(format!(
            "om-file-backend-{}-{}-{}",
            std::process::id(),
            nonce,
            SCRATCH.fetch_add(1, Ordering::Relaxed),
        ));
        Self::build(dir, options, true, real_vfs())
    }

    fn build(
        dir: PathBuf,
        options: FileBackendOptions,
        owns_dir: bool,
        vfs: Arc<dyn Vfs>,
    ) -> OmResult<Self> {
        fn io(dir: &Path, e: std::io::Error) -> OmError {
            OmError::Internal(format!("file backend {dir:?}: {e}"))
        }
        fs::create_dir_all(dir.join("wal")).map_err(|e| io(&dir, e))?;
        fs::create_dir_all(dir.join("snap")).map_err(|e| io(&dir, e))?;
        let lock = om_common::dirlock::lock_dir(&dir)?;
        // Bootstrap segment handle (replaced by `recover` once it has
        // decided which segment to continue appending to; the scratch
        // file is removed there).
        let bootstrap = dir.join("wal").join(".bootstrap");
        let file = vfs.open_append(&bootstrap).map_err(|e| io(&dir, e))?;
        let shard_count = shards_pow2(options.shards);
        let mut backend = Self {
            shards: (0..shard_count).map(|_| RwLock::new(Shard::default())).collect(),
            mask: shard_count as u64 - 1,
            appender: Mutex::new(StagedWal {
                buf: Vec::new(),
                pending: Vec::new(),
                next_seq: 1,
                seg_len: 0,
                commits_since_snapshot: 0,
            }),
            flusher: Mutex::new(SegmentFile {
                file,
                path: bootstrap,
                durable_len: 0,
                chain: ChainState::default(),
            }),
            group: CommitGroup::with_policy(options.group_commit),
            wedged: AtomicBool::new(false),
            multi: RwLock::new(()),
            _lock: lock,
            owns_dir,
            dir,
            options,
            vfs,
            commits: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            deltas_written: AtomicU64::new(0),
            snapshot_delta_bytes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            segments_rolled: AtomicU64::new(0),
            recovered_commits: AtomicU64::new(0),
            torn_tail_bytes: AtomicU64::new(0),
            unwedges: AtomicU64::new(0),
            maintenance_errors: AtomicU64::new(0),
            indexes_written: AtomicU64::new(0),
            index_rebuilds: AtomicU64::new(0),
        };
        backend.recover()?;
        Ok(backend)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn shard(&self, key: &[u8]) -> &RwLock<Shard> {
        &self.shards[shard_of(key, self.mask)]
    }

    fn io_err(&self, e: std::io::Error) -> OmError {
        OmError::Internal(format!("file backend {:?}: {e}", self.dir))
    }

    // -- recovery ----------------------------------------------------------

    fn sorted_files(&self, sub: &str, prefix: &str, ext: &str) -> OmResult<Vec<(u64, PathBuf)>> {
        let dir = self.dir.join(sub);
        // A `.tmp` is a snapshot/index the dying process never finished
        // writing: the atomic rename never happened, so it is garbage.
        for entry in fs::read_dir(&dir).map_err(|e| self.io_err(e))? {
            let entry = entry.map_err(|e| self.io_err(e))?;
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        sorted_files_in(&dir, prefix, ext).map_err(|e| self.io_err(e))
    }

    /// Loads the newest base snapshot plus the deltas chained above it
    /// into the shard array; returns the last covered commit sequence
    /// and records the chain state on the flusher. v2 files load their
    /// partition sections on a bounded worker pool
    /// ([`FileBackendOptions::recovery_threads`]).
    fn load_snapshot_chain(&mut self) -> OmResult<u64> {
        let bases = self.sorted_files("snap", "snap-", ".snap")?;
        let deltas = self.sorted_files("snap", "delta-", ".delta")?;
        let threads = resolved_recovery_threads(self.options.recovery_threads);
        let (base_seq, base_bytes) = match bases.last() {
            Some((seq, path)) => (*seq, self.load_chain_file(path, true, *seq, threads)?),
            None => (0, 0),
        };
        let mut covered = base_seq;
        let mut chain = ChainState {
            base_seq,
            base_bytes,
            deltas: 0,
            delta_bytes: 0,
        };
        for (seq, path) in &deltas {
            if *seq <= base_seq {
                // Superseded by the base; leftover of a crash between
                // rename and prune.
                remove_with_index(self.vfs.as_ref(), path);
                continue;
            }
            let size = self.load_chain_file(path, false, *seq, threads)?;
            chain.chain_delta(*seq, size);
            covered = *seq;
        }
        self.flusher.get_mut().chain = chain;
        Ok(covered)
    }

    /// Loads one base or delta file into the shard array, dispatching on
    /// the header version, and returns its byte size. A v2 file missing
    /// its sidecar index gets one rebuilt (the recovery walk sees every
    /// entry anyway) and persisted best-effort.
    fn load_chain_file(
        &mut self,
        path: &Path,
        expect_base: bool,
        expect_seq: u64,
        threads: usize,
    ) -> OmResult<u64> {
        let corrupt =
            || OmError::Internal(format!("file backend {:?}: snapshot {path:?} is corrupt", self.dir));
        let bytes = self.vfs.read(path).map_err(|e| self.io_err(e))?;
        let (header, body_start) = parse_snap_header(&bytes).ok_or_else(corrupt)?;
        if header.is_base != expect_base || header.seq != expect_seq {
            return Err(corrupt());
        }
        if header.legacy {
            // v1 monolithic file: one sequential pass.
            let mut at = body_start;
            let mut loaded = 0u64;
            while let Some((payload, next)) = parse_frame(&bytes, at).map_err(|_| corrupt())? {
                at = next;
                let (key, value) = if header.is_base {
                    decode_snapshot_entry(payload).map(|(k, v)| (k, Some(v)))
                } else {
                    decode_op_payload(payload)
                }
                .ok_or_else(corrupt)?;
                let shard = self.shards[shard_of(&key, self.mask)].get_mut();
                match value {
                    Some(v) => {
                        shard.map.insert(key, v);
                    }
                    None => {
                        shard.map.remove(&key);
                    }
                }
                loaded += 1;
            }
            if loaded != header.n_entries {
                return Err(corrupt());
            }
        } else {
            self.load_v2_sections(&bytes, &header, path, threads)?;
        }
        Ok(bytes.len() as u64)
    }

    /// Loads a v2 file's partition sections across `threads` workers
    /// (each claims whole sections off a shared counter). When the file
    /// was written with the current shard count — the common case — a
    /// section maps 1:1 onto one in-memory shard, so each worker takes
    /// one uncontended write lock per section; otherwise entries are
    /// re-routed per key. Rebuilds the sidecar index if it is missing or
    /// fails validation.
    fn load_v2_sections(
        &self,
        bytes: &[u8],
        header: &SnapHeader,
        path: &Path,
        threads: usize,
    ) -> OmResult<()> {
        let corrupt =
            || OmError::Internal(format!("file backend {:?}: snapshot {path:?} is corrupt", self.dir));
        for s in &header.sections {
            if s.off < v2_header_len(header.sections.len()) as u64
                || s.off + s.len > bytes.len() as u64
            {
                return Err(corrupt());
            }
        }
        let idx_path = path.with_extension("idx");
        let need_rebuild = !self
            .vfs
            .read(&idx_path)
            .ok()
            .and_then(|b| DeltaIndex::decode(&b))
            .is_some_and(|idx| {
                idx.seq() == header.seq && idx.parts() == header.sections.len()
            });
        let builds: Mutex<Vec<Option<PartBuild>>> =
            Mutex::new((0..header.sections.len()).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let workers = threads.clamp(1, header.sections.len().max(1));
        let worker = |_: usize| -> OmResult<()> {
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(section) = header.sections.get(i) else {
                    return Ok(());
                };
                let slice = &bytes[section.off as usize..(section.off + section.len) as usize];
                let mut build = need_rebuild.then(PartBuild::default);
                let mut at = 0usize;
                let mut loaded = 0u64;
                let mut last_key: Option<Vec<u8>> = None;
                // One write guard per run of same-shard keys: with the
                // writer's layout that is one guard for the whole
                // section.
                let mut guard: Option<(usize, parking_lot::RwLockWriteGuard<'_, Shard>)> = None;
                while let Some((payload, next_at)) = parse_frame(slice, at).map_err(|_| corrupt())?
                {
                    let (key, value) = if header.is_base {
                        decode_snapshot_entry(payload).map(|(k, v)| (k, Some(v)))
                    } else {
                        decode_op_payload(payload)
                    }
                    .ok_or_else(corrupt)?;
                    if let Some(prev) = &last_key {
                        if *prev >= key {
                            // Sections must be strictly key-sorted; the
                            // cold reader's region scans rely on it.
                            return Err(corrupt());
                        }
                    }
                    if let Some(b) = &mut build {
                        b.add(&key, section.off + at as u64);
                    }
                    last_key = Some(key.clone());
                    let slot = shard_of(&key, self.mask);
                    if guard.as_ref().map(|(s, _)| *s) != Some(slot) {
                        guard = Some((slot, self.shards[slot].write()));
                    }
                    let shard = &mut guard.as_mut().expect("guard just set").1;
                    match value {
                        Some(v) => {
                            shard.map.insert(key, v);
                        }
                        None => {
                            shard.map.remove(&key);
                        }
                    }
                    loaded += 1;
                    at = next_at;
                }
                if loaded != section.n {
                    return Err(corrupt());
                }
                if let Some(b) = build {
                    builds.lock()[i] = Some(b);
                }
            }
        };
        if workers <= 1 {
            worker(0)?;
        } else {
            std::thread::scope(|scope| {
                let worker = &worker;
                let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || worker(w))).collect();
                let mut first_err = None;
                for h in handles {
                    if let Err(e) = h.join().expect("recovery worker panicked") {
                        first_err.get_or_insert(e);
                    }
                }
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            })?;
        }
        if need_rebuild {
            let builds = builds
                .into_inner()
                .into_iter()
                .map(|b| b.expect("every section built"))
                .collect();
            let index = DeltaIndex::assemble(header.seq, builds);
            self.persist_index(path, &index);
            self.index_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Replays WAL segments past the snapshot chain, truncating a torn
    /// tail of the final segment, and leaves the appender positioned
    /// after the last valid frame. Replayed keys are marked dirty (they
    /// changed since the last snapshot file).
    fn recover(&mut self) -> OmResult<()> {
        let snap_seq = self.load_snapshot_chain()?;
        let mut last_seq = snap_seq;
        let segments = self.sorted_files("wal", "wal-", ".log")?;
        let mut recovered = 0u64;
        let last_index = segments.len().wrapping_sub(1);
        let mut tail: Option<(PathBuf, u64)> = None;
        for (i, (_, path)) in segments.iter().enumerate() {
            let bytes = self.vfs.read(path).map_err(|e| self.io_err(e))?;
            let mut at = 0usize;
            loop {
                match parse_frame(&bytes, at) {
                    Ok(Some((payload, next))) => {
                        let Some((seq, ops)) = decode_batch(payload) else {
                            // Framed correctly but undecodable: corrupt.
                            return Err(OmError::Internal(format!(
                                "file backend {:?}: WAL segment {path:?} holds an \
                                 undecodable batch at byte {at}",
                                self.dir
                            )));
                        };
                        if seq > last_seq {
                            for op in ops {
                                let slot = shard_of(&op.key, self.mask);
                                let shard = self.shards[slot].get_mut();
                                match op.value {
                                    Some(v) => {
                                        shard.dirty.insert(op.key.clone());
                                        shard.map.insert(op.key, v);
                                    }
                                    None => {
                                        shard.map.remove(&op.key);
                                        shard.dirty.insert(op.key);
                                    }
                                }
                            }
                            last_seq = seq;
                            recovered += 1;
                        }
                        at = next;
                    }
                    Ok(None) => break,
                    Err(torn_at) => {
                        if i != last_index {
                            return Err(OmError::Internal(format!(
                                "file backend {:?}: WAL segment {path:?} is corrupt at \
                                 byte {torn_at} but is not the final segment",
                                self.dir
                            )));
                        }
                        // Torn tail: the previous process died mid-append.
                        // Everything before `torn_at` is fully committed;
                        // drop the rest.
                        self.torn_tail_bytes
                            .fetch_add((bytes.len() - torn_at) as u64, Ordering::Relaxed);
                        let mut f = self.vfs.open_write(path).map_err(|e| self.io_err(e))?;
                        f.set_len(torn_at as u64).map_err(|e| self.io_err(e))?;
                        f.sync_data().map_err(|e| self.io_err(e))?;
                        at = torn_at;
                        break;
                    }
                }
            }
            if i == last_index {
                tail = Some((path.clone(), at as u64));
            }
        }
        self.recovered_commits.store(recovered, Ordering::Relaxed);
        // Continue appending to the last segment, or start the first one.
        let (seg_path, seg_len) = match tail {
            Some(t) => t,
            None => (self.dir.join("wal").join(format!("wal-{}.log", last_seq + 1)), 0),
        };
        let file = self.vfs.open_append(&seg_path).map_err(|e| self.io_err(e))?;
        {
            let fl = self.flusher.get_mut();
            fl.file = file;
            fl.path = seg_path;
            // Everything up to the validated tail position survived the
            // parse — the truncate point a later unwedge rolls back to.
            fl.durable_len = seg_len;
        }
        if self.options.sync_commits {
            // The tail segment may have just been created; its directory
            // entry must be durable before fsynced commits land in it.
            self.sync_dir("wal")?;
        }
        *self.appender.get_mut() = StagedWal {
            buf: Vec::new(),
            pending: Vec::new(),
            next_seq: last_seq + 1,
            seg_len,
            commits_since_snapshot: 0,
        };
        // Tickets resume above the recovered sequence numbers; without
        // the floor the first flush would count the whole recovered
        // history as one cohort and wreck commits_per_sync.
        self.group.reset_floor(last_seq);
        let _ = self.vfs.remove_file(&self.dir.join("wal").join(".bootstrap"));
        Ok(())
    }

    // -- commit path -------------------------------------------------------

    /// The typed fail-fast error of a wedged store. `Acquire` pairs
    /// with the `Release` in [`write_staged`](Self::write_staged): a
    /// committer that observes the flag also observes the failed write
    /// that set it, so it can never ack past a concurrent failure.
    fn wedged_err(&self) -> OmError {
        OmError::Wedged(format!(
            "file backend {:?}: a WAL write failed; commits fail fast until an \
             unwedge repairs the torn tail",
            self.dir
        ))
    }

    fn commit_durable(&self, ops: &[WriteOp]) -> OmResult<usize> {
        if self.wedged.load(Ordering::Acquire) {
            return Err(self.wedged_err());
        }
        if self.options.group_commit.is_grouped() {
            self.commit_grouped(ops)
        } else {
            self.commit_inline(ops)
        }
    }

    /// The group-commit path: stage under the appender lock (cheap),
    /// then park on the barrier until a cohort leader has made the
    /// staged frame durable and applied it.
    fn commit_grouped(&self, ops: &[WriteOp]) -> OmResult<usize> {
        let ticket = {
            let mut ap = self.appender.lock();
            let seq = ap.next_seq;
            let before = ap.buf.len();
            let batch = encode_batch(seq, ops);
            push_frame(&mut ap.buf, &batch);
            let frame_len = (ap.buf.len() - before) as u64;
            ap.next_seq = seq + 1;
            ap.seg_len += frame_len;
            ap.commits_since_snapshot += 1;
            ap.pending.push((seq, ops.to_vec()));
            self.wal_bytes.fetch_add(frame_len, Ordering::Relaxed);
            seq
        };
        self.group.wait_durable(ticket, || self.flush_cohort())?;
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(ops.len())
    }

    /// Leader duty: swap the staged cohort out (appenders keep staging
    /// into the next one), write+sync it as one unit, apply it in
    /// sequence order, then run any due maintenance. Returns the
    /// highest durable sequence.
    fn flush_cohort(&self) -> OmResult<u64> {
        // A prior leader's write failed: its cohort's staged batches are
        // gone, so a fresh leader seeing an empty stage must not release
        // those waiters as successful. Fail every re-elected leader.
        if self.wedged.load(Ordering::Acquire) {
            return Err(self.wedged_err());
        }
        let mut fl = self.flusher.lock();
        let (bytes, pending, mut upto) = self.appender.lock().take();
        self.write_staged(&mut fl, &bytes, pending)?;
        if let Some(drained) = self.run_maintenance(&mut fl) {
            upto = upto.max(drained);
        }
        Ok(upto)
    }

    /// Writes `bytes` to the open segment (one `write_all`), fsyncs the
    /// cohort when configured, and applies the staged batches in
    /// sequence order under the visibility gate — durability strictly
    /// before visibility. A write/sync failure wedges the store: the
    /// staged batches are gone and acknowledging anything later would
    /// reorder the WAL.
    fn write_staged(
        &self,
        fl: &mut SegmentFile,
        bytes: &[u8],
        pending: Vec<StagedBatch>,
    ) -> OmResult<()> {
        if !bytes.is_empty() {
            let written = write_all_retry(fl.file.as_mut(), bytes).and_then(|()| {
                if self.options.sync_commits {
                    fl.file.sync_data()
                } else {
                    Ok(())
                }
            });
            if let Err(e) = written {
                // `Release` pairs with the `Acquire` loads on the
                // commit path: any committer that observes the flag
                // also observes this failed write, so a racing
                // committer can never acknowledge past it.
                self.wedged.store(true, Ordering::Release);
                return Err(OmError::Wedged(format!(
                    "file backend {:?}: WAL write failed ({e}); the store is wedged \
                     until an unwedge repairs the torn tail",
                    self.dir
                )));
            }
            fl.durable_len += bytes.len() as u64;
        }
        if !pending.is_empty() {
            let _gate = self.multi.write();
            for (_, ops) in pending {
                self.apply_owned(ops);
            }
        }
        Ok(())
    }

    /// Applies one durable batch to the shard array, marking the keys
    /// dirty for the next incremental snapshot. Callers hold the
    /// visibility gate.
    fn apply_owned(&self, ops: Vec<WriteOp>) {
        for op in ops {
            let slot = shard_of(&op.key, self.mask);
            let mut shard = self.shards[slot].write();
            match op.value {
                Some(v) => {
                    shard.dirty.insert(op.key.clone());
                    shard.map.insert(op.key, v);
                }
                None => {
                    shard.map.remove(&op.key);
                    shard.dirty.insert(op.key);
                }
            }
        }
    }

    /// The barrier-free path ([`GroupCommitPolicy::Off`]): the PR 4
    /// behaviour — every commit writes, flushes and fsyncs its own
    /// frame under the flusher lock, serialized.
    fn commit_inline(&self, ops: &[WriteOp]) -> OmResult<usize> {
        let mut fl = self.flusher.lock();
        let frame = {
            let mut ap = self.appender.lock();
            let seq = ap.next_seq;
            let mut frame = Vec::new();
            push_frame(&mut frame, &encode_batch(seq, ops));
            ap.next_seq = seq + 1;
            ap.seg_len += frame.len() as u64;
            ap.commits_since_snapshot += 1;
            frame
        };
        self.wal_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.write_staged(&mut fl, &frame, Vec::new())?;
        {
            let _gate = self.multi.write();
            self.apply_owned(ops.to_vec());
        }
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.run_maintenance(&mut fl);
        Ok(ops.len())
    }

    /// Post-commit maintenance (snapshot / segment roll), run by
    /// whoever holds the flusher. The commit it follows is already
    /// durable and visible, so a failure here must NOT be reported as a
    /// failed commit — it is counted and retried on a later commit.
    /// Returns the highest sequence drained by the maintenance pass, if
    /// one ran.
    fn run_maintenance(&self, fl: &mut SegmentFile) -> Option<u64> {
        let due = {
            let ap = self.appender.lock();
            (self.options.snapshot_every > 0
                && ap.commits_since_snapshot >= self.options.snapshot_every)
                || ap.seg_len >= self.options.segment_bytes
        };
        if !due {
            return None;
        }
        match self.maintain(fl) {
            Ok(upto) => Some(upto),
            Err(_) => {
                self.maintenance_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Holding the flusher: re-drains the stage **under the appender
    /// lock** (so the segment and shard state sit exactly on a commit
    /// boundary and no append can interleave), then snapshots or rolls.
    fn maintain(&self, fl: &mut SegmentFile) -> OmResult<u64> {
        let mut ap = self.appender.lock();
        let (bytes, pending, upto) = ap.take();
        self.write_staged(fl, &bytes, pending)?;
        let snapshot_due = self.options.snapshot_every > 0
            && ap.commits_since_snapshot >= self.options.snapshot_every;
        if snapshot_due {
            self.write_snapshot_locked(fl, &mut ap)?;
        } else if ap.seg_len >= self.options.segment_bytes {
            self.roll_segment_locked(fl, &mut ap)?;
        }
        Ok(upto)
    }

    /// Starts a new WAL segment named after the next commit sequence.
    /// Callers hold both locks (or are in recovery), so every staged
    /// byte has been written to the old segment and the name is exact.
    fn roll_segment_locked(&self, fl: &mut SegmentFile, ap: &mut StagedWal) -> OmResult<()> {
        debug_assert!(ap.buf.is_empty(), "roll with staged bytes would split a segment");
        let path = self
            .dir
            .join("wal")
            .join(format!("wal-{}.log", ap.next_seq));
        let file = self.vfs.open_append(&path).map_err(|e| self.io_err(e))?;
        fl.file = file;
        fl.path = path;
        fl.durable_len = 0;
        ap.seg_len = 0;
        if self.options.sync_commits {
            // Make the new segment's directory entry durable: fsyncing
            // record data into a file whose entry power loss could
            // erase would sync nothing.
            self.sync_dir("wal")?;
        }
        self.segments_rolled.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Writes a snapshot-family file via tmp + fsync + atomic rename +
    /// directory fsync. The directory fsync is what orders the rename
    /// against the WAL prune that follows it: without it, power loss
    /// could undo the (metadata-only) rename while the unlinks survive,
    /// leaving the pruned commits in neither the chain nor the WAL.
    fn persist_snapshot_file(&self, tmp: &Path, fin: &Path, out: &[u8]) -> OmResult<u64> {
        let mut f = self.vfs.create(tmp).map_err(|e| self.io_err(e))?;
        write_all_retry(f.as_mut(), out).map_err(|e| self.io_err(e))?;
        f.sync_data().map_err(|e| self.io_err(e))?;
        drop(f);
        self.vfs.rename(tmp, fin).map_err(|e| self.io_err(e))?;
        self.sync_dir("snap")?;
        Ok(out.len() as u64)
    }

    /// Fsyncs one of the store's subdirectories, making renames,
    /// creations and unlinks inside it durable against power loss.
    fn sync_dir(&self, sub: &str) -> OmResult<()> {
        self.vfs
            .dir_sync(&self.dir.join(sub))
            .map_err(|e| self.io_err(e))
    }

    /// Prunes WAL segments fully covered by a snapshot at `seq` (a
    /// segment named `wal-<first>` with a successor whose first
    /// sequence is <= seq+1 holds only covered records).
    fn prune_wal(&self, seq: u64) -> OmResult<()> {
        let segments = self.sorted_files("wal", "wal-", ".log")?;
        let mut pruned = false;
        for window in segments.windows(2) {
            let (_, ref path) = window[0];
            let (next_first, _) = window[1];
            if next_first <= seq + 1 {
                let _ = self.vfs.remove_file(path);
                pruned = true;
            }
        }
        if pruned {
            self.sync_dir("wal")?;
        }
        Ok(())
    }

    /// Writes the due snapshot — a full base, or (incremental mode with
    /// a live base and a young chain) a delta of the keys dirtied since
    /// the last snapshot file — then prunes covered WAL segments and
    /// rolls to a fresh one. Runs under both locks at a commit
    /// boundary: every staged batch has been written and applied.
    fn write_snapshot_locked(&self, fl: &mut SegmentFile, ap: &mut StagedWal) -> OmResult<()> {
        let seq = ap.next_seq - 1;
        // Keys drained out of the dirty sets for this snapshot attempt.
        // They must go BACK on any failure path: losing them would make
        // a later delta omit their changes while the WAL prune deletes
        // the only durable copy — silent loss of acknowledged commits.
        let mut drained: Vec<Vec<u8>> = Vec::new();
        if self.options.snapshot_mode == SnapshotMode::Incremental && fl.chain.base_seq > 0 {
            if seq == fl.chain.base_seq {
                // Nothing committed since the base: nothing to write.
                ap.commits_since_snapshot = 0;
                return Ok(());
            }
            // Delta sections: per shard, the dirtied keys in key order —
            // a put of the live value, or a tombstone if the key no
            // longer exists.
            let mut parts: Vec<PartEntries> = Vec::with_capacity(self.shards.len());
            let mut n_entries = 0u64;
            for shard in &self.shards {
                let mut shard = shard.write();
                let mut dirty: Vec<Vec<u8>> = shard.dirty.drain().collect();
                dirty.sort_unstable();
                let mut part = Vec::with_capacity(dirty.len());
                for key in dirty {
                    part.push((key.clone(), shard.map.get(&key).cloned()));
                    drained.push(key);
                }
                n_entries += part.len() as u64;
                parts.push(part);
            }
            if n_entries == 0 {
                // Commits happened but every key settled back... cannot
                // actually occur (commits always dirty keys), kept for
                // robustness: just reset the trigger.
                ap.commits_since_snapshot = 0;
                return Ok(());
            }
            let (out, index) = build_v2_file(false, seq, &parts);
            if fl.chain.compaction_due(
                out.len() as u64,
                self.options.compact_max_deltas,
                self.options.compact_ratio_pct,
            ) {
                // Chain too long/heavy: fold into a fresh base instead
                // (fall through to the full-base write below, which
                // restores `drained` if it fails).
                self.compactions.fetch_add(1, Ordering::Relaxed);
            } else {
                let tmp = self.dir.join("snap").join(format!("delta-{seq}.tmp"));
                let fin = self.dir.join("snap").join(format!("delta-{seq}.delta"));
                let written = match self.persist_snapshot_file(&tmp, &fin, &out) {
                    Ok(n) => n,
                    Err(e) => {
                        self.remark_dirty(drained);
                        return Err(e);
                    }
                };
                self.persist_index(&fin, &index);
                fl.chain.chain_delta(seq, written);
                self.deltas_written.fetch_add(1, Ordering::Relaxed);
                self.snapshot_delta_bytes.fetch_add(written, Ordering::Relaxed);
                ap.commits_since_snapshot = 0;
                self.roll_segment_locked(fl, ap)?;
                return self.prune_wal(seq);
            }
        }

        // Full base: the whole live state, one key-sorted section per
        // shard. Dirty sets are cleared only once the base is durably on
        // disk.
        let mut parts: Vec<PartEntries> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let shard = shard.read();
            parts.push(
                shard
                    .map
                    .iter()
                    .map(|(k, v)| (k.clone(), Some(v.clone())))
                    .collect(),
            );
        }
        let (out, index) = build_v2_file(true, seq, &parts);
        let tmp = self.dir.join("snap").join(format!("snap-{seq}.tmp"));
        let fin = self.dir.join("snap").join(format!("snap-{seq}.snap"));
        let written = match self.persist_snapshot_file(&tmp, &fin, &out) {
            Ok(n) => n,
            Err(e) => {
                // A failed compaction attempt must put the chain back
                // where it was: the drained keys stay pending for the
                // next delta.
                self.remark_dirty(drained);
                return Err(e);
            }
        };
        self.persist_index(&fin, &index);
        // The base covers everything; dirty tracking restarts.
        for shard in &self.shards {
            shard.write().dirty.clear();
        }
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        fl.chain.rebase(seq, written);
        ap.commits_since_snapshot = 0;

        // Everything at or below `seq` is covered by the base: prune
        // older bases, every delta (the base subsumes the chain), their
        // index sidecars, and covered WAL segments.
        for (s, path) in self.sorted_files("snap", "snap-", ".snap")? {
            if s < seq {
                remove_with_index(self.vfs.as_ref(), &path);
            }
        }
        for (s, path) in self.sorted_files("snap", "delta-", ".delta")? {
            if s <= seq {
                remove_with_index(self.vfs.as_ref(), &path);
            }
        }
        self.roll_segment_locked(fl, ap)?;
        self.prune_wal(seq)
    }

    /// Persists the sidecar index next to the data file `fin` with the
    /// same tmp + fsync + rename + directory-fsync discipline.
    /// Best-effort: a failure costs an index rebuild on the next open,
    /// never durability — the data file is already on disk.
    fn persist_index(&self, fin: &Path, index: &DeltaIndex) {
        let tmp = fin.with_extension("idx.tmp");
        let idx = fin.with_extension("idx");
        match self.persist_snapshot_file(&tmp, &idx, &index.encode()) {
            Ok(_) => {
                self.indexes_written.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.maintenance_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Puts keys back on their shards' dirty sets — the rollback for a
    /// snapshot attempt whose file never made it to disk.
    fn remark_dirty(&self, drained: Vec<Vec<u8>>) {
        for key in drained {
            self.shards[shard_of(&key, self.mask)].write().dirty.insert(key);
        }
    }

    /// Forces a snapshot (base or delta, per the configured mode) + WAL
    /// prune right now (maintenance hook; the commit path does this
    /// automatically every [`FileBackendOptions::snapshot_every`]
    /// commits).
    pub fn snapshot_now(&self) -> OmResult<()> {
        let mut fl = self.flusher.lock();
        let mut ap = self.appender.lock();
        let (bytes, pending, _) = ap.take();
        self.write_staged(&mut fl, &bytes, pending)?;
        self.write_snapshot_locked(&mut fl, &mut ap)
    }

    /// Group-commit statistics of this store's barrier (all zero when
    /// the barrier is disabled).
    pub fn group_stats(&self) -> crate::group_commit::CommitGroupStats {
        self.group.stats()
    }

    /// Whether a WAL write failure has wedged this store (every commit
    /// fails fast with [`OmError::Wedged`] until
    /// [`unwedge`](Self::unwedge) repairs it).
    pub fn is_wedged(&self) -> bool {
        self.wedged.load(Ordering::Acquire)
    }

    /// Repairs a wedged store in place: close the segment handle,
    /// truncate the torn tail back to the last successfully-written
    /// byte, re-open, verify the tail parses cleanly, and clear the
    /// wedge so commits flow again. Returns the torn bytes dropped
    /// (`0` if the store was not wedged — the call is an idempotent
    /// no-op then).
    ///
    /// The staged frames of the failed cohort (and anything staged
    /// behind it) are discarded: their committers were never
    /// acknowledged — the barrier fails any still-parked waiter via
    /// [`CommitGroup::abort_below`] — and the in-memory mirror never
    /// applied them, so disk and memory land on exactly the last acked
    /// commit. Commit sequences keep counting from where they were;
    /// recovery tolerates the gap (it applies only frames above the
    /// last covered sequence).
    ///
    /// If the repair itself fails (the device is still refusing IO)
    /// the store stays wedged and the error is returned; the call can
    /// be retried.
    pub fn unwedge(&self) -> OmResult<u64> {
        let mut fl = self.flusher.lock();
        let mut ap = self.appender.lock();
        if !self.wedged.load(Ordering::Acquire) {
            return Ok(0);
        }
        // Drop every staged frame: none of them was acknowledged, and
        // replaying them without their committers waiting would apply
        // writes nobody owns. The barrier must fail their waiters —
        // both locks are held, so no new ticket at or below the bound
        // can appear.
        ap.buf.clear();
        ap.pending.clear();
        self.group.abort_below(ap.next_seq - 1);
        // Close, truncate the torn tail, re-open, verify.
        let on_disk = self.vfs.read(&fl.path).map_err(|e| self.io_err(e))?;
        let torn = (on_disk.len() as u64).saturating_sub(fl.durable_len);
        {
            let mut h = self.vfs.open_write(&fl.path).map_err(|e| self.io_err(e))?;
            h.set_len(fl.durable_len).map_err(|e| self.io_err(e))?;
            h.sync_data().map_err(|e| self.io_err(e))?;
        }
        // Verify: every frame of the kept prefix must parse — if the
        // failure also mangled acknowledged bytes, refuse to serve and
        // stay wedged (recovery from the snapshot chain is the only
        // honest path then).
        let kept = &on_disk[..fl.durable_len.min(on_disk.len() as u64) as usize];
        let mut at = 0usize;
        loop {
            match parse_frame(kept, at) {
                Ok(Some((payload, next))) => {
                    if decode_batch(payload).is_none() {
                        return Err(OmError::Internal(format!(
                            "file backend {:?}: unwedge verification failed — segment \
                             {:?} holds an undecodable batch at byte {at}",
                            self.dir, fl.path
                        )));
                    }
                    at = next;
                }
                Ok(None) => break,
                Err(torn_at) => {
                    return Err(OmError::Internal(format!(
                        "file backend {:?}: unwedge verification failed — segment {:?} \
                         is damaged at byte {torn_at} inside the acknowledged prefix",
                        self.dir, fl.path
                    )));
                }
            }
        }
        fl.file = self.vfs.open_append(&fl.path).map_err(|e| self.io_err(e))?;
        ap.seg_len = fl.durable_len;
        self.unwedges.fetch_add(1, Ordering::Relaxed);
        self.wedged.store(false, Ordering::Release);
        Ok(torn)
    }
}

/// Removes a snapshot-family file together with its `.idx` sidecar (an
/// orphaned sidecar would otherwise shadow a later rebuild).
fn remove_with_index(vfs: &dyn Vfs, path: &Path) {
    let _ = vfs.remove_file(&path.with_extension("idx"));
    let _ = vfs.remove_file(path);
}

pub(crate) fn decode_snapshot_entry(payload: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    if payload.len() < 4 {
        return None;
    }
    let key_len = u32::from_le_bytes(payload[..4].try_into().ok()?) as usize;
    if payload.len() < 4 + key_len + 4 {
        return None;
    }
    let key = payload[4..4 + key_len].to_vec();
    let val_len =
        u32::from_le_bytes(payload[4 + key_len..8 + key_len].try_into().ok()?) as usize;
    if payload.len() != 8 + key_len + val_len {
        return None;
    }
    Some((key, payload[8 + key_len..].to_vec()))
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        if self.owns_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

impl StateBackend for FileBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::FileDurable
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shard(key).read().map.get(key).cloned()
    }

    fn put(&self, key: &[u8], value: &[u8]) {
        self.commit_ops(&[WriteOp {
            key: key.to_vec(),
            value: Some(value.to_vec()),
        }])
        .expect("file backend write");
    }

    fn delete(&self, key: &[u8]) {
        self.commit_ops(&[WriteOp {
            key: key.to_vec(),
            value: None,
        }])
        .expect("file backend delete");
    }

    fn try_put(&self, key: &[u8], value: &[u8]) -> OmResult<()> {
        self.commit_ops(&[WriteOp {
            key: key.to_vec(),
            value: Some(value.to_vec()),
        }])
        .map(|_| ())
    }

    fn try_delete(&self, key: &[u8]) -> OmResult<()> {
        self.commit_ops(&[WriteOp {
            key: key.to_vec(),
            value: None,
        }])
        .map(|_| ())
    }

    fn is_wedged(&self) -> bool {
        FileBackend::is_wedged(self)
    }

    fn unwedge(&self) -> Option<OmResult<u64>> {
        Some(FileBackend::unwedge(self))
    }

    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        // Under the visibility gate no commit can apply halfway through
        // this read: multi-key reads are never torn, matching what
        // recovery guarantees for the on-disk state.
        let _gate = self.multi.read();
        keys.iter()
            .map(|k| self.shard(k).read().map.get(*k).cloned())
            .collect()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let _gate = self.multi.read();
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .read()
                    .map
                    .range::<[u8], _>((std::ops::Bound::Included(prefix), std::ops::Bound::Unbounded))
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .map(|(k, v)| (k.clone(), v.clone())),
            );
        }
        out.sort();
        out
    }

    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        self.commit_durable(batch.ops())
    }

    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        self.commit_durable(ops)
    }

    fn session(&self) -> Box<dyn StateSession + '_> {
        Box::new(FileSession { backend: self })
    }

    fn quiesce(&self) {
        // Commits are durable and applied before acknowledging; nothing
        // is asynchronous.
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let commits = self.commits.load(Ordering::Relaxed);
        out.insert("backend.commits".into(), commits);
        out.insert("backend.wal_bytes".into(), self.wal_bytes.load(Ordering::Relaxed));
        out.insert("backend.snapshots".into(), self.snapshots.load(Ordering::Relaxed));
        out.insert("backend.deltas".into(), self.deltas_written.load(Ordering::Relaxed));
        out.insert(
            "backend.snapshot_delta_bytes".into(),
            self.snapshot_delta_bytes.load(Ordering::Relaxed),
        );
        out.insert("backend.compactions".into(), self.compactions.load(Ordering::Relaxed));
        let group = self.group.stats();
        out.insert("backend.group_flushes".into(), group.flushes);
        out.insert("backend.max_commit_cohort".into(), group.max_cohort);
        // Mean commits amortized per sync: the headline group-commit
        // number. 1 when the barrier is off (each commit pays its own
        // sync), 0 before any commit.
        out.insert(
            "backend.commits_per_sync".into(),
            if group.flushes > 0 {
                group.commits_per_flush()
            } else {
                u64::from(commits > 0)
            },
        );
        out.insert(
            "backend.segments_rolled".into(),
            self.segments_rolled.load(Ordering::Relaxed),
        );
        out.insert(
            "backend.recovered_commits".into(),
            self.recovered_commits.load(Ordering::Relaxed),
        );
        out.insert(
            "backend.torn_tail_bytes".into(),
            self.torn_tail_bytes.load(Ordering::Relaxed),
        );
        out.insert("backend.wedged".into(), u64::from(self.is_wedged()));
        out.insert("backend.unwedges".into(), self.unwedges.load(Ordering::Relaxed));
        out.insert(
            "backend.maintenance_errors".into(),
            self.maintenance_errors.load(Ordering::Relaxed),
        );
        out.insert(
            "backend.indexes_written".into(),
            self.indexes_written.load(Ordering::Relaxed),
        );
        out.insert(
            "backend.index_rebuilds".into(),
            self.index_rebuilds.load(Ordering::Relaxed),
        );
        out.insert("backend.shards".into(), self.shards.len() as u64);
        out
    }
}

/// Sessions are trivial here: every write is durable and visible before
/// `put` returns, so a later authoritative read always observes it.
struct FileSession<'a> {
    backend: &'a FileBackend,
}

impl StateSession for FileSession<'_> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.backend.get(key)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.backend.put(key, value);
    }

    fn delete(&mut self, key: &[u8]) {
        self.backend.delete(key);
    }

    fn fallbacks(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "om-file-test-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    struct DirGuard(PathBuf);
    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn reopen_recovers_committed_state() {
        let dir = scratch_path("reopen");
        let _guard = DirGuard(dir.clone());
        {
            let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
            b.put(b"a", b"1");
            let batch = WriteBatch::new()
                .put(b"b".to_vec(), b"2".to_vec())
                .put(b"c".to_vec(), b"3".to_vec());
            b.commit(batch).unwrap();
            b.delete(b"a");
        }
        let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(b.get(b"a"), None);
        assert_eq!(b.get(b"b"), Some(b"2".to_vec()));
        assert_eq!(b.get(b"c"), Some(b"3".to_vec()));
        assert_eq!(b.len(), 2);
        assert_eq!(b.counters()["backend.recovered_commits"], 3);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_full_commit() {
        let dir = scratch_path("torn");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 0,
            ..FileBackendOptions::default()
        };
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            b.put(b"k1", b"v1");
            b.put(b"k2", b"v2");
        }
        // Chop bytes off the single WAL segment: a torn final append.
        let seg = fs::read_dir(dir.join("wal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .unwrap();
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"k1"), Some(b"v1".to_vec()), "first commit intact");
        assert_eq!(b.get(b"k2"), None, "torn commit discarded");
        assert!(b.counters()["backend.torn_tail_bytes"] > 0);
        // The truncated tail was physically removed: a further reopen is
        // clean and the next commit lands after the valid prefix.
        b.put(b"k3", b"v3");
        drop(b);
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(b.get(b"k3"), Some(b"v3".to_vec()));
        assert_eq!(b.counters()["backend.torn_tail_bytes"], 0);
    }

    #[test]
    fn full_mode_snapshot_compacts_wal_and_survives_reopen() {
        let dir = scratch_path("snap");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 4,
            snapshot_mode: SnapshotMode::Full,
            ..FileBackendOptions::default()
        };
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            for i in 0..10u8 {
                b.put(&[b'k', i], &[i]);
            }
            assert!(b.counters()["backend.snapshots"] >= 2);
        }
        // Only the newest snapshot (plus its index sidecar) and the
        // short post-snapshot WAL tail remain on disk.
        let snaps = fs::read_dir(dir.join("snap"))
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".snap")
            })
            .count();
        assert_eq!(snaps, 1);
        let b = FileBackend::open(&dir, opts).unwrap();
        for i in 0..10u8 {
            assert_eq!(b.get(&[b'k', i]), Some(vec![i]));
        }
    }

    #[test]
    fn incremental_snapshots_write_deltas_proportional_to_churn() {
        let dir = scratch_path("incr");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 0,
            compact_max_deltas: 100,
            compact_ratio_pct: 10_000,
            ..FileBackendOptions::default()
        };
        let b = FileBackend::open(&dir, opts).unwrap();
        // Large base: 256 keys.
        for i in 0..256u16 {
            b.put(format!("key/{i:04}").as_bytes(), &[0u8; 64]);
        }
        b.snapshot_now().unwrap();
        assert_eq!(b.counters()["backend.snapshots"], 1, "first snapshot is a base");
        // Touch only 3 keys; the next snapshot must be a small delta.
        b.put(b"key/0001", b"new");
        b.delete(b"key/0002");
        b.put(b"hot", b"x");
        b.snapshot_now().unwrap();
        let counters = b.counters();
        assert_eq!(counters["backend.deltas"], 1);
        let delta_bytes = counters["backend.snapshot_delta_bytes"];
        assert!(
            delta_bytes < 512,
            "3-key delta must not rewrite the 256-key base (got {delta_bytes} bytes)"
        );
        drop(b);
        // Recovery = base + delta (+ empty WAL tail).
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"key/0001"), Some(b"new".to_vec()));
        assert_eq!(b.get(b"key/0002"), None, "tombstone recovered");
        assert_eq!(b.get(b"hot"), Some(b"x".to_vec()));
        assert_eq!(b.len(), 256, "255 base survivors + hot");
    }

    #[test]
    fn delta_chain_compacts_back_into_a_base() {
        let dir = scratch_path("compact");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 0,
            compact_max_deltas: 3,
            compact_ratio_pct: 100_000,
            ..FileBackendOptions::default()
        };
        let b = FileBackend::open(&dir, opts).unwrap();
        b.put(b"seed", b"v");
        b.snapshot_now().unwrap(); // base
        for round in 0..5u8 {
            b.put(b"churn", &[round]);
            b.snapshot_now().unwrap();
        }
        let counters = b.counters();
        assert!(counters["backend.compactions"] >= 1, "chain length 3 trips compaction");
        assert!(counters["backend.snapshots"] >= 2, "compaction writes a fresh base");
        // After compaction, old deltas are pruned: at most
        // compact_max_deltas delta files remain.
        let deltas_on_disk = fs::read_dir(dir.join("snap"))
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".delta")
            })
            .count();
        assert!(deltas_on_disk <= 3, "stale deltas pruned (got {deltas_on_disk})");
        drop(b);
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"churn"), Some(vec![4]));
        assert_eq!(b.get(b"seed"), Some(b"v".to_vec()));
    }

    #[test]
    fn deletes_survive_snapshot_and_replay() {
        for mode in [SnapshotMode::Full, SnapshotMode::Incremental] {
            let dir = scratch_path("del");
            let _guard = DirGuard(dir.clone());
            let opts = FileBackendOptions {
                snapshot_mode: mode,
                ..FileBackendOptions::default()
            };
            {
                let b = FileBackend::open(&dir, opts).unwrap();
                b.put(b"gone", b"x");
                b.put(b"kept", b"y");
                b.delete(b"gone");
                b.snapshot_now().unwrap();
                b.put(b"late", b"z");
            }
            let b = FileBackend::open(&dir, opts).unwrap();
            assert_eq!(b.get(b"gone"), None, "{:?}", mode);
            assert_eq!(b.get(b"kept"), Some(b"y".to_vec()));
            assert_eq!(b.get(b"late"), Some(b"z".to_vec()));
        }
    }

    #[test]
    fn scratch_backend_cleans_up_its_directory() {
        let b = FileBackend::scratch(4).unwrap();
        let dir = b.dir().to_path_buf();
        b.put(b"k", b"v");
        assert!(dir.exists());
        drop(b);
        assert!(!dir.exists(), "scratch dir must be removed on drop");
    }

    #[test]
    fn concurrent_multi_reads_never_observe_torn_batches() {
        let b = std::sync::Arc::new(FileBackend::scratch(8).unwrap());
        let keys: Vec<Vec<u8>> = (0..8u8).map(|i| vec![b'k', i]).collect();
        {
            let mut batch = WriteBatch::new();
            for k in &keys {
                batch = batch.put(k.clone(), 0u16.to_le_bytes().to_vec());
            }
            b.commit(batch).unwrap();
        }
        let writer = {
            let b = b.clone();
            let keys = keys.clone();
            std::thread::spawn(move || {
                for round in 1..=100u16 {
                    let mut batch = WriteBatch::new();
                    for k in &keys {
                        batch = batch.put(k.clone(), round.to_le_bytes().to_vec());
                    }
                    b.commit(batch).unwrap();
                }
            })
        };
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for _ in 0..300 {
            let values = b.get_many(&key_refs);
            let distinct: std::collections::HashSet<_> = values.iter().collect();
            assert_eq!(distinct.len(), 1, "torn batch observed: {values:?}");
        }
        writer.join().unwrap();
    }

    #[test]
    fn grouped_commits_share_syncs_under_contention() {
        let opts = FileBackendOptions {
            shards: 8,
            sync_commits: true,
            group_commit: GroupCommitPolicy::Fixed(0),
            ..FileBackendOptions::default()
        };
        let b = std::sync::Arc::new(FileBackend::scratch_with(opts).unwrap());
        const WRITERS: u64 = 8;
        const COMMITS: u64 = 40;
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..COMMITS {
                    b.put(format!("w{w}/k{i}").as_bytes(), &i.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let counters = b.counters();
        assert_eq!(counters["backend.commits"], WRITERS * COMMITS);
        assert_eq!(b.len() as u64, WRITERS * COMMITS);
        let stats = b.group_stats();
        assert_eq!(stats.released, WRITERS * COMMITS, "every commit released");
        assert!(
            stats.flushes <= stats.released,
            "never more syncs than commits"
        );
        assert!(counters["backend.commits_per_sync"] >= 1);
    }

    #[test]
    fn inline_mode_reports_one_commit_per_sync() {
        let opts = FileBackendOptions {
            group_commit: GroupCommitPolicy::Off,
            ..FileBackendOptions::default()
        };
        let b = FileBackend::scratch_with(opts).unwrap();
        b.put(b"k", b"v");
        let counters = b.counters();
        assert_eq!(counters["backend.commits_per_sync"], 1);
        assert_eq!(counters["backend.group_flushes"], 0);
    }

    #[test]
    fn segments_roll_at_the_size_threshold() {
        let dir = scratch_path("roll");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 0,
            segment_bytes: 256,
            ..FileBackendOptions::default()
        };
        let b = FileBackend::open(&dir, opts).unwrap();
        for i in 0..32u32 {
            b.put(&i.to_be_bytes(), &[0u8; 64]);
        }
        assert!(b.counters()["backend.segments_rolled"] >= 2);
        drop(b);
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.len(), 32, "multi-segment replay restores everything");
    }

    /// Writes a v1 (monolithic, unsorted) snapshot-family file the way
    /// PR 5's writer did.
    fn write_v1_file(path: &Path, magic: &[u8; 8], seq: u64, payloads: &[Vec<u8>]) {
        let mut header = Vec::with_capacity(24);
        header.extend_from_slice(magic);
        header.extend_from_slice(&seq.to_le_bytes());
        header.extend_from_slice(&(payloads.len() as u64).to_le_bytes());
        let mut out = Vec::new();
        push_frame(&mut out, &header);
        for p in payloads {
            push_frame(&mut out, p);
        }
        fs::write(path, out).unwrap();
    }

    #[test]
    fn legacy_v1_snapshot_files_still_recover() {
        let dir = scratch_path("v1compat");
        let _guard = DirGuard(dir.clone());
        fs::create_dir_all(dir.join("snap")).unwrap();
        fs::create_dir_all(dir.join("wal")).unwrap();
        // v1 base at seq 2: {a: 1, b: 2} — entries deliberately unsorted.
        let base: Vec<Vec<u8>> = [(b"b", 2u8), (b"a", 1u8)]
            .iter()
            .map(|(k, v)| {
                let mut p = Vec::new();
                p.extend_from_slice(&(k.len() as u32).to_le_bytes());
                p.extend_from_slice(*k);
                p.extend_from_slice(&1u32.to_le_bytes());
                p.push(*v);
                p
            })
            .collect();
        write_v1_file(&dir.join("snap").join("snap-2.snap"), SNAP_MAGIC, 2, &base);
        // v1 delta at seq 4: put c=3, tombstone a.
        let mut put = Vec::new();
        encode_op(&mut put, b"c", Some(&[3u8]));
        let mut del = Vec::new();
        encode_op(&mut del, b"a", None);
        write_v1_file(&dir.join("snap").join("delta-4.delta"), DELTA_MAGIC, 4, &[put, del]);
        let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(b.get(b"a"), None, "v1 delta tombstone applied");
        assert_eq!(b.get(b"b"), Some(vec![2]));
        assert_eq!(b.get(b"c"), Some(vec![3]));
        // Legacy files carry no sections, so no index is rebuilt for
        // them; the next snapshot upgrades the store to v2 + index.
        assert_eq!(b.counters()["backend.index_rebuilds"], 0);
        b.put(b"d", b"4");
        b.snapshot_now().unwrap();
        assert!(b.counters()["backend.indexes_written"] >= 1, "v2 upgrade writes an index");
    }

    #[test]
    fn parallel_and_serial_recovery_agree() {
        let dir = scratch_path("parrec");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            shards: 8,
            snapshot_every: 0,
            compact_max_deltas: 100,
            compact_ratio_pct: 100_000,
            ..FileBackendOptions::default()
        };
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            for i in 0..300u32 {
                b.put(format!("key/{i:04}").as_bytes(), &i.to_le_bytes());
            }
            b.snapshot_now().unwrap(); // v2 base
            for i in 0..50u32 {
                b.put(format!("key/{:04}", i * 3).as_bytes(), b"churn");
            }
            b.delete(b"key/0001");
            b.snapshot_now().unwrap(); // v2 delta
            b.put(b"tail", b"wal"); // WAL tail past the chain
        }
        let serial = FileBackend::open(
            &dir,
            FileBackendOptions {
                recovery_threads: 1,
                ..opts
            },
        )
        .unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = serial.scan_prefix(b"");
        drop(serial);
        let parallel = FileBackend::open(
            &dir,
            FileBackendOptions {
                recovery_threads: 4,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(parallel.scan_prefix(b""), expected, "parallel load = serial load");
        assert_eq!(parallel.get(b"key/0001"), None);
        assert_eq!(parallel.get(b"tail"), Some(b"wal".to_vec()));
        drop(parallel);
        // A different shard count than the writer's still recovers (the
        // per-key re-routing path).
        let resharded = FileBackend::open(
            &dir,
            FileBackendOptions {
                shards: 2,
                recovery_threads: 4,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resharded.scan_prefix(b""), expected, "re-sharded load = serial load");
    }

    #[test]
    fn recovery_rebuilds_missing_or_damaged_indexes() {
        let dir = scratch_path("idxrebuild");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 0,
            ..FileBackendOptions::default()
        };
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            for i in 0..64u32 {
                b.put(format!("k/{i}").as_bytes(), &i.to_le_bytes());
            }
            b.snapshot_now().unwrap();
            assert_eq!(b.counters()["backend.indexes_written"], 1);
        }
        let idx_files: Vec<PathBuf> = fs::read_dir(dir.join("snap"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "idx"))
            .collect();
        assert_eq!(idx_files.len(), 1, "one sidecar per chain file");
        fs::remove_file(&idx_files[0]).unwrap();
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.counters()["backend.index_rebuilds"], 1, "missing sidecar rebuilt");
        assert!(idx_files[0].exists(), "rebuilt sidecar persisted");
        assert_eq!(b.len(), 64);
        drop(b);
        // Damage (truncate) the sidecar: validation fails, rebuild again.
        let bytes = fs::read(&idx_files[0]).unwrap();
        fs::write(&idx_files[0], &bytes[..bytes.len() / 2]).unwrap();
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.counters()["backend.index_rebuilds"], 1, "damaged sidecar rebuilt");
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn fsync_failure_wedges_and_unwedge_repairs_in_place() {
        use crate::vfs::FaultVfs;
        let dir = scratch_path("wedge");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            sync_commits: true,
            snapshot_every: 0,
            ..FileBackendOptions::default()
        };
        let vfs = FaultVfs::new(42).fail_nth_sync(2);
        let b = FileBackend::open_with_vfs(&dir, opts, Arc::new(vfs.clone())).unwrap();
        b.commit(WriteBatch::new().put(b"k1".to_vec(), b"v1".to_vec())).unwrap();
        // The second cohort's fsync fails: the commit errors with the
        // typed wedge, and the store fails fast from then on.
        let err = b.commit(WriteBatch::new().put(b"k2".to_vec(), b"v2".to_vec()));
        assert!(matches!(err, Err(OmError::Wedged(_))), "{err:?}");
        assert!(b.is_wedged());
        assert_eq!(b.get(b"k2"), None, "a failed commit must never become visible");
        let fast = b.commit(WriteBatch::new().put(b"k3".to_vec(), b"v3".to_vec()));
        assert!(matches!(fast, Err(OmError::Wedged(_))), "{fast:?}");
        assert_eq!(b.counters()["backend.wedged"], 1);

        // Unwedge: truncate the torn tail (k2's frame reached the file
        // before the sync failed), verify, resume.
        let torn = b.unwedge().unwrap();
        assert!(torn > 0, "k2's unsynced frame is the torn tail");
        assert!(!b.is_wedged());
        assert_eq!(b.unwedge().unwrap(), 0, "unwedge is idempotent");
        b.commit(WriteBatch::new().put(b"k4".to_vec(), b"v4".to_vec())).unwrap();
        assert_eq!(b.get(b"k4"), Some(b"v4".to_vec()));
        assert_eq!(b.counters()["backend.unwedges"], 1);
        drop(b);

        // A cold reopen over the repaired directory agrees: exactly the
        // acknowledged commits, nothing torn, the sequence gap of the
        // dropped commit tolerated.
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(b.get(b"k2"), None);
        assert_eq!(b.get(b"k4"), Some(b"v4".to_vec()));
        assert_eq!(b.counters()["backend.torn_tail_bytes"], 0, "no torn tail left behind");
    }

    #[test]
    fn options_map_from_durable_config() {
        let durable = DurableOptions {
            sync_commits: true,
            group_commit: GroupCommitPolicy::Fixed(150),
            snapshot_mode: SnapshotMode::Full,
            compact_max_deltas: 5,
            compact_ratio_pct: 50,
            recovery_threads: 2,
        };
        let opts = FileBackendOptions::from_durable(4, &durable);
        assert!(opts.sync_commits);
        assert_eq!(opts.group_commit, GroupCommitPolicy::Fixed(150));
        assert_eq!(opts.snapshot_mode, SnapshotMode::Full);
        assert_eq!(opts.compact_max_deltas, 5);
        assert_eq!(opts.compact_ratio_pct, 50);
        assert_eq!(opts.recovery_threads, 2);
        let legacy = FileBackendOptions::from_durable(4, &DurableOptions::legacy());
        assert_eq!(legacy.group_commit, GroupCommitPolicy::Off);
    }
}
