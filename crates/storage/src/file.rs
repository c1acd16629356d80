//! The file-backed durable backend: a write-ahead-log + snapshot store
//! whose state survives a full process crash.
//!
//! This is the only [`StateBackend`] whose contents outlive the process:
//! every commit — single-key writes included — is written to the WAL
//! as **one framed, checksummed batch** before it becomes visible, so recovery can never observe half of a multi-key
//! commit. The WAL is one [`SegmentLog`] (`crate::segment_log`, shared
//! with `om-log`'s persistent topic), built around **group commit**:
//! committers stage their frame and park on a commit barrier; a single
//! cohort leader performs ONE write (+`fsync` under
//! [`FileBackendOptions::sync_commits`]) for everyone staged, so N
//! concurrent committers share one sync instead of paying N.
//!
//! Snapshots bound WAL replay. The first snapshot writes a full base;
//! after that only the keys dirtied since the previous snapshot are
//! written as a `delta-<seq>` file chained from the base, and
//! compaction folds a long or heavy chain back into a fresh base —
//! snapshot cost scales with churn, not state size.
//!
//! On-disk layout under the store's directory (formats are specified
//! byte-for-byte in `docs/DURABILITY.md`):
//!
//! ```text
//! <dir>/wal/wal-<first_seq>.log     framed commit batches, zero-padded
//!                                  to segment_bytes
//! <dir>/snap/snap-<seq>.snap       full state as of commit <seq>
//! <dir>/snap/delta-<seq>.delta     keys dirtied since the previous
//!                                  snapshot file, chained on the base
//! ```
//!
//! Bases and deltas share one **sectioned format**
//! (`OMSNAP02`/`OMDELT02`): a section table in the header maps key-sorted
//! regions of the file. A writer writes one section holding every entry
//! in key order; a reader takes any number of sections (older builds
//! wrote one per in-memory shard) and loads them, in file order, into the
//! one in-memory image.
//!
//! Recovery ([`FileBackend::open`] over an existing directory) loads the
//! newest base snapshot, applies the deltas chained above it in order,
//! and replays every WAL frame with a higher commit sequence. The log
//! **zeroes a torn tail** of its last segment — from the point where the
//! previous process died mid-append — landing the store exactly on the
//! last fully-committed batch; a torn frame in any non-final segment is
//! real corruption and refuses to open.
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

use crate::backend::{StateBackend, StateSession, WriteBatch, WriteOp};
use crate::image::Image;
use crate::segment_log::{self, CommitGroupStats, Held, LogConfig, SegmentLog};
use crate::vfs::{real_vfs, write_all_retry, Vfs};
use om_common::checksum::{parse_frame, push_frame};
use om_common::config::{BackendKind, DurableOptions};
use om_common::{OmError, OmResult};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs of a [`FileBackend`].
#[derive(Debug, Clone, Copy)]
pub struct FileBackendOptions {
    /// Commits between snapshots (`0` = never snapshot; the WAL then
    /// grows unboundedly — useful only for tests that inspect the raw
    /// log).
    pub snapshot_every: u64,
    /// WAL segment size in bytes: each segment is created holding this
    /// many zeros and written in place, and a commit that reaches its
    /// end starts a new one.
    pub segment_bytes: u64,
    /// `fsync` every commit cohort before acknowledging it. Off by
    /// default: a commit is pushed to the operating system before it is
    /// acknowledged, which survives a **process** crash (the durability
    /// this store claims); syncing additionally survives kernel/power
    /// failure at a latency cost that group commit amortizes.
    pub sync_commits: bool,
    /// Fold the delta chain into a fresh base once it holds this many
    /// deltas.
    pub compact_max_deltas: u64,
    /// Fold the chain once cumulative delta bytes exceed this
    /// percentage of the base size.
    pub compact_ratio_pct: u64,
}

impl Default for FileBackendOptions {
    fn default() -> Self {
        Self {
            snapshot_every: 1_024,
            segment_bytes: 1 << 20,
            sync_commits: false,
            compact_max_deltas: 16,
            compact_ratio_pct: 100,
        }
    }
}

impl FileBackendOptions {
    /// Maps the run-config level [`DurableOptions`] onto backend
    /// options — the seam `RunConfig`/`PlatformSpec` choose whether
    /// commits are fsynced through. The backend keeps one in-memory image,
    /// so `_shards` is ignored: the argument stays only because
    /// marketbench's traced cell passes it.
    pub fn from_durable(_shards: usize, durable: &DurableOptions) -> Self {
        Self {
            sync_commits: durable.sync_commits,
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
fn decode_op(payload: &[u8], at: &mut usize) -> Option<(Vec<u8>, Option<Vec<u8>>)> {
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

fn decode_batch(payload: &[u8]) -> Option<(u64, Vec<WriteOp>)> {
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
fn decode_op_payload(payload: &[u8]) -> Option<(Vec<u8>, Option<Vec<u8>>)> {
    let mut at = 0usize;
    let op = decode_op(payload, &mut at)?;
    (at == payload.len()).then_some(op)
}

// -- snapshot-family headers -------------------------------------------------

/// Magic payload prefix of a base snapshot header.
const SNAP_MAGIC: &[u8; 8] = b"OMSNAP02";
/// Magic payload prefix of a delta snapshot header.
const DELTA_MAGIC: &[u8; 8] = b"OMDELT02";

/// One section of a snapshot-family file: `n` key-sorted entry frames
/// occupying the absolute byte range `[off, off+len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Section {
    off: u64,
    len: u64,
    n: u64,
}

/// The parsed header frame of a base or delta file.
#[derive(Debug, Clone)]
struct SnapHeader {
    /// Base snapshot (`OMSNAP02`) vs delta (`OMDELT02`).
    is_base: bool,
    /// Commit sequence the file covers up to.
    seq: u64,
    /// The section table; section counts sum to the header's entry
    /// count.
    sections: Vec<Section>,
}

/// Byte length of a header frame with `parts` sections — the body
/// therefore starts at this absolute offset.
fn header_len(parts: usize) -> usize {
    // frame(8) ++ magic(8) ++ seq(8) ++ n_entries(8) ++ parts(4) ++
    // parts × (off(8) ++ len(8) ++ n(8))
    8 + 28 + parts * 24
}

/// Parses the header frame at the start of a snapshot-family file.
/// `None` on any structural damage.
fn parse_snap_header(bytes: &[u8]) -> Option<SnapHeader> {
    let (payload, _) = parse_frame(bytes, 0).ok()??;
    if payload.len() < 28 {
        return None;
    }
    let magic: &[u8; 8] = payload[..8].try_into().ok()?;
    let is_base = match magic {
        m if m == SNAP_MAGIC => true,
        m if m == DELTA_MAGIC => false,
        _ => return None,
    };
    let seq = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let n_entries = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let parts = u32::from_le_bytes(payload[24..28].try_into().ok()?) as usize;
    if parts == 0 || payload.len() != 28 + parts * 24 {
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
    Some(SnapHeader {
        is_base,
        seq,
        sections,
    })
}

/// One section's entries in key order (`None` value = tombstone; bases
/// hold only puts).
type PartEntries = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// Builds a complete snapshot-family file — header frame with a section
/// table, then one key-sorted entry section per element of `parts` (the
/// backend writes one). `parts[i]` must already be key-sorted; base files
/// encode `key ++ value` entries (values must be `Some`), deltas the
/// tagged op encoding (tombstones allowed).
fn build_snapshot_file(is_base: bool, seq: u64, parts: &[PartEntries]) -> Vec<u8> {
    let body_start = header_len(parts.len()) as u64;
    let mut body = Vec::new();
    let mut sections = Vec::with_capacity(parts.len());
    let mut n_entries = 0u64;
    let mut abs = body_start;
    for part in parts {
        let off = abs;
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
    }
    let mut header = Vec::with_capacity(28 + parts.len() * 24);
    header.extend_from_slice(if is_base { SNAP_MAGIC } else { DELTA_MAGIC });
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
    out
}

// -- the snapshot chain -----------------------------------------------------

/// Where the snapshot chain currently stands: which full base exists,
/// how much delta weight hangs off it, and which keys changed since the
/// last snapshot file (what the next delta writes). Rebuilt on recovery
/// from the files themselves; consulted at snapshot time for the
/// delta-vs-compaction decision.
#[derive(Debug, Default)]
struct ChainState {
    /// Commit seq of the newest full base snapshot (0 = none yet).
    base_seq: u64,
    /// Byte size of that base (the compaction-ratio denominator).
    base_bytes: u64,
    /// Deltas currently chained on the base.
    deltas: u64,
    /// Total bytes across those deltas.
    delta_bytes: u64,
    /// Keys written since the last snapshot file (base or delta).
    dirty: HashSet<Vec<u8>>,
}

impl ChainState {
    /// Whether writing one more delta of `delta_len` bytes should fold
    /// the chain into a fresh full base instead: the chain is longer
    /// than `max_deltas`, or its cumulative bytes exceed
    /// `ratio_pct` percent of the base.
    fn compaction_due(&self, delta_len: u64, max_deltas: u64, ratio_pct: u64) -> bool {
        // u128 arithmetic: `ratio_pct` is config-supplied and u64::MAX
        // is a legitimate "never compact" — the products must not wrap.
        self.deltas.saturating_add(1) > max_deltas
            || (self.delta_bytes + delta_len) as u128 * 100
                > self.base_bytes.max(1) as u128 * ratio_pct as u128
    }

    /// Resets the chain onto a freshly-written base, which covers every
    /// dirty key.
    fn rebase(&mut self, seq: u64, base_bytes: u64) {
        *self = ChainState {
            base_seq: seq,
            base_bytes,
            ..ChainState::default()
        };
    }

    /// Records one more delta chained on the current base, which covers
    /// every dirty key.
    fn chain_delta(&mut self, seq: u64, delta_len: u64) {
        debug_assert!(seq > self.base_seq);
        self.deltas += 1;
        self.delta_bytes += delta_len;
        self.dirty.clear();
    }

    /// Applies one durable batch to `image`, marking its keys dirty.
    fn apply(&mut self, image: &Image, ops: Vec<WriteOp>) {
        self.dirty.extend(ops.iter().map(|op| op.key.clone()));
        image.apply(ops);
    }
}

// -- the backend ------------------------------------------------------------

/// Loads one base or delta file, read from `path` as `bytes`, into
/// `image`: every section in file order, as one batch.
fn load_chain_file(
    image: &Image,
    path: &Path,
    bytes: &[u8],
    expect_base: bool,
    expect_seq: u64,
) -> OmResult<()> {
    let corrupt = || OmError::Internal(format!("file backend snapshot {path:?} is corrupt"));
    let header = parse_snap_header(bytes).ok_or_else(corrupt)?;
    if header.is_base != expect_base || header.seq != expect_seq {
        return Err(corrupt());
    }
    for s in &header.sections {
        if s.off < header_len(header.sections.len()) as u64 || s.off + s.len > bytes.len() as u64 {
            return Err(corrupt());
        }
    }
    let mut ops: Vec<WriteOp> = Vec::new();
    for section in &header.sections {
        let slice = &bytes[section.off as usize..(section.off + section.len) as usize];
        let (mut at, first) = (0usize, ops.len());
        while let Some((payload, next_at)) = parse_frame(slice, at).map_err(|_| corrupt())? {
            let (key, value) = if header.is_base {
                decode_snapshot_entry(payload).map(|(k, v)| (k, Some(v)))
            } else {
                decode_op_payload(payload)
            }
            .ok_or_else(corrupt)?;
            // Sections are written strictly key-sorted: anything else is
            // corruption.
            if ops[first..].last().is_some_and(|prev| prev.key >= key) {
                return Err(corrupt());
            }
            ops.push(WriteOp { key, value });
            at = next_at;
        }
        // A zero length field ends the frames early: the section must
        // still be consumed whole.
        if (ops.len() - first) as u64 != section.n || at != slice.len() {
            return Err(corrupt());
        }
    }
    image.apply(ops);
    Ok(())
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
    /// The in-memory image (the read path), rebuilt from snapshots + WAL
    /// on open.
    image: Image,
    /// The WAL: `wal/wal-<first_seq>.log` segments of commit batches,
    /// one record number per commit sequence.
    log: SegmentLog<Vec<WriteOp>>,
    /// The snapshot chain the WAL tail builds on, with the keys dirtied
    /// since its last file. Locked only while the log is held, so never
    /// contended.
    chain: Mutex<ChainState>,
    /// Commit seq of the last snapshot attempt (or of the open): the
    /// snapshot trigger counts the commits staged above it. Read and
    /// written only while the WAL is held, so `Relaxed` suffices: the
    /// log's locks order every access.
    snapshot_mark: AtomicU64,
    /// Exclusive OS lock on `<dir>/LOCK`, held for the store's lifetime
    /// so two live processes can never interleave WAL appends. The OS
    /// releases it when the process dies (kill -9 included), so a stale
    /// lock can never brick recovery.
    _lock: File,
    /// Remove the directory on drop (scratch stores only).
    owns_dir: bool,
    commits: AtomicU64,
    snapshots: AtomicU64,
    deltas_written: AtomicU64,
    snapshot_delta_bytes: AtomicU64,
    compactions: AtomicU64,
    recovered_commits: u64,
}

fn io_err(dir: &Path, e: std::io::Error) -> OmError {
    OmError::Internal(format!("file backend {dir:?}: {e}"))
}

/// Loads the newest base snapshot plus the deltas chained above it into
/// `image`, dropping deltas a newer base supersedes; returns the chain
/// and the last commit sequence it covers.
fn load_snapshot_chain(dir: &Path, vfs: &dyn Vfs, image: &Image) -> OmResult<(ChainState, u64)> {
    let snap = dir.join("snap");
    let list = |prefix, ext| segment_log::list(vfs, &snap, prefix, ext).map_err(|e| io_err(dir, e));
    let bases = list("snap-", ".snap")?;
    let deltas = list("delta-", ".delta")?;
    let load = |path: &Path, is_base, seq| -> OmResult<u64> {
        let bytes = vfs.read(path).map_err(|e| io_err(dir, e))?;
        load_chain_file(image, path, &bytes, is_base, seq)?;
        Ok(bytes.len() as u64)
    };
    let mut chain = ChainState::default();
    if let Some((seq, path)) = bases.last() {
        chain.rebase(*seq, load(path, true, *seq)?);
    }
    let mut covered = chain.base_seq;
    for (seq, path) in &deltas {
        if *seq <= chain.base_seq {
            // Superseded by the base; leftover of a crash between
            // rename and prune.
            let _ = vfs.remove_file(path);
            continue;
        }
        chain.chain_delta(*seq, load(path, false, *seq)?);
        covered = *seq;
    }
    Ok((chain, covered))
}

impl FileBackend {
    /// Opens (or initialises) a durable store in `dir`, recovering any
    /// state a previous process left there: newest base snapshot +
    /// delta chain + WAL replay + torn-tail repair. The directory
    /// is created if absent and is **kept** on drop.
    pub fn open(dir: impl AsRef<Path>, options: FileBackendOptions) -> OmResult<Self> {
        Self::build(dir.as_ref().to_path_buf(), options, false, real_vfs())
    }

    /// [`open`](Self::open) with an explicit [`Vfs`] — the fault
    /// injection seam: the torture harness passes a
    /// [`crate::vfs::FaultVfs`] here and every byte the store writes,
    /// syncs, renames, removes or replays flows through it.
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
    pub fn scratch() -> OmResult<Self> {
        Self::scratch_with(FileBackendOptions::default())
    }

    /// [`scratch`](Self::scratch) with explicit options (benches and
    /// tests pick the sync, snapshot and compaction knobs).
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

    /// Recovery: the snapshot chain, then every WAL frame with a higher
    /// commit sequence. Replayed keys are marked dirty (they changed
    /// since the last snapshot file).
    fn build(
        dir: PathBuf,
        options: FileBackendOptions,
        owns_dir: bool,
        vfs: Arc<dyn Vfs>,
    ) -> OmResult<Self> {
        fs::create_dir_all(dir.join("snap")).map_err(|e| io_err(&dir, e))?;
        let lock = om_common::dirlock::lock_dir(&dir)?;
        let image = Image::default();
        let (mut chain, covered) = load_snapshot_chain(&dir, &*vfs, &image)?;
        let (mut last, mut recovered) = (covered, 0);
        let wal = LogConfig {
            kind: "file backend",
            dir: dir.join("wal"),
            prefix: "wal-",
            segment_bytes: options.segment_bytes,
            sync: options.sync_commits,
        };
        let log = SegmentLog::open(wal, vfs.clone(), covered + 1, |frame| {
            let (seq, ops) = decode_batch(frame.payload).ok_or_else(|| {
                OmError::Internal(format!(
                    "file backend {dir:?}: WAL segment {:?} holds an undecodable batch at \
                     byte {}",
                    frame.path, frame.at
                ))
            })?;
            if seq > last {
                chain.apply(&image, ops);
                last = seq;
                recovered += 1;
            }
            Ok(seq)
        })?;
        Ok(Self {
            dir,
            options,
            vfs,
            image,
            log,
            chain: Mutex::new(chain),
            snapshot_mark: AtomicU64::new(last),
            _lock: lock,
            owns_dir,
            commits: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            deltas_written: AtomicU64::new(0),
            snapshot_delta_bytes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            recovered_commits: recovered,
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn io_err(&self, e: std::io::Error) -> OmError {
        io_err(&self.dir, e)
    }

    /// Lists `<sub>/<prefix><seq><ext>` files, ascending by sequence.
    fn sorted_files(&self, sub: &str, prefix: &str, ext: &str) -> OmResult<Vec<(u64, PathBuf)>> {
        segment_log::list(&*self.vfs, &self.dir.join(sub), prefix, ext).map_err(|e| self.io_err(e))
    }

    // -- commit path -------------------------------------------------------

    /// The one write path: stage the batch on the WAL (cheap), then park
    /// until a cohort leader has made it durable and applied it.
    fn commit_durable(&self, ops: &[WriteOp]) -> OmResult<usize> {
        let ticket = self.log.stage(|stage| {
            let batch = encode_batch(stage.next(), ops);
            Ok(stage.push(&batch, ops.to_vec()))
        })?;
        self.log
            .wait(ticket, &|ops| self.apply(ops), &|held| self.maintain(held))?;
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(ops.len())
    }

    /// Applies one durable batch; the log calls it while held.
    fn apply(&self, ops: Vec<WriteOp>) -> OmResult<()> {
        self.chain.lock().apply(&self.image, ops);
        Ok(())
    }

    /// Post-cohort maintenance, run by the leader holding the WAL: the
    /// due snapshot, else a size-triggered segment roll. The cohort is
    /// already durable and visible, so the log counts a failure here
    /// (`backend.maintenance_errors`) instead of failing the commit, and
    /// a later commit retries it.
    fn maintain(&self, held: &mut Held<'_, Vec<WriteOp>>) -> OmResult<()> {
        let since = held.next().saturating_sub(1 + self.snapshot_mark.load(Ordering::Relaxed));
        if self.options.snapshot_every > 0 && since >= self.options.snapshot_every {
            self.write_snapshot(held)
        } else {
            held.roll_if_due()
        }
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

    /// Writes a snapshot — a delta of the keys dirtied since the last
    /// snapshot file, or a full base when there is none yet or the
    /// chain is due for compaction — then rolls to a fresh WAL segment
    /// and prunes the covered ones. Drains the held WAL first, so it
    /// runs at a commit boundary: every staged batch written and
    /// applied. The dirty keys are cleared only once their file is
    /// durably on disk: a failed attempt leaves them for the next one,
    /// since losing them would make a later delta omit their changes
    /// while the WAL prune deletes the only durable copy.
    fn write_snapshot(&self, held: &mut Held<'_, Vec<WriteOp>>) -> OmResult<()> {
        held.drain()?;
        let seq = held.next() - 1;
        let mut chain = self.chain.lock();
        if chain.base_seq > 0 {
            if chain.dirty.is_empty() {
                // Nothing written since the last snapshot file.
                self.snapshot_mark.store(seq, Ordering::Relaxed);
                return Ok(());
            }
            // The delta: the dirtied keys in key order, each a put of the
            // live value or a tombstone if the key no longer exists.
            let mut keys: Vec<&[u8]> = chain.dirty.iter().map(Vec::as_slice).collect();
            keys.sort_unstable();
            let values = self.image.get_many(&keys);
            let part: PartEntries = keys.iter().map(|k| k.to_vec()).zip(values).collect();
            let out = build_snapshot_file(false, seq, &[part]);
            if chain.compaction_due(
                out.len() as u64,
                self.options.compact_max_deltas,
                self.options.compact_ratio_pct,
            ) {
                // Chain too long/heavy: fold into a fresh base instead
                // (the full-base write below).
                self.compactions.fetch_add(1, Ordering::Relaxed);
            } else {
                let tmp = self.dir.join("snap").join(format!("delta-{seq}.tmp"));
                let fin = self.dir.join("snap").join(format!("delta-{seq}.delta"));
                let written = self.persist_snapshot_file(&tmp, &fin, &out)?;
                chain.chain_delta(seq, written);
                drop(chain);
                self.deltas_written.fetch_add(1, Ordering::Relaxed);
                self.snapshot_delta_bytes.fetch_add(written, Ordering::Relaxed);
                self.snapshot_mark.store(seq, Ordering::Relaxed);
                held.roll()?;
                return self.prune_wal(seq);
            }
        }

        // Full base: the whole live state, one key-sorted section.
        let part: PartEntries = self
            .image
            .scan_prefix(b"")
            .into_iter()
            .map(|(k, v)| (k, Some(v)))
            .collect();
        let out = build_snapshot_file(true, seq, &[part]);
        let tmp = self.dir.join("snap").join(format!("snap-{seq}.tmp"));
        let fin = self.dir.join("snap").join(format!("snap-{seq}.snap"));
        let written = self.persist_snapshot_file(&tmp, &fin, &out)?;
        chain.rebase(seq, written);
        drop(chain);
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_mark.store(seq, Ordering::Relaxed);

        // Everything at or below `seq` is covered by the base: prune
        // older bases, every delta (the base subsumes the chain), and
        // covered WAL segments.
        for (s, path) in self.sorted_files("snap", "snap-", ".snap")? {
            if s < seq {
                let _ = self.vfs.remove_file(&path);
            }
        }
        for (s, path) in self.sorted_files("snap", "delta-", ".delta")? {
            if s <= seq {
                let _ = self.vfs.remove_file(&path);
            }
        }
        held.roll()?;
        self.prune_wal(seq)
    }

    /// Forces a snapshot (a delta, or a base when none exists yet or
    /// compaction is due) + WAL prune right now (maintenance hook; the
    /// commit path does this automatically every
    /// [`FileBackendOptions::snapshot_every`] commits). Fails fast with
    /// [`OmError::Wedged`] on a wedged store: the staged frames there
    /// were never acknowledged and must not reach the WAL or a snapshot.
    pub fn snapshot_now(&self) -> OmResult<()> {
        self.log
            .hold(&|ops| self.apply(ops), |held| self.write_snapshot(held))
    }

    /// Group-commit statistics of this store's barrier.
    pub fn group_stats(&self) -> CommitGroupStats {
        self.log.stats().group
    }

    /// Whether a WAL write failure has wedged this store (every commit
    /// fails fast with [`OmError::Wedged`] until
    /// [`unwedge`](Self::unwedge) repairs it).
    pub fn is_wedged(&self) -> bool {
        self.log.is_wedged()
    }

    /// Repairs a wedged store in place ([`SegmentLog::unwedge`]): the
    /// torn tail is cut back to the last acknowledged commit, whose
    /// frames must all still decode, and commits flow again. Returns
    /// the torn bytes dropped (`0` if the store was not wedged — the
    /// call is an idempotent no-op then).
    ///
    /// The staged commits of the failed cohort (and anything staged
    /// behind it) are discarded: their committers were never
    /// acknowledged and see the failure, and the in-memory image never
    /// applied them, so disk and memory land on exactly the last acked
    /// commit. Commit sequences resume right after it.
    ///
    /// If the repair itself fails (the device is still refusing IO, or
    /// the acknowledged prefix is damaged) the store stays wedged and
    /// the error is returned; the call can be retried.
    pub fn unwedge(&self) -> OmResult<u64> {
        self.log.unwedge(|payload| decode_batch(payload).is_some())
    }
}

fn decode_snapshot_entry(payload: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
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
        self.image.get(key)
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
        self.image.get_many(keys)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.image.scan_prefix(prefix)
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
        self.image.len()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let log = self.log.stats();
        let mut out = BTreeMap::new();
        out.insert("backend.commits".into(), self.commits.load(Ordering::Relaxed));
        out.insert("backend.wal_bytes".into(), log.appended_bytes);
        out.insert("backend.snapshots".into(), self.snapshots.load(Ordering::Relaxed));
        out.insert("backend.deltas".into(), self.deltas_written.load(Ordering::Relaxed));
        out.insert(
            "backend.snapshot_delta_bytes".into(),
            self.snapshot_delta_bytes.load(Ordering::Relaxed),
        );
        out.insert("backend.compactions".into(), self.compactions.load(Ordering::Relaxed));
        out.insert("backend.group_flushes".into(), log.group.flushes);
        out.insert("backend.max_commit_cohort".into(), log.group.max_cohort);
        // Mean commits amortized per sync: the headline group-commit
        // number (0 before any commit).
        out.insert("backend.commits_per_sync".into(), log.group.commits_per_flush());
        out.insert("backend.segments_rolled".into(), log.segments_rolled);
        out.insert("backend.recovered_commits".into(), self.recovered_commits);
        out.insert("backend.torn_tail_bytes".into(), log.torn_tail_bytes);
        out.insert("backend.wedged".into(), u64::from(self.is_wedged()));
        out.insert("backend.unwedges".into(), log.unwedges);
        out.insert("backend.maintenance_errors".into(), log.maintenance_errors);
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
        // Zero the last bytes of the single WAL segment's written
        // region: a torn final append.
        let seg = fs::read_dir(dir.join("wal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        let (mut end, len) = (0, bytes.len());
        while let Ok(Some((_, next))) = parse_frame(&bytes, end) {
            end = next;
        }
        bytes[end - 3..end].fill(0);
        fs::write(&seg, &bytes).unwrap();

        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"k1"), Some(b"v1".to_vec()), "first commit intact");
        assert_eq!(b.get(b"k2"), None, "torn commit discarded");
        assert!(b.counters()["backend.torn_tail_bytes"] > 0);
        // The torn tail was zeroed on disk and the segment kept its
        // size: a further reopen is clean and the next commit lands
        // after the valid prefix.
        b.put(b"k3", b"v3");
        drop(b);
        assert_eq!(fs::read(&seg).unwrap().len(), len);
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(b.get(b"k3"), Some(b"v3".to_vec()));
        assert_eq!(b.counters()["backend.torn_tail_bytes"], 0);
    }

    /// A WAL tail that reads back as zeros (a pre-allocated segment's
    /// padding, or what XFS or ext4 `data=writeback` can show after a
    /// crash) is the end of the log, not an undecodable empty batch.
    #[test]
    fn a_wal_tail_of_zeros_is_the_end_of_the_log() {
        use std::io::Write as _;
        let dir = scratch_path("zero-tail");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions::default();
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            for i in 0..5u8 {
                b.put(&[b'k', i], b"v");
            }
        }
        let last = fs::read_dir(dir.join("wal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .max()
            .unwrap();
        let mut f = fs::OpenOptions::new().append(true).open(&last).unwrap();
        f.write_all(&[0; 4_096]).unwrap();
        drop(f);
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.len(), 5);
        assert_eq!(
            b.counters()["backend.torn_tail_bytes"],
            0,
            "zeros are not torn bytes"
        );
        b.put(b"k5", b"v");
        drop(b);
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn snapshots_compact_wal_and_survive_reopen() {
        let dir = scratch_path("snap");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 4,
            ..FileBackendOptions::default()
        };
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            for i in 0..10u8 {
                b.put(&[b'k', i], &[i]);
            }
            assert!(b.counters()["backend.snapshots"] >= 2);
        }
        // Only the newest base and the short post-snapshot WAL tail
        // remain on disk.
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
        let dir = scratch_path("del");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions::default();
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            b.put(b"gone", b"x");
            b.put(b"kept", b"y");
            b.delete(b"gone");
            b.snapshot_now().unwrap();
            b.put(b"late", b"z");
        }
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"gone"), None);
        assert_eq!(b.get(b"kept"), Some(b"y".to_vec()));
        assert_eq!(b.get(b"late"), Some(b"z".to_vec()));
    }

    #[test]
    fn scratch_backend_cleans_up_its_directory() {
        let b = FileBackend::scratch().unwrap();
        let dir = b.dir().to_path_buf();
        b.put(b"k", b"v");
        assert!(dir.exists());
        drop(b);
        assert!(!dir.exists(), "scratch dir must be removed on drop");
    }

    #[test]
    fn concurrent_multi_reads_never_observe_torn_batches() {
        let b = std::sync::Arc::new(FileBackend::scratch().unwrap());
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
            sync_commits: true,
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
        // Sync 1 is the first segment's zero fill, sync 2 k1's cohort.
        let vfs = FaultVfs::new(42).fail_nth_sync(3);
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
        // acknowledged commits, nothing torn.
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(b.get(b"k2"), None);
        assert_eq!(b.get(b"k4"), Some(b"v4".to_vec()));
        assert_eq!(b.counters()["backend.torn_tail_bytes"], 0, "no torn tail left behind");
    }

    #[test]
    fn unwedge_resumes_the_sequence_at_the_last_acknowledged_commit() {
        use crate::vfs::FaultVfs;
        let dir = scratch_path("wedge-seq");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            sync_commits: true,
            snapshot_every: 0,
            ..FileBackendOptions::default()
        };
        // Sync 1 is the first segment's zero fill.
        let vfs = FaultVfs::new(44).fail_nth_sync(4);
        let b = FileBackend::open_with_vfs(&dir, opts, Arc::new(vfs)).unwrap();
        b.put(b"k1", b"v1");
        b.put(b"k2", b"v2");
        assert!(b.try_put(b"k3", b"v3").is_err(), "commit 3's fsync fails");
        b.unwedge().unwrap();
        // Commit 3 was dropped, so the next commit takes its sequence:
        // the base it snapshots to is named after commit 3.
        b.put(b"k4", b"v4");
        b.snapshot_now().unwrap();
        assert_eq!(snap_files(&dir), ["snap-3.snap"]);
        drop(b);
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"k3"), None);
        assert_eq!(b.get(b"k4"), Some(b"v4".to_vec()));
    }

    #[test]
    fn recovery_accepts_a_wal_sequence_gap() {
        // An unwedge by an older build skipped the dropped commit's
        // sequence instead of reusing it.
        let dir = scratch_path("seq-gap");
        let _guard = DirGuard(dir.clone());
        fs::create_dir_all(dir.join("wal")).unwrap();
        let mut wal = Vec::new();
        for (seq, key) in [(1u64, b"a"), (3, b"b")] {
            let op = WriteOp {
                key: key.to_vec(),
                value: Some(b"v".to_vec()),
            };
            push_frame(&mut wal, &encode_batch(seq, &[op]));
        }
        fs::write(dir.join("wal").join("wal-1.log"), &wal).unwrap();
        let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(b.len(), 2, "both commits replay");
        assert_eq!(b.counters()["backend.recovered_commits"], 2);
        b.put(b"c", b"v");
        b.snapshot_now().unwrap();
        assert_eq!(snap_files(&dir), ["snap-4.snap"], "sequences resume past the gap");
    }

    #[test]
    fn snapshot_now_on_a_wedged_store_fails_fast() {
        use crate::vfs::FaultVfs;
        let dir = scratch_path("wedge-snap");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            sync_commits: true,
            snapshot_every: 0,
            ..FileBackendOptions::default()
        };
        // Sync 1 is the first segment's zero fill.
        let vfs = FaultVfs::new(43).fail_nth_sync(3);
        let b = FileBackend::open_with_vfs(&dir, opts, Arc::new(vfs)).unwrap();
        b.put(b"k1", b"v1");
        let err = b.commit(WriteBatch::new().put(b"k2".to_vec(), b"v2".to_vec()));
        assert!(matches!(err, Err(OmError::Wedged(_))), "{err:?}");
        // A snapshot over the wedged store would roll past k2's failed
        // frame and leave it behind for the next open to replay.
        let snap = b.snapshot_now();
        assert!(matches!(snap, Err(OmError::Wedged(_))), "{snap:?}");
        assert_eq!(b.counters()["backend.snapshots"], 0);
        b.unwedge().unwrap();
        assert_eq!(b.scan_prefix(b""), vec![(b"k1".to_vec(), b"v1".to_vec())]);
        b.snapshot_now().unwrap();
        drop(b);
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(
            b.scan_prefix(b""),
            vec![(b"k1".to_vec(), b"v1".to_vec())],
            "a cold reopen holds exactly the acknowledged prefix"
        );
    }

    #[test]
    fn a_lone_writer_pays_one_sync_per_commit() {
        let dir = scratch_path("lone");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            sync_commits: true,
            ..FileBackendOptions::default()
        };
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            for i in 0..5u8 {
                b.put(&[b'k', i], &[i]);
            }
            let counters = b.counters();
            assert_eq!(counters["backend.group_flushes"], 5, "nothing to batch with");
            assert_eq!(counters["backend.max_commit_cohort"], 1);
            assert_eq!(counters["backend.commits_per_sync"], 1);
        }
        // After recovery the first commit is still a cohort of one, not
        // the recovered history plus one.
        let b = FileBackend::open(&dir, opts).unwrap();
        b.put(b"after", b"reopen");
        let counters = b.counters();
        assert_eq!(counters["backend.group_flushes"], 1);
        assert_eq!(counters["backend.max_commit_cohort"], 1);
    }

    /// Names of the files in `<dir>/snap`, sorted.
    fn snap_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir.join("snap"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn snapshots_with_nothing_new_write_no_file() {
        let dir = scratch_path("noop-snap");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 0,
            compact_max_deltas: 100,
            compact_ratio_pct: u64::MAX,
            ..FileBackendOptions::default()
        };
        let b = FileBackend::open(&dir, opts).unwrap();
        b.put(b"k", b"1");
        b.snapshot_now().unwrap();
        b.snapshot_now().unwrap();
        assert_eq!(snap_files(&dir), ["snap-1.snap"], "no commit since the base");
        b.put(b"k", b"2");
        b.snapshot_now().unwrap();
        b.snapshot_now().unwrap();
        assert_eq!(
            snap_files(&dir),
            ["delta-2.delta", "snap-1.snap"],
            "no commit since the delta"
        );
        let counters = b.counters();
        assert_eq!((counters["backend.snapshots"], counters["backend.deltas"]), (1, 1));
        drop(b);
        assert_eq!(FileBackend::open(&dir, opts).unwrap().get(b"k"), Some(b"2".to_vec()));
    }

    #[test]
    fn a_delta_superseded_by_a_newer_base_is_dropped_on_open() {
        let dir = scratch_path("stale-delta");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 0,
            compact_max_deltas: 1,
            compact_ratio_pct: u64::MAX,
            ..FileBackendOptions::default()
        };
        let stale = dir.join("snap").join("delta-2.delta");
        let stale_bytes = {
            let b = FileBackend::open(&dir, opts).unwrap();
            b.put(b"k", b"1");
            b.snapshot_now().unwrap(); // base at 1
            b.put(b"k", b"2");
            b.snapshot_now().unwrap(); // delta at 2
            let bytes = fs::read(&stale).unwrap();
            b.put(b"k", b"3");
            b.snapshot_now().unwrap(); // compaction: base at 3
            assert!(!stale.exists(), "compaction prunes the chain it folded");
            bytes
        };
        // A crash between the base's rename and the prune leaves the old
        // delta behind. Replaying it over the newer base would roll `k`
        // back to 2.
        fs::write(&stale, stale_bytes).unwrap();
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.get(b"k"), Some(b"3".to_vec()));
        assert!(!stale.exists(), "the superseded delta is removed");
    }

    #[test]
    fn unfinished_snapshot_temp_files_are_discarded_on_open() {
        let dir = scratch_path("tmp-snap");
        let _guard = DirGuard(dir.clone());
        {
            let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
            b.put(b"k", b"v");
            b.snapshot_now().unwrap();
        }
        // A process that died mid-snapshot never renamed its output.
        fs::write(dir.join("snap").join("snap-7.tmp"), b"half a base").unwrap();
        fs::write(dir.join("snap").join("delta-7.tmp"), b"half a delta").unwrap();
        let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(b.get(b"k"), Some(b"v".to_vec()));
        assert_eq!(snap_files(&dir), ["snap-1.snap"]);
    }

    #[test]
    fn index_sidecars_left_by_older_versions_do_not_affect_recovery() {
        let dir = scratch_path("old-idx");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 0,
            compact_max_deltas: 100,
            compact_ratio_pct: u64::MAX,
            ..FileBackendOptions::default()
        };
        {
            let b = FileBackend::open(&dir, opts).unwrap();
            for i in 0..16u8 {
                b.put(&[b'k', i], &[i]);
            }
            b.snapshot_now().unwrap(); // base at 16
            b.delete(&[b'k', 0]);
            b.snapshot_now().unwrap(); // delta at 17
        }
        // Earlier builds wrote an `.idx` sidecar beside every chain file;
        // this one never reads them, damaged or not.
        fs::write(dir.join("snap").join("snap-16.idx"), b"OMDIDX01 garbage").unwrap();
        fs::write(dir.join("snap").join("delta-17.idx"), []).unwrap();
        let b = FileBackend::open(&dir, opts).unwrap();
        assert_eq!(b.len(), 15);
        assert_eq!(b.get(&[b'k', 0]), None);
        assert_eq!(b.get(&[b'k', 15]), Some(vec![15]));
        b.put(b"more", b"x");
        b.snapshot_now().unwrap();
        drop(b);
        assert_eq!(FileBackend::open(&dir, opts).unwrap().len(), 16);
    }

    /// Asserts that opening `dir` fails with the corrupt-snapshot error.
    fn assert_refused_as_corrupt(dir: &Path) {
        match FileBackend::open(dir, FileBackendOptions::default()) {
            Ok(b) => panic!("opened over a bad chain file: {:?}", b.scan_prefix(b"")),
            Err(e) => assert!(e.to_string().contains("is corrupt"), "{e}"),
        }
    }

    /// A store directory holding one hand-built chain file.
    fn dir_with_chain_file(tag: &str, name: &str, bytes: &[u8]) -> (PathBuf, DirGuard) {
        let dir = scratch_path(tag);
        fs::create_dir_all(dir.join("snap")).unwrap();
        fs::create_dir_all(dir.join("wal")).unwrap();
        fs::write(dir.join("snap").join(name), bytes).unwrap();
        (dir.clone(), DirGuard(dir))
    }

    fn put_entry(key: &[u8], value: u8) -> (Vec<u8>, Option<Vec<u8>>) {
        (key.to_vec(), Some(vec![value]))
    }

    #[test]
    fn v1_snapshot_files_are_refused_not_misread() {
        // The retired v1 layout: a header frame of magic ++ seq ++ count,
        // then the entry frames, with no section table.
        let mut header = Vec::new();
        header.extend_from_slice(b"OMSNAP01");
        header.extend_from_slice(&2u64.to_le_bytes());
        header.extend_from_slice(&1u64.to_le_bytes());
        let mut entry = Vec::new();
        entry.extend_from_slice(&1u32.to_le_bytes());
        entry.extend_from_slice(b"a");
        entry.extend_from_slice(&1u32.to_le_bytes());
        entry.push(1);
        let mut v1 = Vec::new();
        push_frame(&mut v1, &header);
        push_frame(&mut v1, &entry);
        let (dir, _guard) = dir_with_chain_file("v1", "snap-2.snap", &v1);
        assert_refused_as_corrupt(&dir);
        assert!(
            dir.join("snap").join("snap-2.snap").exists(),
            "the refused file is left for an operator"
        );
    }

    #[test]
    fn unsorted_snapshot_sections_are_refused_as_corrupt() {
        let sorted = build_snapshot_file(true, 2, &[vec![put_entry(b"a", 1), put_entry(b"b", 2)]]);
        let (dir, _guard) = dir_with_chain_file("sorted", "snap-2.snap", &sorted);
        let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(b.scan_prefix(b""), vec![(b"a".to_vec(), vec![1]), (b"b".to_vec(), vec![2])]);
        drop(b);
        for (tag, part) in [
            ("unsorted", vec![put_entry(b"b", 2), put_entry(b"a", 1)]),
            ("duplicate", vec![put_entry(b"a", 1), put_entry(b"a", 2)]),
        ] {
            let bytes = build_snapshot_file(true, 2, &[part]);
            let (dir, _guard) = dir_with_chain_file(tag, "snap-2.snap", &bytes);
            assert_refused_as_corrupt(&dir);
        }
    }

    /// A zero length field ends the frames, so a section must still be
    /// consumed whole: bytes after its last entry are damage.
    #[test]
    fn a_section_with_bytes_after_a_zero_length_field_is_refused() {
        let good = build_snapshot_file(true, 2, &[vec![put_entry(b"a", 1)]]);
        let body = header_len(1);
        // Widen the one section by 12 bytes: a zero length field and junk.
        let mut header = good[8..body].to_vec();
        let len_at = 28 + 8;
        let len = u64::from_le_bytes(header[len_at..len_at + 8].try_into().unwrap()) + 12;
        header[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        let mut bad = Vec::new();
        push_frame(&mut bad, &header);
        bad.extend_from_slice(&good[body..]);
        bad.extend_from_slice(&[0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9]);
        let (dir, _guard) = dir_with_chain_file("zero-len", "snap-2.snap", &bad);
        assert_refused_as_corrupt(&dir);
    }

    /// Older builds wrote one section per in-memory shard: a reader
    /// takes any number of sections, and the backend writes one.
    #[test]
    fn a_multi_section_file_loads_into_the_one_image() {
        let base = build_snapshot_file(
            true,
            2,
            &[
                vec![put_entry(b"b", 1), put_entry(b"d", 2)],
                vec![put_entry(b"a", 3)],
                vec![put_entry(b"c", 4), put_entry(b"e", 5)],
            ],
        );
        let delta = build_snapshot_file(
            false,
            3,
            &[
                vec![(b"d".to_vec(), None)],
                vec![put_entry(b"a", 6), put_entry(b"f", 7)],
            ],
        );
        let (dir, _guard) = dir_with_chain_file("sections", "snap-2.snap", &base);
        fs::write(dir.join("snap").join("delta-3.delta"), delta).unwrap();
        let opts = FileBackendOptions {
            snapshot_every: 0,
            compact_max_deltas: 100,
            compact_ratio_pct: u64::MAX,
            ..FileBackendOptions::default()
        };
        let b = FileBackend::open(&dir, opts).unwrap();
        let mut expected: Vec<(Vec<u8>, Vec<u8>)> =
            [(b"a", 6), (b"b", 1), (b"c", 4), (b"e", 5), (b"f", 7)]
                .into_iter()
                .map(|(k, v)| (k.to_vec(), vec![v]))
                .collect();
        assert_eq!((b.scan_prefix(b""), b.len()), (expected.clone(), 5));
        b.put(b"g", &[8]);
        b.snapshot_now().unwrap();
        let written = fs::read(dir.join("snap").join("delta-4.delta")).unwrap();
        assert_eq!(parse_snap_header(&written).unwrap().sections.len(), 1);
        drop(b);
        expected.push((b"g".to_vec(), vec![8]));
        assert_eq!(
            FileBackend::open(&dir, opts).unwrap().scan_prefix(b""),
            expected
        );
    }

    #[test]
    fn chain_files_whose_header_disagrees_with_their_name_are_refused() {
        let parts = [vec![put_entry(b"a", 1)]];
        for (tag, bytes) in [
            ("delta-as-base", build_snapshot_file(false, 2, &parts)),
            ("seq-mismatch", build_snapshot_file(true, 5, &parts)),
        ] {
            let (dir, _guard) = dir_with_chain_file(tag, "snap-2.snap", &bytes);
            assert_refused_as_corrupt(&dir);
        }
    }

    #[test]
    fn damaged_or_truncated_snapshot_files_refuse_to_open() {
        let dir = scratch_path("damaged-snap");
        let _guard = DirGuard(dir.clone());
        {
            let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
            for i in 0..32u8 {
                b.put(&[b'k', i], &[i; 16]);
            }
            b.snapshot_now().unwrap();
        }
        let base = dir.join("snap").join("snap-32.snap");
        let pristine = fs::read(&base).unwrap();
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        for damaged in [flipped, pristine[..pristine.len() - 5].to_vec()] {
            fs::write(&base, &damaged).unwrap();
            assert_refused_as_corrupt(&dir);
        }
        fs::write(&base, &pristine).unwrap();
        let b = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(b.len(), 32, "the intact file still recovers");
    }

    #[test]
    fn compaction_triggers_on_length_and_ratio() {
        let mut chain = ChainState::default();
        chain.rebase(10, 1_000);
        assert!(!chain.compaction_due(100, 4, 100), "young chain stays");
        for i in 0..4 {
            chain.chain_delta(11 + i, 100);
        }
        assert!(chain.compaction_due(100, 4, 100), "5th delta exceeds max");
        let mut heavy = ChainState::default();
        heavy.rebase(10, 1_000);
        assert!(
            heavy.compaction_due(1_500, 16, 100),
            "one delta heavier than the base trips the ratio"
        );
        heavy.rebase(20, 2_000);
        assert_eq!(heavy.deltas, 0, "rebase clears the chain");
        assert_eq!(heavy.base_seq, 20);
        // u64::MAX for both knobs is "never compact", however heavy the
        // chain: the ratio product (1 000 × u64::MAX) needs the u128.
        let mut never = ChainState::default();
        never.rebase(10, 1_000);
        for i in 0..1_000 {
            assert!(!never.compaction_due(1 << 40, u64::MAX, u64::MAX), "delta {i}");
            never.chain_delta(11 + i, 1 << 40);
        }
    }

    #[test]
    fn options_map_from_durable_config() {
        let durable = DurableOptions {
            sync_commits: true,
            ..DurableOptions::default()
        };
        let opts = FileBackendOptions::from_durable(4, &durable);
        assert!(opts.sync_commits);
    }
    /// Snapshots only when asked, and never folds the chain.
    const MANUAL: FileBackendOptions = FileBackendOptions {
        snapshot_every: 0,
        segment_bytes: 1 << 20,
        sync_commits: false,
        compact_max_deltas: 100,
        compact_ratio_pct: u64::MAX,
    };

    /// The section entry counts of a snapshot-family file.
    fn section_entries(path: &Path) -> Vec<u64> {
        let header = parse_snap_header(&fs::read(path).unwrap()).unwrap();
        header.sections.iter().map(|s| s.n).collect()
    }

    #[test]
    fn a_base_snapshot_is_one_key_sorted_section() {
        let dir = scratch_path("one-section");
        let _guard = DirGuard(dir.clone());
        let b = FileBackend::open(&dir, MANUAL).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..200u32 {
            let k = (i * 77 % 200).to_be_bytes().to_vec();
            b.put(&k, &i.to_le_bytes());
            model.insert(k, i.to_le_bytes().to_vec());
        }
        b.snapshot_now().unwrap();
        let base = dir.join("snap").join("snap-200.snap");
        let header = parse_snap_header(&fs::read(&base).unwrap()).unwrap();
        assert_eq!((header.is_base, header.seq), (true, 200));
        assert_eq!(section_entries(&base), [200]);
        drop(b);
        // The loader refuses a section out of key order, so a reopen
        // checks the order too.
        let b = FileBackend::open(&dir, MANUAL).unwrap();
        assert_eq!(b.scan_prefix(b""), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_key_written_many_times_between_snapshots_is_one_delta_entry() {
        let dir = scratch_path("hot-delta");
        let _guard = DirGuard(dir.clone());
        let b = FileBackend::open(&dir, MANUAL).unwrap();
        b.put(b"seed", b"v");
        b.snapshot_now().unwrap();
        for i in 0..100u8 {
            b.put(b"hot", &[i]);
        }
        b.snapshot_now().unwrap();
        assert_eq!(section_entries(&dir.join("snap").join("delta-101.delta")), [1]);
        drop(b);
        let b = FileBackend::open(&dir, MANUAL).unwrap();
        assert_eq!((b.get(b"hot"), b.len()), (Some(vec![99]), 2));
    }

    #[test]
    fn a_key_put_and_deleted_between_snapshots_is_a_tombstone_in_the_delta() {
        let dir = scratch_path("brief-key");
        let _guard = DirGuard(dir.clone());
        let b = FileBackend::open(&dir, MANUAL).unwrap();
        b.put(b"kept", b"v");
        b.snapshot_now().unwrap();
        b.put(b"brief", b"v");
        b.delete(b"brief");
        b.snapshot_now().unwrap();
        let delta = dir.join("snap").join("delta-3.delta");
        assert_eq!(section_entries(&delta), [1]);
        drop(b);
        let b = FileBackend::open(&dir, MANUAL).unwrap();
        assert_eq!((b.get(b"brief"), b.len()), (None, 1));
        assert_eq!(b.scan_prefix(b""), [(b"kept".to_vec(), b"v".to_vec())]);
    }

    #[test]
    fn a_key_overwritten_many_times_replays_as_one_row() {
        let dir = scratch_path("hot-replay");
        let _guard = DirGuard(dir.clone());
        {
            let b = FileBackend::open(&dir, MANUAL).unwrap();
            for i in 0..1_000u16 {
                b.put(b"hot", &i.to_le_bytes());
            }
            assert_eq!(b.image.stored_bytes(), 3 + 2);
        }
        let b = FileBackend::open(&dir, MANUAL).unwrap();
        assert_eq!(b.counters()["backend.recovered_commits"], 1_000);
        assert_eq!((b.len(), b.image.stored_bytes()), (1, 3 + 2));
        assert_eq!(b.get(b"hot"), Some(999u16.to_le_bytes().to_vec()));
    }

    #[test]
    fn a_commit_is_visible_to_every_thread_once_it_returns() {
        let b = FileBackend::scratch().unwrap();
        std::thread::scope(|scope| {
            for w in 0..4u8 {
                let b = &b;
                scope.spawn(move || {
                    for i in 0..50u8 {
                        b.put(&[w, i], &[i]);
                        assert_eq!(b.get(&[w, i]), Some(vec![i]));
                        assert_eq!(b.get_many(&[&[w, i]]), [Some(vec![i])]);
                    }
                });
            }
        });
        assert_eq!((b.len(), b.counters()["backend.commits"]), (200, 200));
    }

    /// Recovery from a base, a delta and a WAL tail counts and scans
    /// the same live rows the store held before it closed.
    #[test]
    fn len_and_a_full_scan_agree_after_recovery_from_base_delta_and_wal() {
        let dir = scratch_path("three-layers");
        let _guard = DirGuard(dir.clone());
        let before = {
            let b = FileBackend::open(&dir, MANUAL).unwrap();
            for i in 0..40u8 {
                b.put(&[b'r', i], &[i]);
            }
            b.snapshot_now().unwrap();
            for i in (0..40u8).step_by(3) {
                b.delete(&[b'r', i]);
            }
            b.put(b"delta-only", b"d");
            b.snapshot_now().unwrap();
            for i in (1..40u8).step_by(5) {
                b.delete(&[b'r', i]);
            }
            b.put(b"wal-only", b"w");
            assert_eq!(b.len(), b.scan_prefix(b"").len());
            b.scan_prefix(b"")
        };
        assert_eq!(snap_files(&dir), ["delta-55.delta", "snap-40.snap"]);
        let b = FileBackend::open(&dir, MANUAL).unwrap();
        assert_eq!(b.scan_prefix(b""), before);
        assert_eq!(b.len(), before.len());
    }

    /// Snapshots taken while batches move rows read the image at a
    /// commit boundary: every scan and every recovered state holds each
    /// row exactly once.
    #[test]
    fn scans_racing_snapshots_see_one_committed_state() {
        let dir = scratch_path("racing-snapshots");
        let _guard = DirGuard(dir.clone());
        let opts = FileBackendOptions {
            snapshot_every: 8,
            compact_max_deltas: 3,
            ..MANUAL
        };
        let b = FileBackend::open(&dir, opts).unwrap();
        for i in 0..8u8 {
            b.put(&[b'a', i], &[0]);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=30u8 {
                    for i in 0..8u8 {
                        let (from, to) = if round % 2 == 1 { (b'a', b'b') } else { (b'b', b'a') };
                        b.commit(
                            WriteBatch::new()
                                .delete(vec![from, i])
                                .put(vec![to, i], vec![round]),
                        )
                        .unwrap();
                    }
                }
            });
            for _ in 0..300 {
                let rows = b.scan_prefix(b"");
                let mut ids: Vec<u8> = rows.iter().map(|(k, _)| k[1]).collect();
                ids.sort_unstable();
                assert_eq!(ids, (0..8).collect::<Vec<_>>(), "torn scan: {rows:?}");
            }
        });
        assert!(b.counters()["backend.snapshots"] + b.counters()["backend.deltas"] >= 20);
        let before = b.scan_prefix(b"");
        drop(b);
        assert_eq!(FileBackend::open(&dir, opts).unwrap().scan_prefix(b""), before);
    }
}
