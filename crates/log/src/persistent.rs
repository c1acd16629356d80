//! [`PersistentTopic`]: the file-backed topic — segment files plus an
//! offset index per partition, so the ingress log itself survives a
//! process crash and a cold-started consumer can replay in-flight
//! records without sharing any in-memory handle.
//!
//! On-disk layout under the topic directory (byte-level formats in
//! `docs/DURABILITY.md`):
//!
//! ```text
//! <dir>/topic.meta            name + partition count (validated on open)
//! <dir>/p<i>/seg-<base>.log   framed records, <base> = offset of the first
//! <dir>/p<i>/seg-<base>.idx   8-byte LE file position per record
//! ```
//!
//! Every record is appended as one CRC-framed blob (`om_common::checksum`)
//! containing `(producer, seq, payload)` and is flushed **before** the
//! append is acknowledged or mirrored in memory — so an offset a consumer
//! has seen can never point at a record that would vanish in a crash.
//! Retransmissions are deduplicated *before* touching disk; the
//! idempotence fence therefore holds across restarts too, because it is
//! rebuilt from the persisted records themselves.
//!
//! Recovery on [`PersistentTopic::open`] replays all segments in order,
//! truncating a torn tail of the final segment exactly like the file
//! backend's WAL, and rebuilds a stale or missing offset index.
//!
//! ```
//! use om_log::{EventLog, PersistentTopic};
//!
//! let dir = std::env::temp_dir().join(format!("om-doc-topic-{}", std::process::id()));
//! let topic: PersistentTopic<String> =
//!     PersistentTopic::open_serde(&dir, "orders", 2).unwrap();
//! topic.append_raw(0, 1, 1, "checkout".to_string()).unwrap();
//! drop(topic);
//!
//! // A cold restart replays the segments: the record is still there.
//! let reborn: PersistentTopic<String> =
//!     PersistentTopic::open_serde(&dir, "orders", 2).unwrap();
//! assert_eq!(reborn.read_from(0, 0, 10)[0].payload, "checkout");
//! # drop(reborn);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::event_log::EventLog;
use crate::topic::{Entry, Topic};
use om_common::checksum::{parse_frame, push_frame};
use om_common::commit_group::CommitGroup;
use om_common::config::GroupCommitPolicy;
use om_common::{OmError, OmResult};
use om_storage::vfs::{real_vfs, write_all_retry, Vfs, VfsFile};
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Serializes one record type to and from segment-file bytes.
///
/// The blanket [`SerdeCodec`] covers any `Serialize + DeserializeOwned`
/// payload; hand-written codecs exist for records that embed
/// non-serializable types (the marketplace dataflow binding's function
/// addresses hold `&'static str` function types, which its codec interns
/// back against the registered function table on decode).
pub trait RecordCodec<T>: Send + Sync {
    /// Encodes `record` into bytes.
    fn encode(&self, record: &T) -> OmResult<Vec<u8>>;
    /// Decodes bytes written by [`encode`](Self::encode).
    fn decode(&self, bytes: &[u8]) -> OmResult<T>;
}

/// The default codec: `om_common::codec` (compact binary serde) over any
/// serializable record type.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerdeCodec;

impl<T: Serialize + DeserializeOwned> RecordCodec<T> for SerdeCodec {
    fn encode(&self, record: &T) -> OmResult<Vec<u8>> {
        om_common::codec::to_bytes(record)
            .map_err(|e| OmError::Internal(format!("record encode: {e:?}")))
    }

    fn decode(&self, bytes: &[u8]) -> OmResult<T> {
        om_common::codec::from_bytes(bytes)
            .map_err(|e| OmError::Internal(format!("record decode: {e:?}")))
    }
}

/// Tuning knobs of a [`PersistentTopic`].
#[derive(Debug, Clone, Copy)]
pub struct PersistentTopicOptions {
    /// Segment roll threshold in bytes per partition.
    pub segment_bytes: u64,
    /// The one group-flush policy, [`GroupCommitPolicy::Cohort`]: every
    /// append goes through the partition's commit barrier
    /// (`om_common::commit_group`) — appenders stage their frame into an
    /// in-memory buffer (never blocking on an in-flight write) and park;
    /// a cohort leader performs ONE segment write for everyone staged
    /// and only then mirrors the cohort into memory, preserving the
    /// "written before readable" guarantee. The field stays only because
    /// the benchmark of record sets it, and goes with the next change to
    /// that benchmark.
    pub group_commit: GroupCommitPolicy,
    /// `fsync` the segment after every cohort write, and sync the
    /// partition directory when a segment is created. Off by default —
    /// an append is acknowledged once the bytes reach the page cache.
    pub sync_appends: bool,
}

impl Default for PersistentTopicOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 1 << 20,
            group_commit: GroupCommitPolicy::Cohort,
            sync_appends: false,
        }
    }
}

/// Per-partition staging state, guarded by the stage mutex: everything
/// here is memory-only and cheap, so staging a record never waits on an
/// in-flight segment write — the same appender/flusher split the file
/// backend's WAL uses.
struct PartStage<T> {
    /// Encoded record frames staged since the last leader flush, in
    /// append order — written by the next leader as one `write_all`.
    buf: Vec<u8>,
    /// The matching index entries (one 8-byte position per record).
    idx_buf: Vec<u8>,
    /// Staged `(producer, seq, payload)` records. The leader leaves
    /// them here while their bytes are being written (so a racing
    /// retransmission still finds them for dedup) and mirrors them
    /// into memory only after the write succeeds. The offset of
    /// `staged[i]` is `next_offset - staged.len() + i`.
    staged: Vec<(u64, u64, T)>,
    /// Offset the next staged record will take (`mem.end_offset` plus
    /// the staged count — assigned here so offsets stay dense while
    /// the mirror lags the stage).
    next_offset: u64,
    /// Bytes in the open segment **including** staged-but-unwritten
    /// bytes.
    seg_len: u64,
}

/// Per-partition durable state, guarded by the files mutex: the open
/// segment pair. Held by cohort leaders (and by unwedge and disk reads)
/// — never while merely staging.
struct PartFiles {
    log: Box<dyn VfsFile>,
    idx: Box<dyn VfsFile>,
    /// Path of the open `.log` (unwedge re-open and truncation).
    log_path: PathBuf,
    /// Offset of the first record in the open segment.
    seg_base: u64,
    /// Bytes of the open `.log` known written successfully — where an
    /// unwedge truncates the torn tail back to.
    log_durable: u64,
    /// Same for the `.idx` (8 bytes per durably-written record).
    idx_durable: u64,
    /// Records of the open segment whose bytes (log + idx) are down —
    /// `seg_base + durable_records` is the offset recovery would resume
    /// at, which is what an unwedge resets the stage to.
    durable_records: u64,
}

/// A [`Topic`] whose records live in segment files: the durable flavour
/// of the event log. See the module docs for layout and recovery rules.
pub struct PersistentTopic<T> {
    /// In-memory mirror (read path + idempotence fences), rebuilt from
    /// the segments on open.
    mem: Topic<T>,
    /// Cheap staging half, per partition. Lock order: files before
    /// stage, never the reverse.
    stages: Vec<Mutex<PartStage<T>>>,
    /// Durable half (open segment pair), per partition.
    parts: Vec<Mutex<PartFiles>>,
    /// One commit barrier per partition.
    groups: Vec<CommitGroup>,
    /// Set when a segment write failed after bytes were staged: the
    /// log can no longer tell which acknowledged records a partial
    /// frame would cut off at the next replay, so every further append
    /// fails fast instead of acknowledging records that a torn-tail
    /// truncation would silently drop.
    wedged: std::sync::atomic::AtomicBool,
    /// Exclusive OS lock on `<dir>/LOCK` for the topic's lifetime (two
    /// live processes must never interleave segment appends); released
    /// by the OS on process death, so it cannot go stale.
    _lock: std::fs::File,
    dir: PathBuf,
    /// Filesystem seam every segment byte passes through —
    /// [`real_vfs`] in production, a fault-injecting VFS under test.
    vfs: Arc<dyn Vfs>,
    codec: Arc<dyn RecordCodec<T>>,
    options: PersistentTopicOptions,
    duplicates: AtomicU64,
    appended_bytes: AtomicU64,
    segments_rolled: AtomicU64,
    recovered_records: AtomicU64,
    torn_tail_bytes: AtomicU64,
    unwedges: AtomicU64,
}

impl<T> std::fmt::Debug for PersistentTopic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentTopic")
            .field("dir", &self.dir)
            .field("partitions", &self.parts.len())
            .finish()
    }
}

impl<T: Clone + Send> PersistentTopic<T> {
    /// Opens (or initialises) the topic at `dir` with the default
    /// options, replaying any records a previous process persisted.
    /// `name` and `partitions` must match what the directory was created
    /// with.
    pub fn open(
        dir: impl AsRef<Path>,
        name: impl Into<String>,
        partitions: usize,
        codec: Arc<dyn RecordCodec<T>>,
    ) -> OmResult<Self> {
        Self::open_with(dir, name, partitions, codec, PersistentTopicOptions::default())
    }

    /// [`open`](Self::open) with explicit [`PersistentTopicOptions`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        name: impl Into<String>,
        partitions: usize,
        codec: Arc<dyn RecordCodec<T>>,
        options: PersistentTopicOptions,
    ) -> OmResult<Self> {
        Self::open_with_vfs(dir, name, partitions, codec, options, real_vfs())
    }

    /// [`open_with`](Self::open_with) over an explicit
    /// [`Vfs`] — the fault-injection seam the torture harness drives a
    /// topic through.
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        name: impl Into<String>,
        partitions: usize,
        codec: Arc<dyn RecordCodec<T>>,
        options: PersistentTopicOptions,
        vfs: Arc<dyn Vfs>,
    ) -> OmResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        let name = name.into();
        assert!(partitions > 0, "topic needs at least one partition");
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let lock = om_common::dirlock::lock_dir(&dir)?;
        check_meta(&dir, &name, partitions)?;
        let mut topic = Self {
            mem: Topic::new(name, partitions),
            stages: Vec::new(),
            parts: Vec::new(),
            groups: (0..partitions).map(|_| CommitGroup::new()).collect(),
            wedged: std::sync::atomic::AtomicBool::new(false),
            _lock: lock,
            vfs,
            codec,
            options,
            duplicates: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            segments_rolled: AtomicU64::new(0),
            recovered_records: AtomicU64::new(0),
            torn_tail_bytes: AtomicU64::new(0),
            unwedges: AtomicU64::new(0),
            dir,
        };
        for p in 0..partitions {
            let (files, stage) = topic.recover_partition(p)?;
            topic.parts.push(Mutex::new(files));
            topic.stages.push(Mutex::new(stage));
            // Tickets are offsets + 1 and resume above the recovered
            // records; floor the barrier so the first flush does not
            // count the replayed history as one giant cohort.
            topic.groups[p].reset_floor(topic.mem.end_offset(p));
        }
        Ok(topic)
    }

    /// [`open`](Self::open) with the blanket [`SerdeCodec`] — for record
    /// types that are plain serde values.
    pub fn open_serde(
        dir: impl AsRef<Path>,
        name: impl Into<String>,
        partitions: usize,
    ) -> OmResult<Self>
    where
        T: Serialize + DeserializeOwned,
    {
        Self::open(dir, name, partitions, Arc::new(SerdeCodec))
    }

    /// The directory the segments live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The topic's name.
    pub fn name(&self) -> &str {
        self.mem.name()
    }

    fn part_dir(&self, partition: usize) -> PathBuf {
        self.dir.join(format!("p{partition}"))
    }

    /// `seg-<base>.log` files of one partition directory, sorted by
    /// base offset — the single definition of which segments exist
    /// (recovery and disk reads must agree).
    fn list_segments(pdir: &Path) -> OmResult<Vec<(u64, PathBuf)>> {
        let mut segments = Vec::new();
        for entry in fs::read_dir(pdir).map_err(|e| io_err(pdir, e))? {
            let entry = entry.map_err(|e| io_err(pdir, e))?;
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            if let Some(base) = fname
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segments.push((base, entry.path()));
            }
        }
        segments.sort();
        Ok(segments)
    }

    /// Replays one partition's segments into the in-memory mirror and
    /// returns the appender positioned after the last valid record.
    fn recover_partition(&mut self, partition: usize) -> OmResult<(PartFiles, PartStage<T>)> {
        let pdir = self.part_dir(partition);
        fs::create_dir_all(&pdir).map_err(|e| io_err(&pdir, e))?;
        let segments = Self::list_segments(&pdir)?;
        let last_index = segments.len().wrapping_sub(1);
        let mut tail: Option<(u64, PathBuf, u64)> = None;
        for (i, (base, path)) in segments.iter().enumerate() {
            let bytes = self.vfs.read(path).map_err(|e| io_err(path, e))?;
            let mut positions: Vec<u64> = Vec::new();
            let mut at = 0usize;
            let mut truncated = false;
            loop {
                match parse_frame(&bytes, at) {
                    Ok(Some((payload, next))) => {
                        if payload.len() < 16 {
                            return Err(corrupt(path, at));
                        }
                        let producer = u64::from_le_bytes(payload[..8].try_into().unwrap());
                        let seq = u64::from_le_bytes(payload[8..16].try_into().unwrap());
                        let record = self.codec.decode(&payload[16..])?;
                        let offset = self.mem.append_raw(partition, producer, seq, record)?;
                        if offset != base + positions.len() as u64 {
                            return Err(corrupt(path, at));
                        }
                        positions.push(at as u64);
                        at = next;
                    }
                    Ok(None) => break,
                    Err(torn_at) => {
                        if i != last_index {
                            return Err(OmError::Internal(format!(
                                "persistent topic segment {path:?} is corrupt at byte \
                                 {torn_at} but is not the final segment"
                            )));
                        }
                        // Torn tail: the previous process died mid-append.
                        self.torn_tail_bytes
                            .fetch_add((bytes.len() - torn_at) as u64, Ordering::Relaxed);
                        let mut f = self.vfs.open_write(path).map_err(|e| io_err(path, e))?;
                        f.set_len(torn_at as u64).map_err(|e| io_err(path, e))?;
                        f.sync_data().map_err(|e| io_err(path, e))?;
                        at = torn_at;
                        truncated = true;
                        break;
                    }
                }
            }
            self.recovered_records
                .fetch_add(positions.len() as u64, Ordering::Relaxed);
            // The offset index is advisory: rebuild it whenever it does
            // not exactly cover the valid records (missing, stale, or
            // truncated along with the tail).
            let idx_path = path.with_extension("idx");
            let expected = positions.len() as u64 * 8;
            let stale = fs::metadata(&idx_path).map(|m| m.len() != expected).unwrap_or(true);
            if stale || truncated {
                let mut buf = Vec::with_capacity(expected as usize);
                for pos in &positions {
                    buf.extend_from_slice(&pos.to_le_bytes());
                }
                self.vfs
                    .write_file(&idx_path, &buf)
                    .map_err(|e| io_err(&idx_path, e))?;
            }
            if i == last_index {
                tail = Some((*base, path.clone(), at as u64));
            }
        }
        let (seg_base, log_path, seg_len) = match tail {
            Some(t) => t,
            None => (0, pdir.join("seg-0.log"), 0),
        };
        let log = self
            .vfs
            .open_append(&log_path)
            .map_err(|e| io_err(&log_path, e))?;
        let idx_path = log_path.with_extension("idx");
        let idx = self
            .vfs
            .open_append(&idx_path)
            .map_err(|e| io_err(&idx_path, e))?;
        if self.options.sync_appends {
            // The open may have just created `seg-0.log`/`.idx` (fresh
            // partition) or rewritten the index: their directory entries
            // must survive power loss before any fsynced record in them
            // is acknowledged — syncing bytes into a file whose name a
            // crash can erase syncs nothing.
            self.vfs.dir_sync(&pdir).map_err(|e| io_err(&pdir, e))?;
        }
        let end = self.mem.end_offset(partition);
        Ok((
            PartFiles {
                log,
                idx,
                log_path,
                seg_base,
                log_durable: seg_len,
                idx_durable: (end - seg_base) * 8,
                durable_records: end - seg_base,
            },
            PartStage {
                buf: Vec::new(),
                idx_buf: Vec::new(),
                staged: Vec::new(),
                next_offset: end,
                seg_len,
            },
        ))
    }

    /// Appends `(producer, seq, payload)` to `partition`: deduplicated
    /// against the fence first (retransmissions never touch disk), then
    /// written as one frame and flushed **before** the record becomes
    /// readable. The flush is batched: the record is staged and the
    /// caller parks on the partition's commit barrier until a cohort
    /// leader has flushed (and mirrored) it — one write shared by every
    /// record staged meanwhile. Returns the record's offset.
    pub fn append_raw(
        &self,
        partition: usize,
        producer: u64,
        seq: u64,
        payload: T,
    ) -> OmResult<u64> {
        // Acquire pairs with the Release store on the failure path: an
        // appender observing the wedge also observes the failed write
        // that caused it.
        if self.wedged.load(Ordering::Acquire) {
            return Err(self.wedged_err());
        }
        let stage_lock = self
            .stages
            .get(partition)
            .ok_or_else(|| OmError::NotFound(format!("partition {partition}")))?;
        let offset = {
            let mut stage = stage_lock.lock();
            if let Some(offset) = self.mem.duplicate_of(partition, producer, seq)? {
                // Mirrored implies flushed: no need to wait.
                self.duplicates.fetch_add(1, Ordering::Relaxed);
                return Ok(offset);
            }
            // A retransmission can also race its original while the
            // original is still staged (or mid-write — the leader
            // leaves records staged until their bytes are down):
            // resolve it to the staged offset and wait for the same
            // flush, so it is never written twice (which would derail
            // replay's offset accounting).
            if let Some(i) = stage
                .staged
                .iter()
                .position(|(p, s, _)| *p == producer && *s == seq)
            {
                self.duplicates.fetch_add(1, Ordering::Relaxed);
                let offset = stage.next_offset - stage.staged.len() as u64 + i as u64;
                drop(stage);
                self.groups[partition]
                    .wait_durable(offset + 1, || self.flush_partition(partition))?;
                return Ok(offset);
            }
            let frame = self.encode_frame(producer, seq, &payload)?;
            let pos = stage.seg_len;
            stage.buf.extend_from_slice(&frame);
            stage.idx_buf.extend_from_slice(&pos.to_le_bytes());
            stage.seg_len += frame.len() as u64;
            self.appended_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
            stage.staged.push((producer, seq, payload));
            let offset = stage.next_offset;
            stage.next_offset += 1;
            offset
        };
        // Park: a cohort leader writes every staged byte as one unit,
        // then mirrors the cohort (making its offsets readable).
        self.groups[partition].wait_durable(offset + 1, || self.flush_partition(partition))?;
        Ok(offset)
    }

    /// The fail-fast error every append observes while the topic is
    /// wedged.
    fn wedged_err(&self) -> OmError {
        OmError::Wedged(format!(
            "persistent topic {:?}: a segment write failed; appends fail fast until an \
             unwedge repairs the torn tail",
            self.dir
        ))
    }

    /// Writes one batch of frame bytes plus its index entries to the
    /// open segment pair (syncing the log first when
    /// [`PersistentTopicOptions::sync_appends`] is on) and advances the
    /// durable floors. Any failure wedges the topic: the bytes on disk
    /// can no longer be trusted past the recorded floors.
    fn write_segment(
        &self,
        files: &mut PartFiles,
        bytes: &[u8],
        idx_bytes: &[u8],
    ) -> OmResult<()> {
        let written = write_all_retry(files.log.as_mut(), bytes)
            .and_then(|()| {
                if self.options.sync_appends {
                    files.log.sync_data()
                } else {
                    Ok(())
                }
            })
            .and_then(|()| write_all_retry(files.idx.as_mut(), idx_bytes));
        if let Err(e) = written {
            // Release pairs with the Acquire loads on the append path.
            self.wedged.store(true, Ordering::Release);
            return Err(OmError::Wedged(format!(
                "persistent topic {:?}: segment write failed ({e}); appends fail fast \
                 until an unwedge repairs the torn tail",
                self.dir
            )));
        }
        files.log_durable += bytes.len() as u64;
        files.idx_durable += idx_bytes.len() as u64;
        files.durable_records += (idx_bytes.len() / 8) as u64;
        Ok(())
    }

    /// `(producer ++ seq ++ codec bytes)` as one CRC frame.
    fn encode_frame(&self, producer: u64, seq: u64, payload: &T) -> OmResult<Vec<u8>> {
        let body = self.codec.encode(payload)?;
        let mut record = Vec::with_capacity(16 + body.len());
        record.extend_from_slice(&producer.to_le_bytes());
        record.extend_from_slice(&seq.to_le_bytes());
        record.extend_from_slice(&body);
        let mut frame = Vec::new();
        push_frame(&mut frame, &record);
        Ok(frame)
    }

    /// Cohort-leader duty: swap the staged bytes out (staging stays
    /// open — appenders keep building the next cohort), write them as
    /// ONE `write_all` per file, then mirror the covered records into
    /// memory in append order (making their offsets readable) and roll
    /// the segment if due. Returns the barrier ticket covered
    /// (`end_offset` after the mirror — tickets are `offset + 1`).
    fn flush_partition(&self, partition: usize) -> OmResult<u64> {
        if self.wedged.load(Ordering::Acquire) {
            return Err(self.wedged_err());
        }
        let mut files = self.parts[partition].lock();
        // Swap bytes out but LEAVE the staged records in place: a
        // racing retransmission must still find them for dedup while
        // their bytes are in flight. `covered` marks how many staged
        // records these bytes complete.
        let (bytes, idx_bytes, covered) = {
            let mut stage = self.stages[partition].lock();
            (
                std::mem::take(&mut stage.buf),
                std::mem::take(&mut stage.idx_buf),
                stage.staged.len(),
            )
        };
        if !bytes.is_empty() {
            // The staged prefix can never be mirrored after a failure
            // here; write_segment wedges so nothing acknowledges records
            // a torn-tail replay would drop.
            self.write_segment(&mut files, &bytes, &idx_bytes)?;
        }
        let mut stage = self.stages[partition].lock();
        for (producer, seq, payload) in stage.staged.drain(..covered) {
            if let Err(e) = self.mem.append_raw(partition, producer, seq, payload) {
                // Dropping the drain would discard the unmirrored tail
                // whose bytes are already durable; without the wedge,
                // waiters would re-elect leaders forever over a flush
                // that can no longer make progress.
                self.wedged.store(true, Ordering::Release);
                return Err(e);
            }
        }
        if stage.seg_len >= self.options.segment_bytes {
            // Records staged during the write above belong to the old
            // segment too: drain them under both locks (appends block
            // briefly — rolls are rare) so the roll happens now instead
            // of starving behind sustained traffic.
            if !stage.buf.is_empty() {
                let bytes = std::mem::take(&mut stage.buf);
                let idx_bytes = std::mem::take(&mut stage.idx_buf);
                self.write_segment(&mut files, &bytes, &idx_bytes)?;
                for (producer, seq, payload) in stage.staged.drain(..) {
                    if let Err(e) = self.mem.append_raw(partition, producer, seq, payload) {
                        self.wedged.store(true, Ordering::Release);
                        return Err(e);
                    }
                }
            }
            self.roll_segment(partition, &mut files, &mut stage)?;
        }
        Ok(self.mem.end_offset(partition))
    }

    /// Group-flush statistics summed over all partitions:
    /// `(flushes, records_released, max_cohort)`.
    pub fn group_flush_stats(&self) -> (u64, u64, u64) {
        let mut flushes = 0;
        let mut released = 0;
        let mut max_cohort = 0u64;
        for g in &self.groups {
            let s = g.stats();
            flushes += s.flushes;
            released += s.released;
            max_cohort = max_cohort.max(s.max_cohort);
        }
        (flushes, released, max_cohort)
    }

    /// Starts a fresh segment pair named after the next offset. Callers
    /// hold both partition locks with every staged byte already written
    /// to the old segment, so the name is exact.
    fn roll_segment(
        &self,
        partition: usize,
        files: &mut PartFiles,
        stage: &mut PartStage<T>,
    ) -> OmResult<()> {
        debug_assert!(stage.buf.is_empty(), "roll with staged bytes would split a segment");
        let base = self.mem.end_offset(partition);
        let pdir = self.part_dir(partition);
        let log_path = pdir.join(format!("seg-{base}.log"));
        let idx_path = log_path.with_extension("idx");
        let log = self
            .vfs
            .open_append(&log_path)
            .map_err(|e| io_err(&log_path, e))?;
        let idx = self
            .vfs
            .open_append(&idx_path)
            .map_err(|e| io_err(&idx_path, e))?;
        if self.options.sync_appends {
            // The new segment's directory entry must survive a crash
            // before anything written into it is considered durable.
            self.vfs.dir_sync(&pdir).map_err(|e| io_err(&pdir, e))?;
        }
        files.log = log;
        files.idx = idx;
        files.log_path = log_path;
        files.seg_base = base;
        files.log_durable = 0;
        files.idx_durable = 0;
        files.durable_records = 0;
        stage.seg_len = 0;
        self.segments_rolled.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads up to `max` records of `partition` starting at `offset`
    /// **from the segment files** (not the in-memory mirror), seeking via
    /// the offset index — the read path a cold consumer with no mirror
    /// would use, and what the recovery tests exercise.
    pub fn read_from_disk(
        &self,
        partition: usize,
        offset: u64,
        max: usize,
    ) -> OmResult<Vec<Entry<T>>> {
        let part = self
            .parts
            .get(partition)
            .ok_or_else(|| OmError::NotFound(format!("partition {partition}")))?;
        // Hold the appender lock so no frame is mid-write while we read.
        let _files = part.lock();
        let segments = Self::list_segments(&self.part_dir(partition))?;
        let mut out = Vec::new();
        for (i, (base, path)) in segments.iter().enumerate() {
            if out.len() >= max {
                break;
            }
            let idx_path = path.with_extension("idx");
            let idx_bytes = self.vfs.read(&idx_path).map_err(|e| io_err(&idx_path, e))?;
            let count = (idx_bytes.len() / 8) as u64;
            // A later segment starts where this one ends; skip segments
            // fully below the requested offset.
            if base + count <= offset && i + 1 < segments.len() {
                continue;
            }
            let mut cursor = (*base).max(offset);
            if cursor >= base + count {
                continue;
            }
            let start_pos =
                u64::from_le_bytes(idx_bytes[((cursor - base) * 8) as usize..][..8].try_into().unwrap());
            let bytes = self.vfs.read(path).map_err(|e| io_err(path, e))?;
            let mut at = start_pos as usize;
            while out.len() < max {
                match parse_frame(&bytes, at) {
                    Ok(Some((payload, next))) => {
                        if payload.len() < 16 {
                            return Err(corrupt(path, at));
                        }
                        out.push(Entry {
                            offset: cursor,
                            producer: u64::from_le_bytes(payload[..8].try_into().unwrap()),
                            seq: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
                            payload: self.codec.decode(&payload[16..])?,
                        });
                        cursor += 1;
                        at = next;
                    }
                    // A torn in-flight tail reads as end-of-log.
                    Ok(None) | Err(_) => break,
                }
            }
        }
        Ok(out)
    }

    /// Whether the topic is wedged: a segment write failed and every
    /// further append fails fast with
    /// [`OmError::Wedged`] until [`PersistentTopic::unwedge`] repairs
    /// the torn tail.
    pub fn is_wedged(&self) -> bool {
        self.wedged.load(Ordering::Acquire)
    }

    /// Repairs a wedged topic in place: per partition, the staged
    /// (never-acknowledged) records are dropped, the open segment pair
    /// is truncated back to the byte floor that exactly matches the
    /// in-memory mirror, the kept prefix is verified to parse, and the
    /// append handles are re-opened. Returns the total torn log bytes
    /// dropped; acknowledged records are never touched (their bytes sit
    /// below the floors by construction). A healthy topic returns
    /// `Ok(0)` untouched. If verification fails the topic stays wedged
    /// and an `Internal` error reports why.
    pub fn unwedge(&self) -> OmResult<u64> {
        let mut torn_total = 0u64;
        if !self.wedged.load(Ordering::Acquire) {
            return Ok(0);
        }
        for partition in 0..self.parts.len() {
            let mut files = self.parts[partition].lock();
            let mut stage = self.stages[partition].lock();
            // Every assigned ticket ≤ next_offset either was released
            // (its record is mirrored) or belongs to a staged record we
            // are about to drop: fail those waiters out instead of
            // leaving them parked behind a stage that will never flush.
            self.groups[partition].abort_below(stage.next_offset);
            // Truncate back to what the mirror holds: a durable surplus
            // the leader never mirrored (its flush failed midway) was
            // never acknowledged either, so it goes with the torn tail.
            let mirrored = self.mem.end_offset(partition) - files.seg_base;
            let idx_path = files.log_path.with_extension("idx");
            let log_target = if mirrored < files.durable_records {
                let idx_bytes = self.vfs.read(&idx_path).map_err(|e| io_err(&idx_path, e))?;
                u64::from_le_bytes(
                    idx_bytes[(mirrored * 8) as usize..][..8]
                        .try_into()
                        .map_err(|_| corrupt(&idx_path, (mirrored * 8) as usize))?,
                )
            } else {
                files.log_durable
            };
            let on_disk = self
                .vfs
                .read(&files.log_path)
                .map_err(|e| io_err(&files.log_path, e))?;
            // Verify the kept prefix parses to exactly the mirrored
            // records before truncating anything — if it does not, the
            // damage reaches acknowledged bytes and dropping the tail
            // would silently lose acked records: stay wedged.
            let kept = &on_disk[..(log_target as usize).min(on_disk.len())];
            let mut at = 0usize;
            let mut frames = 0u64;
            loop {
                match parse_frame(kept, at) {
                    Ok(Some((_, next))) => {
                        frames += 1;
                        at = next;
                    }
                    Ok(None) if at == kept.len() && frames == mirrored => break,
                    _ => {
                        return Err(OmError::Internal(format!(
                            "unwedge verification failed for {:?}: kept prefix of {} bytes \
                             holds {frames} records where {mirrored} acknowledged records \
                             were expected; the topic stays wedged",
                            files.log_path,
                            kept.len(),
                        )));
                    }
                }
            }
            torn_total += on_disk.len() as u64 - log_target;
            let mut f = self
                .vfs
                .open_write(&files.log_path)
                .map_err(|e| io_err(&files.log_path, e))?;
            f.set_len(log_target).map_err(|e| io_err(&files.log_path, e))?;
            f.sync_data().map_err(|e| io_err(&files.log_path, e))?;
            drop(f);
            let mut f = self
                .vfs
                .open_write(&idx_path)
                .map_err(|e| io_err(&idx_path, e))?;
            f.set_len(mirrored * 8).map_err(|e| io_err(&idx_path, e))?;
            f.sync_data().map_err(|e| io_err(&idx_path, e))?;
            drop(f);
            files.log = self
                .vfs
                .open_append(&files.log_path)
                .map_err(|e| io_err(&files.log_path, e))?;
            files.idx = self
                .vfs
                .open_append(&idx_path)
                .map_err(|e| io_err(&idx_path, e))?;
            files.log_durable = log_target;
            files.idx_durable = mirrored * 8;
            files.durable_records = mirrored;
            stage.buf.clear();
            stage.idx_buf.clear();
            stage.staged.clear();
            stage.seg_len = log_target;
            stage.next_offset = self.mem.end_offset(partition);
            // Offsets are dense, so the dropped records' offsets (and
            // with them their barrier tickets) are handed out again:
            // drain the failed waiters and rewind the barrier to the
            // mirror's end before any such reuse.
            self.groups[partition].reset_after_abort(self.mem.end_offset(partition));
        }
        self.unwedges.fetch_add(1, Ordering::Relaxed);
        self.wedged.store(false, Ordering::Release);
        Ok(torn_total)
    }

    /// Durability/diagnostic counters of this topic.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        out.insert("log.appended_bytes".into(), self.appended_bytes.load(Ordering::Relaxed));
        out.insert(
            "log.recovered_records".into(),
            self.recovered_records.load(Ordering::Relaxed),
        );
        out.insert(
            "log.torn_tail_bytes".into(),
            self.torn_tail_bytes.load(Ordering::Relaxed),
        );
        out.insert(
            "log.segments_rolled".into(),
            self.segments_rolled.load(Ordering::Relaxed),
        );
        out.insert("log.duplicates".into(), self.duplicates.load(Ordering::Relaxed));
        out.insert("log.wedged".into(), u64::from(self.is_wedged()));
        out.insert("log.unwedges".into(), self.unwedges.load(Ordering::Relaxed));
        let (flushes, released, max_cohort) = self.group_flush_stats();
        out.insert("log.group_flushes".into(), flushes);
        out.insert("log.group_records".into(), released);
        out.insert("log.max_flush_cohort".into(), max_cohort);
        out
    }
}

fn io_err(path: &Path, e: std::io::Error) -> OmError {
    OmError::Internal(format!("persistent topic {path:?}: {e}"))
}

fn corrupt(path: &Path, at: usize) -> OmError {
    OmError::Internal(format!(
        "persistent topic segment {path:?} holds an undecodable record at byte {at}"
    ))
}

/// Validates (or writes) `topic.meta`: a reopened directory must agree on
/// name and partition count, otherwise offsets would be meaningless.
fn check_meta(dir: &Path, name: &str, partitions: usize) -> OmResult<()> {
    let meta_path = dir.join("topic.meta");
    let expected = format!("om-topic-v1\n{name}\n{partitions}\n");
    match fs::read_to_string(&meta_path) {
        Ok(existing) => {
            if existing != expected {
                return Err(OmError::Rejected(format!(
                    "persistent topic {dir:?} was created as {:?} but opened as \
                     name={name} partitions={partitions}",
                    existing.trim().replace('\n', " / ")
                )));
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            fs::write(&meta_path, expected).map_err(|e| io_err(&meta_path, e))
        }
        Err(e) => Err(io_err(&meta_path, e)),
    }
}

impl<T: Clone + Send> EventLog<T> for PersistentTopic<T> {
    fn partition_count(&self) -> usize {
        self.mem.partition_count()
    }

    fn append_raw(&self, partition: usize, producer: u64, seq: u64, payload: T) -> OmResult<u64> {
        PersistentTopic::append_raw(self, partition, producer, seq, payload)
    }

    fn read_from(&self, partition: usize, offset: u64, max: usize) -> Vec<Entry<T>> {
        self.mem.read_from(partition, offset, max)
    }

    fn end_offset(&self, partition: usize) -> u64 {
        self.mem.end_offset(partition)
    }

    fn max_seq(&self, partition: usize) -> u64 {
        self.mem.max_seq(partition)
    }

    fn len(&self) -> usize {
        self.mem.len()
    }

    fn duplicate_count(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "om-ptopic-test-{tag}-{}-{}",
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

    fn open(dir: &Path, partitions: usize) -> PersistentTopic<u64> {
        PersistentTopic::open_serde(dir, "t", partitions).unwrap()
    }

    #[test]
    fn records_survive_a_reopen_with_fences_and_offsets() {
        let dir = scratch("reopen");
        let _guard = DirGuard(dir.clone());
        {
            let t = open(&dir, 2);
            for i in 0..10u64 {
                t.append_raw((i % 2) as usize, 1, i + 1, i * 7).unwrap();
            }
        }
        let t = open(&dir, 2);
        assert_eq!(EventLog::len(&t), 10);
        assert_eq!(t.counters()["log.recovered_records"], 10);
        let read = t.read_from(0, 0, 100);
        assert_eq!(read.len(), 5);
        assert_eq!(read[0].payload, 0);
        assert_eq!(read[4].payload, 56);
        assert!(read.iter().enumerate().all(|(i, e)| e.offset == i as u64));
        // Fences were rebuilt: the old sequences are still deduplicated,
        // and max_seq lets a resuming producer stay monotonic.
        assert_eq!(t.max_seq(0), 9);
        let again = t.append_raw(0, 1, 9, 999).unwrap();
        assert_eq!(again, 4, "retransmission resolves to the original offset");
        assert_eq!(EventLog::len(&t), 10, "no duplicate record");
        assert_eq!(t.duplicate_count(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_index_rebuilt() {
        let dir = scratch("torn");
        let _guard = DirGuard(dir.clone());
        {
            let t = open(&dir, 1);
            for i in 0..4u64 {
                t.append_raw(0, 1, i + 1, i).unwrap();
            }
        }
        let seg = dir.join("p0").join("seg-0.log");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();

        let t = open(&dir, 1);
        assert_eq!(EventLog::len(&t), 3, "torn final record discarded");
        assert!(t.counters()["log.torn_tail_bytes"] > 0);
        // Index shrank to match the surviving records.
        assert_eq!(fs::metadata(dir.join("p0").join("seg-0.idx")).unwrap().len(), 24);
        // The log keeps working past the truncation point.
        t.append_raw(0, 9, 1, 77).unwrap();
        drop(t);
        let t = open(&dir, 1);
        let read = t.read_from(0, 0, 10);
        assert_eq!(read.len(), 4);
        assert_eq!(read[3].payload, 77);
    }

    #[test]
    fn disk_reads_follow_the_offset_index_across_segments() {
        let dir = scratch("disk-read");
        let _guard = DirGuard(dir.clone());
        let t: PersistentTopic<u64> = PersistentTopic::open_with(
            &dir,
            "t",
            1,
            Arc::new(SerdeCodec),
            PersistentTopicOptions { segment_bytes: 64, ..Default::default() },
        )
        .unwrap();
        for i in 0..20u64 {
            t.append_raw(0, 1, i + 1, i * 3).unwrap();
        }
        assert!(t.counters()["log.segments_rolled"] >= 2);
        let read = t.read_from_disk(0, 7, 5).unwrap();
        assert_eq!(read.len(), 5);
        assert_eq!(
            read.iter().map(|e| (e.offset, e.payload)).collect::<Vec<_>>(),
            (7..12).map(|i| (i, i * 3)).collect::<Vec<_>>()
        );
        assert!(t.read_from_disk(0, 19, 10).unwrap().len() == 1);
        assert!(t.read_from_disk(0, 20, 10).unwrap().is_empty());
    }

    #[test]
    fn multi_segment_replay_restores_everything() {
        let dir = scratch("multi-seg");
        let _guard = DirGuard(dir.clone());
        {
            let t: PersistentTopic<u64> = PersistentTopic::open_with(
                &dir,
                "t",
                2,
                Arc::new(SerdeCodec),
                PersistentTopicOptions { segment_bytes: 48, ..Default::default() },
            )
            .unwrap();
            for i in 0..30u64 {
                t.append_raw((i % 2) as usize, 1, i + 1, i).unwrap();
            }
        }
        let t = open(&dir, 2);
        assert_eq!(EventLog::len(&t), 30);
        let all: Vec<u64> = (0..2)
            .flat_map(|p| t.read_from(p, 0, 100))
            .map(|e| e.payload)
            .collect();
        assert_eq!(all.len(), 30);
    }

    #[test]
    fn mismatched_reopen_is_rejected() {
        let dir = scratch("meta");
        let _guard = DirGuard(dir.clone());
        drop(open(&dir, 2));
        let err = PersistentTopic::<u64>::open_serde(&dir, "t", 3).unwrap_err();
        assert_eq!(err.label(), "rejected");
        let err = PersistentTopic::<u64>::open_serde(&dir, "other", 2).unwrap_err();
        assert_eq!(err.label(), "rejected");
    }

    #[test]
    fn group_flush_batches_appends_and_survives_reopen() {
        let dir = scratch("group");
        let _guard = DirGuard(dir.clone());
        let opts = PersistentTopicOptions::default();
        {
            let t: Arc<PersistentTopic<u64>> =
                Arc::new(PersistentTopic::open_with(&dir, "t", 1, Arc::new(SerdeCodec), opts).unwrap());
            const WRITERS: u64 = 4;
            const RECORDS: u64 = 25;
            let mut handles = Vec::new();
            for w in 0..WRITERS {
                let t = t.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..RECORDS {
                        t.append_raw(0, w + 1, i + 1, w * 1000 + i).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(EventLog::len(&*t), (WRITERS * RECORDS) as usize);
            let (flushes, released, _) = t.group_flush_stats();
            assert_eq!(released, WRITERS * RECORDS, "every append released");
            assert!(flushes <= released, "never more flushes than appends");
            // Offsets are dense and every record readable once acked.
            let read = t.read_from(0, 0, 1000);
            assert_eq!(read.len(), (WRITERS * RECORDS) as usize);
            assert!(read.iter().enumerate().all(|(i, e)| e.offset == i as u64));
            // A retransmission resolves to the original offset and
            // never grows the log.
            let off = t.append_raw(0, 1, 1, 0).unwrap();
            assert!(off < WRITERS * RECORDS);
            assert_eq!(EventLog::len(&*t), (WRITERS * RECORDS) as usize);
        }
        // Cold reopen recovers everything the group path flushed.
        let t: PersistentTopic<u64> =
            PersistentTopic::open_with(&dir, "t", 1, Arc::new(SerdeCodec), opts).unwrap();
        assert_eq!(EventLog::len(&t), 100);
        assert_eq!(t.counters()["log.recovered_records"], 100);
    }

    #[test]
    fn a_lone_appender_pays_one_flush_per_record() {
        let dir = scratch("lone");
        let _guard = DirGuard(dir.clone());
        {
            let t = open(&dir, 2);
            for i in 0..6u64 {
                t.append_raw((i % 2) as usize, 1, i + 1, i).unwrap();
            }
            assert_eq!(t.group_flush_stats(), (6, 6, 1), "nothing to batch with");
        }
        // After recovery each partition's first flush is a cohort of one,
        // not the replayed records plus one.
        let t = open(&dir, 2);
        t.append_raw(0, 2, 1, 60).unwrap();
        t.append_raw(1, 2, 2, 61).unwrap();
        assert_eq!(t.group_flush_stats(), (2, 2, 1));
        assert_eq!(t.read_from(1, 3, 10)[0].payload, 61, "offsets resume past the replay");
    }

    #[test]
    fn sync_failure_wedges_and_unwedge_repairs_in_place() {
        let dir = scratch("wedge");
        let _guard = DirGuard(dir.clone());
        let fault = om_storage::FaultVfs::new(7).fail_nth_sync(2);
        let opts = PersistentTopicOptions {
            sync_appends: true,
            ..Default::default()
        };
        let t: PersistentTopic<u64> = PersistentTopic::open_with_vfs(
            &dir,
            "t",
            1,
            Arc::new(SerdeCodec),
            opts,
            Arc::new(fault.clone()),
        )
        .unwrap();
        t.append_raw(0, 1, 1, 11).unwrap();
        // The second fsync is injected to fail: the append errors with
        // the typed wedge and every later append fails fast.
        let err = t.append_raw(0, 1, 2, 22).unwrap_err();
        assert_eq!(err.label(), "wedged");
        assert!(t.is_wedged());
        assert_eq!(t.append_raw(0, 1, 3, 33).unwrap_err().label(), "wedged");
        assert_eq!(t.counters()["log.wedged"], 1);
        // Repair: the unsynced frame of record 2 is the torn tail.
        let torn = t.unwedge().unwrap();
        assert!(torn > 0, "the failed append left bytes to truncate");
        assert!(!t.is_wedged());
        assert_eq!(t.unwedge().unwrap(), 0, "idempotent on a healthy topic");
        // The topic accepts appends again and a cold reopen sees exactly
        // the acknowledged records — no torn tail left behind.
        t.append_raw(0, 1, 4, 44).unwrap();
        assert_eq!(t.counters()["log.unwedges"], 1);
        drop(t);
        let t: PersistentTopic<u64> =
            PersistentTopic::open_with(&dir, "t", 1, Arc::new(SerdeCodec), opts).unwrap();
        let payloads: Vec<u64> = t.read_from(0, 0, 10).iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![11, 44]);
        assert_eq!(t.counters()["log.torn_tail_bytes"], 0);
    }

    #[test]
    fn grouped_write_failure_wedges_and_unwedge_recovers() {
        let dir = scratch("wedge-group");
        let _guard = DirGuard(dir.clone());
        let fault = om_storage::FaultVfs::new(11).fail_nth_sync(2);
        let opts = PersistentTopicOptions {
            sync_appends: true,
            ..Default::default()
        };
        let t: PersistentTopic<u64> = PersistentTopic::open_with_vfs(
            &dir,
            "t",
            1,
            Arc::new(SerdeCodec),
            opts,
            Arc::new(fault.clone()),
        )
        .unwrap();
        t.append_raw(0, 1, 1, 5).unwrap();
        assert_eq!(t.append_raw(0, 1, 2, 6).unwrap_err().label(), "wedged");
        assert!(t.unwedge().unwrap() > 0);
        t.append_raw(0, 1, 3, 7).unwrap();
        let payloads: Vec<u64> = t.read_from(0, 0, 10).iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![5, 7]);
    }

    #[test]
    fn retransmissions_never_reach_disk() {
        let dir = scratch("dedup");
        let _guard = DirGuard(dir.clone());
        let t = open(&dir, 1);
        t.append_raw(0, 1, 1, 42).unwrap();
        let bytes_after_first = t.counters()["log.appended_bytes"];
        for _ in 0..5 {
            assert_eq!(t.append_raw(0, 1, 1, 42).unwrap(), 0);
        }
        assert_eq!(t.counters()["log.appended_bytes"], bytes_after_first);
        assert_eq!(t.duplicate_count(), 5);
    }
}
