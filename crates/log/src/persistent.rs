//! [`PersistentTopic`]: the file-backed topic — segment files per
//! partition, so the ingress log itself survives a process crash and a
//! cold-started consumer can replay in-flight records without sharing
//! any in-memory handle.
//!
//! On-disk layout under the topic directory (byte-level formats in
//! `docs/DURABILITY.md`):
//!
//! ```text
//! <dir>/topic.meta            name + partition count (validated on open)
//! <dir>/p<i>/seg-<base>.log   framed records, <base> = offset of the first
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
//! backend's WAL. Reads are served from the in-memory mirror that replay
//! rebuilds; `seg-<base>.idx` offset-index files left by older builds
//! are ignored.
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
/// segment. Held by cohort leaders (and by unwedge) — never while merely
/// staging.
struct PartFiles {
    log: Box<dyn VfsFile>,
    /// Path of the open `.log` (unwedge re-open and truncation).
    log_path: PathBuf,
    /// Offset of the first record in the open segment.
    seg_base: u64,
    /// Bytes of the open `.log` known written successfully — the most
    /// an unwedge keeps.
    log_durable: u64,
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
    /// Durable half (open segment), per partition.
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
    /// base offset — the single definition of which segments exist.
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
            let mut records = 0u64;
            let mut at = 0usize;
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
                        if offset != base + records {
                            return Err(corrupt(path, at));
                        }
                        records += 1;
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
                        break;
                    }
                }
            }
            self.recovered_records.fetch_add(records, Ordering::Relaxed);
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
        if self.options.sync_appends {
            // The open may have just created `seg-0.log` (fresh
            // partition): its directory entry must survive power loss
            // before any fsynced record in it is acknowledged — syncing
            // bytes into a file whose name a crash can erase syncs
            // nothing.
            self.vfs.dir_sync(&pdir).map_err(|e| io_err(&pdir, e))?;
        }
        let end = self.mem.end_offset(partition);
        Ok((
            PartFiles {
                log,
                log_path,
                seg_base,
                log_durable: seg_len,
            },
            PartStage {
                buf: Vec::new(),
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
            stage.buf.extend_from_slice(&frame);
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

    /// Writes one batch of frame bytes to the open segment (syncing it
    /// when [`PersistentTopicOptions::sync_appends`] is on) and advances
    /// the durable floor. Any failure wedges the topic: the bytes on disk
    /// can no longer be trusted past the recorded floor.
    fn write_segment(&self, files: &mut PartFiles, bytes: &[u8]) -> OmResult<()> {
        let written = write_all_retry(files.log.as_mut(), bytes).and_then(|()| {
            if self.options.sync_appends {
                files.log.sync_data()
            } else {
                Ok(())
            }
        });
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
    /// ONE `write_all`, then mirror the covered records into
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
        let (bytes, covered) = {
            let mut stage = self.stages[partition].lock();
            (std::mem::take(&mut stage.buf), stage.staged.len())
        };
        if !bytes.is_empty() {
            // The staged prefix can never be mirrored after a failure
            // here; write_segment wedges so nothing acknowledges records
            // a torn-tail replay would drop.
            self.write_segment(&mut files, &bytes)?;
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
                self.write_segment(&mut files, &bytes)?;
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

    /// Starts a fresh segment named after the next offset. Callers
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
        let log = self
            .vfs
            .open_append(&log_path)
            .map_err(|e| io_err(&log_path, e))?;
        if self.options.sync_appends {
            // The new segment's directory entry must survive a crash
            // before anything written into it is considered durable.
            self.vfs.dir_sync(&pdir).map_err(|e| io_err(&pdir, e))?;
        }
        files.log = log;
        files.log_path = log_path;
        files.seg_base = base;
        files.log_durable = 0;
        stage.seg_len = 0;
        self.segments_rolled.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Whether the topic is wedged: a segment write failed and every
    /// further append fails fast with
    /// [`OmError::Wedged`] until [`PersistentTopic::unwedge`] repairs
    /// the torn tail.
    pub fn is_wedged(&self) -> bool {
        self.wedged.load(Ordering::Acquire)
    }

    /// Repairs a wedged topic in place: per partition, the staged
    /// (never-acknowledged) records are dropped, the open segment is
    /// truncated back to the end of the last record the in-memory mirror
    /// holds, the kept prefix is verified to parse, and the append handle
    /// is re-opened. Returns the total torn log bytes dropped;
    /// acknowledged records are never touched (their bytes sit below the
    /// durable floor by construction). A healthy topic returns
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
            // Cut back to what the mirror holds: the end of the open
            // segment's first `mirrored` frames. Walking them within the
            // durably written bytes both finds the cut and verifies the
            // kept prefix before anything is truncated — if they do not
            // parse, the damage reaches acknowledged bytes and dropping
            // the tail would silently lose acked records: stay wedged. A
            // durable surplus past the cut (a flush that wrote but never
            // mirrored) was never acknowledged, so it goes with the tail.
            let mirrored = self.mem.end_offset(partition) - files.seg_base;
            let on_disk = self
                .vfs
                .read(&files.log_path)
                .map_err(|e| io_err(&files.log_path, e))?;
            let durable = &on_disk[..(files.log_durable as usize).min(on_disk.len())];
            let mut cut = 0usize;
            for frames in 0..mirrored {
                match parse_frame(durable, cut) {
                    Ok(Some((_, next))) => cut = next,
                    _ => {
                        return Err(OmError::Internal(format!(
                            "unwedge verification failed for {:?}: its {} durable bytes \
                             hold {frames} records where {mirrored} acknowledged records \
                             were expected; the topic stays wedged",
                            files.log_path,
                            durable.len(),
                        )));
                    }
                }
            }
            let log_target = cut as u64;
            torn_total += on_disk.len() as u64 - log_target;
            let mut f = self
                .vfs
                .open_write(&files.log_path)
                .map_err(|e| io_err(&files.log_path, e))?;
            f.set_len(log_target).map_err(|e| io_err(&files.log_path, e))?;
            f.sync_data().map_err(|e| io_err(&files.log_path, e))?;
            drop(f);
            files.log = self
                .vfs
                .open_append(&files.log_path)
                .map_err(|e| io_err(&files.log_path, e))?;
            files.log_durable = log_target;
            stage.buf.clear();
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
    fn torn_tail_is_truncated_and_appends_resume() {
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
        // The log keeps working past the truncation point.
        t.append_raw(0, 9, 1, 77).unwrap();
        drop(t);
        let t = open(&dir, 1);
        let read = t.read_from(0, 0, 10);
        assert_eq!(read.len(), 4);
        assert_eq!(read[3].payload, 77);
    }

    /// Appends `records` records, round-robin over `partitions`, into a
    /// topic whose segments roll every `segment_bytes`; payload `i` is
    /// the `i`-th append.
    fn fill_segmented(dir: &Path, partitions: usize, segment_bytes: u64, records: u64) {
        let t: PersistentTopic<u64> = PersistentTopic::open_with(
            dir,
            "t",
            partitions,
            Arc::new(SerdeCodec),
            PersistentTopicOptions {
                segment_bytes,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..records {
            t.append_raw((i % partitions as u64) as usize, 1, i + 1, i)
                .unwrap();
        }
        assert!(t.counters()["log.segments_rolled"] >= 2);
    }

    fn segment_files(dir: &Path, partition: usize, ext: &str) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir.join(format!("p{partition}")))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == ext))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn multi_segment_replay_restores_everything() {
        let dir = scratch("multi-seg");
        let _guard = DirGuard(dir.clone());
        fill_segmented(&dir, 2, 48, 30);
        assert!(
            segment_files(&dir, 0, "log").len() >= 3,
            "partition 0 spans segments"
        );
        let t = open(&dir, 2);
        assert_eq!(EventLog::len(&t), 30);
        assert_eq!(t.counters()["log.recovered_records"], 30);
        for p in 0..2u64 {
            let read = t.read_from(p as usize, 0, 100);
            assert_eq!(
                read.iter()
                    .map(|e| (e.offset, e.seq, e.payload))
                    .collect::<Vec<_>>(),
                (0..15)
                    .map(|o| (o, 2 * o + p + 1, 2 * o + p))
                    .collect::<Vec<_>>(),
                "partition {p}: dense offsets, payloads in append order"
            );
        }
        // A read starting mid-log crosses segment boundaries in order.
        let read = t.read_from(0, 7, 5);
        assert_eq!(
            read.iter()
                .map(|e| (e.offset, e.payload))
                .collect::<Vec<_>>(),
            (7..12).map(|o| (o, 2 * o)).collect::<Vec<_>>()
        );
        assert_eq!(t.read_from(0, 14, 10).len(), 1);
        assert!(t.read_from(0, 15, 10).is_empty());
        // Appends resume after the last segment's final record.
        assert_eq!(t.append_raw(0, 2, 1, 900).unwrap(), 15);
    }

    #[test]
    fn index_sidecars_left_by_older_versions_do_not_affect_recovery() {
        let dir = scratch("old-idx");
        let _guard = DirGuard(dir.clone());
        fill_segmented(&dir, 1, 48, 12);
        // Earlier builds kept a `seg-<base>.idx` offset index beside every
        // segment; this one never reads them, damaged or not.
        let logs = segment_files(&dir, 0, "log");
        assert!(logs.len() >= 3);
        fs::write(logs[0].with_extension("idx"), b"not an offset index").unwrap();
        fs::write(logs[1].with_extension("idx"), []).unwrap();
        fs::write(dir.join("p0").join("seg-999.idx"), [0xFF; 24]).unwrap();
        let t = open(&dir, 1);
        assert_eq!(t.counters()["log.recovered_records"], 12);
        let payloads: Vec<u64> = t.read_from(0, 0, 100).iter().map(|e| e.payload).collect();
        assert_eq!(payloads, (0..12).collect::<Vec<_>>());
        t.append_raw(0, 2, 1, 12).unwrap();
        drop(t);
        let t = open(&dir, 1);
        assert_eq!(EventLog::len(&t), 13);
        assert_eq!(t.read_from(0, 12, 1)[0].payload, 12);
        assert_eq!(
            fs::read(logs[0].with_extension("idx")).unwrap(),
            b"not an offset index",
            "an old sidecar is neither read nor rewritten"
        );
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
    fn a_full_disk_wedges_and_unwedge_cuts_the_partial_frame() {
        let dir = scratch("disk-full");
        let _guard = DirGuard(dir.clone());
        let vfs = om_storage::FaultVfs::new(17);
        let t: PersistentTopic<u64> = PersistentTopic::open_with_vfs(
            &dir,
            "t",
            1,
            Arc::new(SerdeCodec),
            PersistentTopicOptions::default(),
            Arc::new(vfs.clone()),
        )
        .unwrap();
        t.append_raw(0, 1, 1, 10).unwrap();
        t.append_raw(0, 1, 2, 20).unwrap();
        let frame = t.counters()["log.appended_bytes"] / 2;
        // Clones share one fault schedule: half of the next frame fits.
        let _ = vfs.clone().disk_full_after(2 * frame + frame / 2);
        assert_eq!(t.append_raw(0, 1, 3, 30).unwrap_err().label(), "wedged");
        let seg = dir.join("p0").join("seg-0.log");
        assert_eq!(fs::metadata(&seg).unwrap().len(), 2 * frame + frame / 2);
        assert_eq!(
            t.unwedge().unwrap(),
            frame / 2,
            "exactly the partial frame goes"
        );
        assert_eq!(fs::metadata(&seg).unwrap().len(), 2 * frame);
        // The disk is still full: the next append wedges again, typed.
        assert_eq!(t.append_raw(0, 1, 4, 40).unwrap_err().label(), "wedged");
        drop(t);
        let t = open(&dir, 1);
        let payloads: Vec<u64> = t.read_from(0, 0, 10).iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![10, 20]);
    }

    #[test]
    fn torn_write_after_a_roll_is_cut_back_inside_the_new_segment() {
        let dir = scratch("torn-roll");
        let _guard = DirGuard(dir.clone());
        // Writes 1-2 fill the first 48-byte segment, write 3 opens the
        // second, write 4 tears.
        let vfs = om_storage::FaultVfs::new(19).torn_write(4);
        let t: PersistentTopic<u64> = PersistentTopic::open_with_vfs(
            &dir,
            "t",
            1,
            Arc::new(SerdeCodec),
            PersistentTopicOptions {
                segment_bytes: 48,
                ..Default::default()
            },
            Arc::new(vfs.clone()),
        )
        .unwrap();
        for seq in 1..=3 {
            t.append_raw(0, 1, seq, seq * 10).unwrap();
        }
        assert_eq!(t.counters()["log.segments_rolled"], 1);
        assert_eq!(t.append_raw(0, 1, 4, 40).unwrap_err().label(), "wedged");
        assert!(
            vfs.fired().iter().any(|f| f.contains("torn")),
            "{:?}",
            vfs.fired()
        );
        t.unwedge().unwrap();
        assert_eq!(t.append_raw(0, 1, 5, 50).unwrap(), 3, "offsets stay dense");
        drop(t);
        let t = open(&dir, 1);
        let read = t.read_from(0, 0, 10);
        assert_eq!(
            read.iter()
                .map(|e| (e.offset, e.payload))
                .collect::<Vec<_>>(),
            vec![(0, 10), (1, 20), (2, 30), (3, 50)]
        );
        assert_eq!(
            t.counters()["log.torn_tail_bytes"],
            0,
            "unwedge left no torn tail"
        );
    }

    #[test]
    fn damage_in_a_segment_before_the_last_is_refused() {
        let dir = scratch("mid-damage");
        let _guard = DirGuard(dir.clone());
        fill_segmented(&dir, 1, 48, 8);
        let first = &segment_files(&dir, 0, "log")[0];
        let mut bytes = fs::read(first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(first, &bytes).unwrap();
        let err = PersistentTopic::<u64>::open_serde(&dir, "t", 1).unwrap_err();
        assert!(
            err.to_string().contains("is not the final segment"),
            "{err}"
        );
    }

    #[test]
    fn a_segment_named_after_the_wrong_offset_is_refused() {
        let dir = scratch("bad-base");
        let _guard = DirGuard(dir.clone());
        // Seven records: the last segment holds one.
        fill_segmented(&dir, 1, 48, 7);
        let last = segment_files(&dir, 0, "log").pop().unwrap();
        fs::rename(&last, dir.join("p0").join("seg-99.log")).unwrap();
        let err = PersistentTopic::<u64>::open_serde(&dir, "t", 1).unwrap_err();
        assert!(err.to_string().contains("seg-99.log"), "{err}");
    }

    #[test]
    fn a_frame_too_short_for_its_record_header_is_refused() {
        let dir = scratch("short-frame");
        let _guard = DirGuard(dir.clone());
        drop(open(&dir, 1));
        let mut bytes = Vec::new();
        push_frame(&mut bytes, &[0u8; 8]);
        fs::write(dir.join("p0").join("seg-0.log"), &bytes).unwrap();
        let err = PersistentTopic::<u64>::open_serde(&dir, "t", 1).unwrap_err();
        assert!(
            err.to_string().contains("undecodable record at byte 0"),
            "{err}"
        );
    }

    #[test]
    fn unwedge_refuses_when_damage_reaches_acknowledged_records() {
        let dir = scratch("wedge-damaged");
        let _guard = DirGuard(dir.clone());
        let opts = PersistentTopicOptions {
            sync_appends: true,
            ..Default::default()
        };
        let fault = om_storage::FaultVfs::new(13).fail_nth_sync(3);
        let t: PersistentTopic<u64> = PersistentTopic::open_with_vfs(
            &dir,
            "t",
            1,
            Arc::new(SerdeCodec),
            opts,
            Arc::new(fault),
        )
        .unwrap();
        t.append_raw(0, 1, 1, 5).unwrap();
        t.append_raw(0, 1, 2, 6).unwrap();
        assert_eq!(t.append_raw(0, 1, 3, 7).unwrap_err().label(), "wedged");
        // Flip a byte inside the second acknowledged frame: truncating
        // back to the mirror would now keep a damaged record.
        let seg = dir.join("p0").join("seg-0.log");
        let mut bytes = fs::read(&seg).unwrap();
        let one_frame = bytes.len() / 3;
        bytes[one_frame + one_frame / 2] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let err = t.unwedge().unwrap_err();
        assert_eq!(err.label(), "internal");
        assert!(err.to_string().contains("hold 1 records where 2"), "{err}");
        assert!(
            t.is_wedged(),
            "a failed verification leaves the topic wedged"
        );
        assert_eq!(t.append_raw(0, 1, 4, 8).unwrap_err().label(), "wedged");
        assert_eq!(fs::read(&seg).unwrap(), bytes, "nothing was truncated");
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
