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
//! <dir>/p<i>/seg-<base>.log   framed records, <base> = offset of the first,
//!                             zero-padded to segment_bytes
//! ```
//!
//! Every record is appended as one CRC-framed blob (`om_common::checksum`)
//! containing `(producer, seq, payload)` and is flushed **before** the
//! append is acknowledged or mirrored in memory — so an offset a consumer
//! has seen can never point at a record that would vanish in a crash.
//! Every append is written: a repeated `(producer, seq)` pair is a new
//! record at the next offset.
//!
//! Each partition is one `om_storage::segment_log::SegmentLog` — the
//! same append, group-flush, replay, roll and unwedge code as the file
//! backend's WAL. This module keeps what is the topic's own: the record
//! codec and mirroring a written record into the in-memory [`Topic`].
//!
//! Recovery on [`PersistentTopic::open`] replays all segments in order,
//! zeroing a torn tail of the final segment. Reads are served from
//! the in-memory mirror that replay rebuilds; `seg-<base>.idx`
//! offset-index files left by older builds are ignored.
//!
//! ```
//! use om_log::{EventLog, PersistentTopic};
//!
//! let dir = std::env::temp_dir().join(format!("om-doc-topic-{}", std::process::id()));
//! let topic: PersistentTopic<u64> =
//!     PersistentTopic::open_serde(&dir, "orders", 2).unwrap();
//! topic.append_raw(0, 1, 1, 42).unwrap();
//! drop(topic);
//!
//! // A cold restart replays the segments: the record is still there.
//! let reborn: PersistentTopic<u64> =
//!     PersistentTopic::open_serde(&dir, "orders", 2).unwrap();
//! assert_eq!(reborn.read_from(0, 0, 10)[0].payload, 42);
//! # drop(reborn);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::event_log::EventLog;
use crate::topic::{Entry, Topic};
use om_common::config::GroupCommitPolicy;
use om_common::{OmError, OmResult};
use om_storage::segment_log::{CommitGroupStats, LogConfig, LogStats, SegmentLog};
use om_storage::vfs::{real_vfs, Vfs};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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
    /// Segment size in bytes per partition: each segment is created
    /// holding this many zeros, and an append that reaches its end
    /// starts a new one.
    pub segment_bytes: u64,
    /// The one group-flush policy, [`GroupCommitPolicy::Cohort`]: every
    /// append goes through the partition log's commit barrier (see
    /// [`om_storage::segment_log`]) — appenders stage their frame into an
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

/// A [`Topic`] whose records live in segment files: the durable flavour
/// of the event log. See the module docs for layout and recovery rules.
pub struct PersistentTopic<T> {
    /// In-memory mirror (read path + `max_seq`), rebuilt from the
    /// segments on open.
    mem: Topic<T>,
    /// One segment log per partition, of `(producer, seq, record)`.
    logs: Vec<SegmentLog<(u64, u64, T)>>,
    /// Exclusive OS lock on `<dir>/LOCK` for the topic's lifetime (two
    /// live processes must never interleave segment appends); released
    /// by the OS on process death, so it cannot go stale.
    _lock: std::fs::File,
    dir: PathBuf,
    codec: Arc<dyn RecordCodec<T>>,
    recovered_records: u64,
}

impl<T> std::fmt::Debug for PersistentTopic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentTopic")
            .field("dir", &self.dir)
            .field("partitions", &self.logs.len())
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
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let lock = om_common::dirlock::lock_dir(&dir)?;
        check_meta(&*vfs, &dir, &name, partitions)?;
        let mem = Topic::new(name, partitions);
        let mut recovered_records = 0;
        let mut logs = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let cfg = LogConfig {
                kind: "persistent topic",
                dir: dir.join(format!("p{p}")),
                prefix: "seg-",
                segment_bytes: options.segment_bytes,
                sync: options.sync_appends,
            };
            // Replay rebuilds the mirror; a record must sit at the
            // offset its segment's name implies.
            logs.push(SegmentLog::open(cfg, vfs.clone(), 0, |frame| {
                let corrupt = || corrupt(frame.path, frame.at);
                let (header, body) = frame.payload.split_at_checked(16).ok_or_else(corrupt)?;
                let word = |at: usize| {
                    u64::from_le_bytes(header[at..at + 8].try_into().expect("8 of 16 bytes"))
                };
                let (producer, seq) = (word(0), word(8));
                let offset = mem.append_raw(p, producer, seq, codec.decode(body)?)?;
                if offset != frame.number {
                    return Err(corrupt());
                }
                recovered_records += 1;
                Ok(offset)
            })?);
        }
        Ok(Self {
            mem,
            logs,
            _lock: lock,
            dir,
            codec,
            recovered_records,
        })
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

    /// Appends `(producer, seq, payload)` to `partition` as one frame,
    /// written **before** the record becomes readable. The write is
    /// batched: the record is staged on the partition's log and the
    /// caller parks until a cohort leader has written (and mirrored) it
    /// — one write shared by every record staged meanwhile. Returns the
    /// record's offset.
    pub fn append_raw(
        &self,
        partition: usize,
        producer: u64,
        seq: u64,
        payload: T,
    ) -> OmResult<u64> {
        let log = self
            .logs
            .get(partition)
            .ok_or_else(|| OmError::NotFound(format!("partition {partition}")))?;
        let body = self.codec.encode(&payload)?;
        let record = [&producer.to_le_bytes()[..], &seq.to_le_bytes(), &body].concat();
        let ticket = log.stage(|stage| Ok(stage.push(&record, (producer, seq, payload))))?;
        let mirror = |(producer, seq, payload)| {
            self.mem.append_raw(partition, producer, seq, payload).map(drop)
        };
        log.wait(ticket, &mirror, &|held| held.roll_if_due())?;
        Ok(ticket.number)
    }

    /// Group-flush statistics summed over all partitions.
    pub fn group_stats(&self) -> CommitGroupStats {
        self.stats().group
    }

    fn stats(&self) -> LogStats {
        self.logs.iter().map(|log| log.stats()).fold(LogStats::default(), LogStats::merge)
    }

    /// Whether a partition is wedged: one of its segment writes failed
    /// and every further append to it fails fast with
    /// [`OmError::Wedged`] until [`PersistentTopic::unwedge`] repairs
    /// the torn tail.
    pub fn is_wedged(&self) -> bool {
        self.logs.iter().any(|log| log.is_wedged())
    }

    /// Repairs every wedged partition in place
    /// ([`SegmentLog::unwedge`]): the staged (never-acknowledged)
    /// records are dropped, the open segment is cut back to the end of
    /// the last record the in-memory mirror holds, after checking that
    /// the kept frames parse, and offsets resume right after it.
    /// Returns the total torn bytes dropped; acknowledged records are
    /// never touched. A healthy topic returns `Ok(0)` untouched. If a
    /// verification fails that partition stays wedged and an `Internal`
    /// error reports why.
    pub fn unwedge(&self) -> OmResult<u64> {
        self.logs.iter().map(|log| log.unwedge(|_| true)).sum()
    }

    /// Durability/diagnostic counters of this topic.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let stats = self.stats();
        let mut out = BTreeMap::new();
        out.insert("log.appended_bytes".into(), stats.appended_bytes);
        out.insert("log.recovered_records".into(), self.recovered_records);
        out.insert("log.torn_tail_bytes".into(), stats.torn_tail_bytes);
        out.insert("log.segments_rolled".into(), stats.segments_rolled);
        out.insert("log.wedged".into(), u64::from(self.is_wedged()));
        out.insert("log.unwedges".into(), stats.unwedges);
        out.insert("log.group_flushes".into(), stats.group.flushes);
        out.insert("log.group_records".into(), stats.group.released);
        out.insert("log.max_flush_cohort".into(), stats.group.max_cohort);
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
/// name and partition count, otherwise offsets would be meaningless. The
/// file is written unsynced, so a power loss can leave a strict prefix
/// of it, or (XFS, ext4 `data=writeback`) a prefix followed by zeros up
/// to its length; that is a meta this open would have written, and it
/// is written again.
fn check_meta(vfs: &dyn Vfs, dir: &Path, name: &str, partitions: usize) -> OmResult<()> {
    let meta_path = dir.join("topic.meta");
    let expected = format!("om-topic-v1\n{name}\n{partitions}\n");
    let cut_short = |existing: &[u8]| {
        let landed = existing.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        existing.len() <= expected.len() && expected.as_bytes().starts_with(&existing[..landed])
    };
    match vfs.read(&meta_path) {
        Ok(existing) if existing == expected.as_bytes() => Ok(()),
        Ok(existing) if !cut_short(&existing) => {
            Err(OmError::Rejected(format!(
                "persistent topic {dir:?} was created as {:?} but opened as \
                 name={name} partitions={partitions}",
                String::from_utf8_lossy(&existing).trim().replace('\n', " / ")
            )))
        }
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(&meta_path, e)),
        _ => vfs
            .write_file(&meta_path, expected.as_bytes())
            .map_err(|e| io_err(&meta_path, e)),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_common::checksum::{parse_frame, push_frame};
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// The end of a segment's written region: its last whole frame.
    fn written_end(bytes: &[u8]) -> usize {
        let mut end = 0;
        while let Ok(Some((_, next))) = parse_frame(bytes, end) {
            end = next;
        }
        end
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
        assert_eq!(
            read.iter().map(|e| (e.producer, e.seq)).collect::<Vec<_>>(),
            (0..5).map(|o| (1, 2 * o + 1)).collect::<Vec<_>>(),
            "the record header survives"
        );
        // max_seq was rebuilt, so a resuming producer stays monotonic,
        // and appends resume at the next offset.
        assert_eq!((t.max_seq(0), t.max_seq(1)), (9, 10));
        assert_eq!(t.append_raw(0, 1, 11, 77).unwrap(), 5);
        assert_eq!(t.max_seq(0), 11);
    }

    #[test]
    fn a_repeated_pair_is_written_again_and_both_copies_survive_a_reopen() {
        let dir = scratch("repeat");
        let _guard = DirGuard(dir.clone());
        {
            let t = open(&dir, 1);
            assert_eq!(t.append_raw(0, 1, 1, 42).unwrap(), 0);
            let bytes_after_first = t.counters()["log.appended_bytes"];
            assert_eq!(t.append_raw(0, 1, 1, 42).unwrap(), 1);
            assert_eq!(
                t.counters()["log.appended_bytes"],
                2 * bytes_after_first,
                "the repeat is written like any record"
            );
        }
        let t = open(&dir, 1);
        assert_eq!(t.counters()["log.recovered_records"], 2);
        let read = t.read_from(0, 0, 10);
        assert_eq!(
            read.iter()
                .map(|e| (e.offset, e.producer, e.seq, e.payload))
                .collect::<Vec<_>>(),
            vec![(0, 1, 1, 42), (1, 1, 1, 42)]
        );
        assert_eq!(t.max_seq(0), 1);
    }

    /// Two threads draw seqs from one counter and append to one
    /// partition, as two callers of the dataflow runtime's `submit` do,
    /// so seqs land out of order: seq 2 is forced in before seq 1, the
    /// rest race. Each append gets its own offset, and a reopen reads
    /// the same partition back.
    #[test]
    fn racing_seqs_into_one_partition_are_each_stored_once() {
        const PER_THREAD: u64 = 200;
        let dir = scratch("race");
        let _guard = DirGuard(dir.clone());
        let seqs = &AtomicU64::new(1);
        let (drawn, landed) = (&std::sync::Barrier::new(2), &std::sync::Barrier::new(2));
        let topic = open(&dir, 1);
        let t = &topic;
        let acked: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let append = |seq: u64| (t.append_raw(0, 0, seq, seq * 10).unwrap(), seq);
                        let first = seqs.fetch_add(1, Ordering::Relaxed);
                        drawn.wait();
                        // Seq 2 lands, then seq 1, then both threads race.
                        if first == 1 {
                            landed.wait();
                        }
                        let mut acked = vec![append(first)];
                        landed.wait();
                        if first == 2 {
                            landed.wait();
                        }
                        for _ in 1..PER_THREAD {
                            acked.push(append(seqs.fetch_add(1, Ordering::Relaxed)));
                        }
                        acked
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        let mut offsets: Vec<u64> = acked.iter().map(|&(offset, _)| offset).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, (0..2 * PER_THREAD).collect::<Vec<_>>(), "dense, each acked once");
        let read = t.read_from(0, 0, usize::MAX);
        for &(offset, seq) in &acked {
            let e = &read[offset as usize];
            assert_eq!((e.offset, e.seq, e.payload), (offset, seq, seq * 10));
        }
        assert_eq!((read[0].seq, read[1].seq), (2, 1), "seq 1 landed after seq 2");
        assert_eq!(t.max_seq(0), 2 * PER_THREAD);
        drop(topic);
        let t = open(&dir, 1);
        assert_eq!(t.read_from(0, 0, usize::MAX), read, "a reopen reads the same partition");
        assert_eq!(t.max_seq(0), 2 * PER_THREAD);
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
        // A crash that kept a strict prefix of the segment's bytes.
        let seg = dir.join("p0").join("seg-0.log");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..written_end(&bytes) - 5]).unwrap();

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

    /// A segment tail that reads back as zeros is the end of the log,
    /// not a record too short for its header.
    #[test]
    fn a_segment_tail_of_zeros_is_the_end_of_the_log() {
        use std::io::Write as _;
        let dir = scratch("zero-tail");
        let _guard = DirGuard(dir.clone());
        {
            let t = open(&dir, 1);
            for i in 0..5u64 {
                t.append_raw(0, 1, i + 1, i).unwrap();
            }
        }
        let seg = dir.join("p0").join("seg-0.log");
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0; 4_096]).unwrap();
        drop(f);
        let t = open(&dir, 1);
        assert_eq!(EventLog::len(&t), 5);
        assert_eq!(
            t.counters()["log.torn_tail_bytes"],
            0,
            "zeros are not torn bytes"
        );
        assert_eq!(t.append_raw(0, 2, 1, 5).unwrap(), 5);
        drop(t);
        let t = open(&dir, 1);
        let payloads: Vec<u64> = t.read_from(0, 0, 10).iter().map(|e| e.payload).collect();
        assert_eq!(payloads, (0..6).collect::<Vec<_>>());
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
    fn a_meta_cut_short_by_power_loss_is_written_again() {
        let dir = scratch("torn-meta");
        let _guard = DirGuard(dir.clone());
        drop(open(&dir, 2));
        let meta = dir.join("topic.meta");
        let full = fs::read(&meta).unwrap();
        for cut in [0, 5, full.len() - 1] {
            fs::write(&meta, &full[..cut]).unwrap();
            drop(open(&dir, 2));
            assert_eq!(fs::read(&meta).unwrap(), full, "cut={cut}");
            // The lost bytes read back as zeros, the length kept.
            let mut zeroed = full.clone();
            zeroed[cut..].fill(0);
            fs::write(&meta, &zeroed).unwrap();
            drop(open(&dir, 2));
            assert_eq!(fs::read(&meta).unwrap(), full, "cut={cut}, zeros");
        }
        // A whole meta of another shape is still a mismatch, not a cut.
        fs::write(&meta, b"om-topic-v1\nt\n1\n").unwrap();
        let err = PersistentTopic::<u64>::open_serde(&dir, "t", 2).unwrap_err();
        assert_eq!(err.label(), "rejected");
    }

    #[test]
    fn group_flush_batches_appends_and_survives_reopen() {
        let dir = scratch("group");
        let _guard = DirGuard(dir.clone());
        let opts = PersistentTopicOptions::default();
        let written = {
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
            let CommitGroupStats { flushes, released, .. } = t.group_stats();
            assert_eq!(released, WRITERS * RECORDS, "every append released");
            assert!(flushes <= released, "never more flushes than appends");
            // Offsets are dense and every record readable once acked.
            let read = t.read_from(0, 0, 1000);
            assert_eq!(read.len(), (WRITERS * RECORDS) as usize);
            assert!(read.iter().enumerate().all(|(i, e)| e.offset == i as u64));
            read
        };
        // Cold reopen recovers everything the group path flushed.
        let t: PersistentTopic<u64> =
            PersistentTopic::open_with(&dir, "t", 1, Arc::new(SerdeCodec), opts).unwrap();
        assert_eq!(t.counters()["log.recovered_records"], 100);
        assert_eq!(t.read_from(0, 0, 1000), written);
        assert_eq!(t.max_seq(0), 25);
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
            let stats = t.group_stats();
            assert_eq!(
                (stats.flushes, stats.released, stats.max_cohort),
                (6, 6, 1),
                "nothing to batch with"
            );
        }
        // After recovery each partition's first flush is a cohort of one,
        // not the replayed records plus one.
        let t = open(&dir, 2);
        t.append_raw(0, 2, 1, 60).unwrap();
        t.append_raw(1, 2, 2, 61).unwrap();
        let stats = t.group_stats();
        assert_eq!((stats.flushes, stats.released, stats.max_cohort), (2, 2, 1));
        assert_eq!(t.read_from(1, 3, 10)[0].payload, 61, "offsets resume past the replay");
    }

    #[test]
    fn sync_failure_wedges_and_unwedge_repairs_in_place() {
        let dir = scratch("wedge");
        let _guard = DirGuard(dir.clone());
        // Sync 1 is the segment's zero fill, sync 2 record 1's.
        let fault = om_storage::FaultVfs::new(7).fail_nth_sync(3);
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
        // Sync 1 is the segment's zero fill.
        let fault = om_storage::FaultVfs::new(11).fail_nth_sync(3);
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
        // Two 32-byte frames fit the 80-byte segment, half the third
        // does: only that half would grow the file.
        const FRAME: u64 = 32;
        let t: PersistentTopic<u64> = PersistentTopic::open_with_vfs(
            &dir,
            "t",
            1,
            Arc::new(SerdeCodec),
            PersistentTopicOptions {
                segment_bytes: 2 * FRAME + FRAME / 2,
                ..Default::default()
            },
            Arc::new(vfs.clone()),
        )
        .unwrap();
        t.append_raw(0, 1, 1, 10).unwrap();
        t.append_raw(0, 1, 2, 20).unwrap();
        assert_eq!(t.counters()["log.appended_bytes"], 2 * FRAME);
        // Clones share one fault schedule: the disk is full from the
        // segment's size on, so the third frame lands only in place.
        let _ = vfs.clone().disk_full_after(2 * FRAME + FRAME / 2);
        assert_eq!(t.append_raw(0, 1, 3, 30).unwrap_err().label(), "wedged");
        let seg = dir.join("p0").join("seg-0.log");
        let bytes = fs::read(&seg).unwrap();
        assert_eq!(
            bytes.len() as u64,
            2 * FRAME + FRAME / 2,
            "the file did not grow"
        );
        assert_eq!(written_end(&bytes) as u64, 2 * FRAME);
        assert_eq!(
            t.unwedge().unwrap(),
            FRAME,
            "exactly the frame it tried goes"
        );
        let bytes = fs::read(&seg).unwrap();
        assert_eq!(bytes.len() as u64, 2 * FRAME + FRAME / 2);
        assert!(
            bytes[2 * FRAME as usize..].iter().all(|&b| b == 0),
            "the partial frame is zeroed"
        );
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
        // Write 1 zero-fills the first 48-byte segment, writes 2-3 fill
        // it, write 4 zero-fills the second, write 5 is record 3 and
        // write 6 tears.
        let vfs = om_storage::FaultVfs::new(19).torn_write(6);
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
        // Sync 1 is the segment's zero fill.
        let fault = om_storage::FaultVfs::new(13).fail_nth_sync(4);
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
        let one_frame = written_end(&bytes) / 3;
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
}
