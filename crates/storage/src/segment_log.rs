//! One segment log: the append, group-flush, replay, roll and unwedge
//! path both durable stores share. The file backend keeps its WAL in
//! one (`<dir>/wal/wal-<n>.log`); `om-log`'s persistent topic keeps one
//! per partition (`<dir>/p<i>/seg-<n>.log`).
//!
//! A log is a directory of `<prefix><n>.log` segments, `n` being the
//! number of the segment's first record, each a run of CRC frames
//! (`om_common::checksum`). The caller owns what a record means: its
//! payload codec, and what applying a durable record does (the backend
//! applies a batch to its in-memory image; the topic mirrors a record into its
//! in-memory partition).
//!
//! A segment is **created full-size**: `<prefix><n>.tmp` is filled with
//! [`LogConfig::segment_bytes`] zeros and renamed into place (a syncing
//! log syncs the zeros before the rename and the directory after it).
//! Records are then written **in place** from its first byte, through
//! one [`Vfs::open_write`] handle, so a cohort's `fdatasync` flushes
//! data blocks the file already owns and never a new file size or block
//! map. Only a cohort that overruns the end grows the file, once per
//! segment: the roll that follows starts the next one.
//!
//! **The end of the log.** No frame has an empty payload, so a segment's
//! written region ends at the first frame length that reads zero; the
//! zeros after it are padding. On open, every segment but the final one
//! must hold whole frames and then only zeros; damage there refuses the
//! open. In the final segment a frame that does not validate is a torn
//! tail: it and every byte after it are set to zero, the file is brought
//! back to its full size (an overrun's tail cut, a segment an older
//! build appended re-filled), and the log **resumes in that segment**: a
//! fresh handle rewrites the identical written prefix, which positions
//! it at the end of the log. Resuming, rather than starting a new
//! segment on every open, keeps one segment per `segment_bytes` of
//! records however often a store reopens, and the numbering a never
//! reopened log would have.
//!
//! The write path is split across two locks, always taken segment
//! before stage:
//!
//! * **Staging** ([`SegmentLog::stage`], the stage lock, microseconds):
//!   the caller frames its payload into an in-memory buffer and parks
//!   the decoded record. The log numbers records as they are staged, so
//!   log order is append order.
//! * **Flushing** ([`SegmentLog::wait`], the segment lock): a cohort
//!   leader elected through the commit barrier (`commit_group.rs`)
//!   swaps the staged bytes out (appenders keep staging the next cohort
//!   meanwhile) and writes them with ONE `write_all`, plus ONE
//!   `fdatasync` when the log syncs.
//!   Only then are the records applied, in order, and every covered
//!   appender released. Records stay staged while their bytes are in
//!   flight and are applied from there, so an unwedge after a failed
//!   write finds every record it must drop in one place.
//!
//! After each cohort the leader, still holding both locks, hands the
//! caller a [`Held`] log for maintenance: drain the rest of the stage,
//! roll to a new segment, or (the backend) write a snapshot and prune.
//! [`SegmentLog::hold`] is the same entry point outside the commit path.
//!
//! A failed write **wedges** the log: the bytes past the last good
//! write can no longer be trusted, so every later write fails fast with
//! [`OmError::Wedged`]. The flag is checked under the segment lock,
//! which every write holds, so no frame is ever written after the bytes
//! of a failed one. [`SegmentLog::unwedge`] cuts the open segment back
//! to its last applied frame and rewinds the numbering to it.
//!
//! Barrier tickets are separate from record numbers and are never
//! reused: an unwedge fails every ticket it drops, and the records
//! staged after it draw fresh ones even where their numbers repeat.

pub use crate::commit_group::CommitGroupStats;

use crate::commit_group::CommitGroup;
use crate::vfs::{write_all_retry, Vfs, VfsFile};
use om_common::checksum::{parse_frame, push_frame};
use om_common::{OmError, OmResult};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Where a log lives and how it writes.
#[derive(Debug)]
pub struct LogConfig {
    /// The owning store, for error messages (`"file backend"`).
    pub kind: &'static str,
    /// The segment directory (created if absent).
    pub dir: PathBuf,
    /// Segment file name prefix (`"wal-"`, `"seg-"`).
    pub prefix: &'static str,
    /// Segment size: each segment is created holding this many zeros,
    /// and one whose records reach it is closed by the next
    /// [`Held::roll_if_due`].
    pub segment_bytes: u64,
    /// `fdatasync` every cohort, and sync a new segment's zeros and then
    /// the directory when a segment is created.
    pub sync: bool,
}

/// One valid frame met by replay.
#[derive(Debug)]
pub struct Frame<'a> {
    /// The segment holding it.
    pub path: &'a Path,
    /// Its byte offset in that segment.
    pub at: usize,
    /// The segment's first record number plus the frame's index in it.
    pub number: u64,
    /// The frame payload.
    pub payload: &'a [u8],
}

/// Counters of one log (or, summed with [`LogStats::merge`], of many).
#[derive(Debug, Clone, Copy, Default)]
pub struct LogStats {
    /// Frame bytes staged since open.
    pub appended_bytes: u64,
    /// Segments started by a roll.
    pub segments_rolled: u64,
    /// Torn-tail bytes the open zeroed: those from the end of the final
    /// segment's written region to its last non-zero byte (the padding
    /// does not count).
    pub torn_tail_bytes: u64,
    /// Successful unwedges.
    pub unwedges: u64,
    /// Failed post-cohort maintenance passes (the cohort itself had
    /// already succeeded).
    pub maintenance_errors: u64,
    /// The commit barrier's counters.
    pub group: CommitGroupStats,
}

impl LogStats {
    /// Sums two logs' counters (`max_cohort` takes the larger).
    pub fn merge(self, o: LogStats) -> LogStats {
        LogStats {
            appended_bytes: self.appended_bytes + o.appended_bytes,
            segments_rolled: self.segments_rolled + o.segments_rolled,
            torn_tail_bytes: self.torn_tail_bytes + o.torn_tail_bytes,
            unwedges: self.unwedges + o.unwedges,
            maintenance_errors: self.maintenance_errors + o.maintenance_errors,
            group: CommitGroupStats {
                flushes: self.group.flushes + o.group.flushes,
                released: self.group.released + o.group.released,
                max_cohort: self.group.max_cohort.max(o.group.max_cohort),
            },
        }
    }
}

/// A staged record's number and barrier ticket, to [`SegmentLog::wait`] on.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    /// The record's number (the backend's commit sequence, the topic's
    /// offset).
    pub number: u64,
    ticket: u64,
}

/// The staged half of a log, guarded by the stage lock.
pub struct Stage<R> {
    /// Frames staged since the last leader took them, in order.
    buf: Vec<u8>,
    /// Records staged and not yet applied; the last is number `next - 1`.
    records: Vec<R>,
    /// Number of the next record staged.
    next: u64,
    /// Last barrier ticket issued.
    tickets: u64,
    /// Length of the open segment including staged bytes.
    seg_len: u64,
    /// The log's counters: every event that moves one holds the stage
    /// lock. [`SegmentLog::stats`] adds the barrier's.
    stats: LogStats,
}

impl<R> Stage<R> {
    /// Number of the next record staged.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Stages `payload` as one frame and `record` as what applying it
    /// does; the record takes number [`next`](Self::next).
    pub fn push(&mut self, payload: &[u8], record: R) -> Ticket {
        let before = self.buf.len();
        push_frame(&mut self.buf, payload);
        let framed = (self.buf.len() - before) as u64;
        self.seg_len += framed;
        self.stats.appended_bytes += framed;
        self.records.push(record);
        self.next += 1;
        self.tickets += 1;
        Ticket {
            number: self.next - 1,
            ticket: self.tickets,
        }
    }
}

/// The durable half, guarded by the segment lock.
struct Segment {
    /// Positioned at `durable_len`.
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Bytes of the open segment known written: its written region.
    durable_len: u64,
    /// End of the bytes a failed write tried to put after
    /// `durable_len` (0 while no write has failed).
    tried_len: u64,
    /// Frames of the open segment whose records were applied: what an
    /// unwedge keeps.
    applied_frames: u64,
    /// Number after the last applied record.
    applied: u64,
    /// Ticket of the last applied record.
    applied_ticket: u64,
}

/// What applying one durable record does.
pub type Apply<'a, R> = &'a dyn Fn(R) -> OmResult<()>;

/// A log held under both locks (see [`SegmentLog::hold`]).
pub struct Held<'a, R> {
    log: &'a SegmentLog<R>,
    seg: &'a mut Segment,
    stage: &'a mut Stage<R>,
    apply: Apply<'a, R>,
}

impl<R> Held<'_, R> {
    /// Number of the next record staged; after [`drain`](Self::drain),
    /// one past the last record written and applied.
    pub fn next(&self) -> u64 {
        self.stage.next
    }

    /// Writes and applies everything staged.
    pub fn drain(&mut self) -> OmResult<()> {
        self.log.check_wedge()?;
        let bytes = std::mem::take(&mut self.stage.buf);
        self.log.write(self.seg, &bytes)?;
        self.apply_first(self.stage.records.len())
    }

    /// Drains, then starts segment `<prefix><next>.log`.
    pub fn roll(&mut self) -> OmResult<()> {
        self.drain()?;
        let path = segment_path(&self.log.cfg, self.stage.next);
        self.seg.file = create_segment(&self.log.cfg, &*self.log.vfs, &path)?;
        self.seg.path = path;
        self.seg.durable_len = 0;
        self.seg.tried_len = 0;
        self.seg.applied_frames = 0;
        self.stage.seg_len = 0;
        self.stage.stats.segments_rolled += 1;
        Ok(())
    }

    /// [`roll`](Self::roll)s once the open segment, staged bytes
    /// included, has reached [`LogConfig::segment_bytes`].
    pub fn roll_if_due(&mut self) -> OmResult<()> {
        if self.stage.seg_len >= self.log.cfg.segment_bytes {
            self.roll()
        } else {
            Ok(())
        }
    }

    /// Applies the first `n` staged records, whose bytes are written. A
    /// failed apply wedges the log: the record is durable but cannot be
    /// applied, and an unwedge cuts it away.
    fn apply_first(&mut self, n: usize) -> OmResult<()> {
        for record in self.stage.records.drain(..n) {
            if let Err(e) = (self.apply)(record) {
                self.log.wedged.store(true, Ordering::Release);
                return Err(e);
            }
            self.seg.applied_frames += 1;
            self.seg.applied += 1;
            self.seg.applied_ticket += 1;
        }
        Ok(())
    }
}

/// A segmented, group-flushed log of records `R`. See the module docs.
pub struct SegmentLog<R> {
    cfg: LogConfig,
    vfs: Arc<dyn Vfs>,
    stage: Mutex<Stage<R>>,
    segment: Mutex<Segment>,
    group: CommitGroup,
    wedged: AtomicBool,
}

/// Lists `<prefix><n><ext>` files in `dir` by ascending `n`, removing
/// `*.tmp` leftovers: files whose atomic rename never happened.
pub fn list(
    vfs: &dyn Vfs,
    dir: &Path,
    prefix: &str,
    ext: &str,
) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.ends_with(".tmp") {
            let _ = vfs.remove_file(&path);
        } else if let Some(n) = name
            .strip_prefix(prefix)
            .and_then(|n| n.strip_suffix(ext))
            .and_then(|n| n.parse().ok())
        {
            out.push((n, path));
        }
    }
    out.sort();
    Ok(out)
}

impl<R> SegmentLog<R> {
    /// Opens the log in `cfg.dir`, replaying every frame in order.
    /// `replay` returns the number of the record a frame holds; the log
    /// resumes one past the highest, and at `first` when that is higher
    /// (or the directory is empty). A torn tail of the final segment is
    /// zeroed and writing resumes at its start; damage in any other
    /// segment refuses the open (see the module docs).
    pub fn open(
        cfg: LogConfig,
        vfs: Arc<dyn Vfs>,
        first: u64,
        mut replay: impl FnMut(Frame<'_>) -> OmResult<u64>,
    ) -> OmResult<Self> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| io_err(&cfg, &cfg.dir, e))?;
        let segments =
            list(&*vfs, &cfg.dir, cfg.prefix, ".log").map_err(|e| io_err(&cfg, &cfg.dir, e))?;
        let (mut next, mut torn) = (first, 0u64);
        let mut tail = None;
        for (i, (base, path)) in segments.iter().enumerate() {
            let bytes = vfs.read(path).map_err(|e| io_err(&cfg, path, e))?;
            let last = i + 1 == segments.len();
            let (mut at, mut frames) = (0usize, 0u64);
            let end = loop {
                match parse_frame(&bytes, at) {
                    Ok(Some((payload, end))) => {
                        let number = base + frames;
                        next = next.max(
                            replay(Frame {
                                path,
                                at,
                                number,
                                payload,
                            })? + 1,
                        );
                        frames += 1;
                        at = end;
                    }
                    // The end of the frames, or (final segment) a torn
                    // tail: the previous process died mid-append.
                    // Everything before it is whole.
                    Ok(None) => break at,
                    Err(torn_at) if last => break torn_at,
                    Err(torn_at) => return Err(not_final(&cfg, path, torn_at)),
                }
            };
            let junk = last_nonzero(&bytes[end..]);
            if last {
                torn = junk as u64;
                tail = Some((path.clone(), bytes, end, frames));
            } else if junk > 0 {
                return Err(not_final(&cfg, path, end));
            }
        }
        let (file, path, len, frames) = match tail {
            Some((path, bytes, end, frames)) => (
                reopen(&cfg, &*vfs, &path, &bytes, end)?,
                path,
                end as u64,
                frames,
            ),
            None => {
                let path = segment_path(&cfg, first);
                (create_segment(&cfg, &*vfs, &path)?, path, 0, 0)
            }
        };
        let group = CommitGroup::new();
        // The ticket of record `n` starts as `n + 1`; flooring the
        // barrier at `next` keeps the replayed history out of the first
        // cohort's stats.
        group.reset_floor(next);
        Ok(SegmentLog {
            stage: Mutex::new(Stage {
                buf: Vec::new(),
                records: Vec::new(),
                next,
                tickets: next,
                seg_len: len,
                stats: LogStats {
                    torn_tail_bytes: torn,
                    ..LogStats::default()
                },
            }),
            segment: Mutex::new(Segment {
                file,
                path,
                durable_len: len,
                tried_len: 0,
                applied_frames: frames,
                applied: next,
                applied_ticket: next,
            }),
            cfg,
            vfs,
            group,
            wedged: AtomicBool::new(false),
        })
    }

    /// Runs `f` under the stage lock: it may read [`Stage::next`] and
    /// [`Stage::push`] a record. Fails fast on a wedged log.
    pub fn stage<T>(&self, f: impl FnOnce(&mut Stage<R>) -> OmResult<T>) -> OmResult<T> {
        // Acquire pairs with the Release store of a failed write: an
        // appender that sees the flag also sees the failure.
        self.check_wedge()?;
        f(&mut self.stage.lock())
    }

    /// Parks until the staged record behind `ticket` is durable and
    /// applied. A cohort leader writes every staged byte, applies the
    /// records with `apply`, then runs `maintain` on the held log; a
    /// maintenance error is counted, never returned — the cohort is
    /// already durable and visible.
    pub fn wait(
        &self,
        ticket: Ticket,
        apply: Apply<'_, R>,
        maintain: &dyn Fn(&mut Held<'_, R>) -> OmResult<()>,
    ) -> OmResult<()> {
        self.group.wait_durable(ticket.ticket, || {
            let mut seg = self.segment.lock();
            self.check_wedge()?;
            // Take the bytes but leave the records staged until they
            // are written; `covered` counts the records the bytes hold.
            let (bytes, covered) = {
                let mut stage = self.stage.lock();
                (std::mem::take(&mut stage.buf), stage.records.len())
            };
            self.write(&mut seg, &bytes)?;
            let mut stage = self.stage.lock();
            let mut held = Held {
                log: self,
                seg: &mut seg,
                stage: &mut stage,
                apply,
            };
            held.apply_first(covered)?;
            if maintain(&mut held).is_err() {
                held.stage.stats.maintenance_errors += 1;
            }
            Ok(held.seg.applied_ticket)
        })
    }

    /// Takes both locks, drains the stage and runs `f` with the log
    /// sitting exactly on a record boundary.
    pub fn hold<T>(
        &self,
        apply: Apply<'_, R>,
        f: impl FnOnce(&mut Held<'_, R>) -> OmResult<T>,
    ) -> OmResult<T> {
        let mut seg = self.segment.lock();
        let mut stage = self.stage.lock();
        let mut held = Held {
            log: self,
            seg: &mut seg,
            stage: &mut stage,
            apply,
        };
        held.drain()?;
        f(&mut held)
    }

    /// Whether a failed write has wedged the log.
    pub fn is_wedged(&self) -> bool {
        self.wedged.load(Ordering::Acquire)
    }

    /// Repairs a wedged log in place and returns the bytes cut (`0`,
    /// untouched, when the log is not wedged): those the log wrote or
    /// tried to write after its last applied frame, not the padding.
    /// The staged records are dropped and their waiters fail. Every byte
    /// of the open segment past the end of its last applied frame is
    /// set to zero, after checking that each kept frame parses within
    /// the written bytes and passes `verify`; otherwise the damage
    /// reaches acknowledged records and the log stays wedged. Numbering
    /// resumes at the first dropped record.
    pub fn unwedge(&self, verify: impl Fn(&[u8]) -> bool) -> OmResult<u64> {
        let mut seg = self.segment.lock();
        let mut stage = self.stage.lock();
        if !self.is_wedged() {
            return Ok(0);
        }
        // Both locks are held: no ticket can be issued meanwhile.
        self.group.abort_below(stage.tickets);
        let path = seg.path.clone();
        let on_disk = self
            .vfs
            .read(&path)
            .map_err(|e| io_err(&self.cfg, &path, e))?;
        let written = &on_disk[..(seg.durable_len as usize).min(on_disk.len())];
        let mut cut = 0usize;
        for frames in 0..seg.applied_frames {
            match parse_frame(written, cut) {
                Ok(Some((payload, end))) if verify(payload) => cut = end,
                _ => {
                    return Err(OmError::Internal(format!(
                        "{} {:?}: unwedge verification failed for {path:?}: its {} durable \
                         bytes hold {frames} records where {} acknowledged records were \
                         expected; the log stays wedged",
                        self.cfg.kind,
                        self.cfg.dir,
                        written.len(),
                        seg.applied_frames,
                    )))
                }
            }
        }
        let tried = seg.durable_len.max(seg.tried_len);
        seg.file = reopen(&self.cfg, &*self.vfs, &path, &on_disk, cut)?;
        seg.durable_len = cut as u64;
        seg.tried_len = 0;
        seg.applied_ticket = stage.tickets;
        stage.buf.clear();
        stage.records.clear();
        stage.seg_len = cut as u64;
        stage.next = seg.applied;
        stage.stats.unwedges += 1;
        self.wedged.store(false, Ordering::Release);
        Ok(tried - cut as u64)
    }

    /// This log's counters.
    pub fn stats(&self) -> LogStats {
        LogStats {
            group: self.group.stats(),
            ..self.stage.lock().stats
        }
    }

    fn check_wedge(&self) -> OmResult<()> {
        if self.is_wedged() {
            return Err(OmError::Wedged(format!(
                "{} {:?}: a segment write failed; writes fail fast until an unwedge \
                 repairs the torn tail",
                self.cfg.kind, self.cfg.dir
            )));
        }
        Ok(())
    }

    /// Writes one cohort (syncing it when configured). Any failure
    /// wedges the log: the bytes past `durable_len` are not trusted.
    fn write(&self, seg: &mut Segment, bytes: &[u8]) -> OmResult<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let written = write_all_retry(seg.file.as_mut(), bytes).and_then(|()| {
            if self.cfg.sync {
                seg.file.sync_data()
            } else {
                Ok(())
            }
        });
        if let Err(e) = written {
            seg.tried_len = seg.durable_len + bytes.len() as u64;
            // Release pairs with the Acquire in `check_wedge`.
            self.wedged.store(true, Ordering::Release);
            return Err(OmError::Wedged(format!(
                "{} {:?}: segment write failed ({e}); writes fail fast until an unwedge \
                 repairs the torn tail",
                self.cfg.kind, self.cfg.dir
            )));
        }
        seg.durable_len += bytes.len() as u64;
        Ok(())
    }
}

fn segment_path(cfg: &LogConfig, first: u64) -> PathBuf {
    cfg.dir.join(format!("{}{first}.log", cfg.prefix))
}

/// Creates segment `path` full-size and opens it at its first byte:
/// `segment_bytes` zeros are written to `<path>.tmp`, which is renamed
/// into place. When the log syncs, the zeros are synced before the
/// rename and the directory after it, so the segment's size and blocks
/// are durable before a record is written to it: a commit's
/// `fdatasync` then flushes data alone. Fsyncing records into a file
/// whose name power loss can erase would sync nothing. A failure after
/// the rename removes the segment again, so no record-less segment is
/// left behind a segment that goes on taking records.
fn create_segment(cfg: &LogConfig, vfs: &dyn Vfs, path: &Path) -> OmResult<Box<dyn VfsFile>> {
    let tmp = path.with_extension("tmp");
    let len = segment_len(cfg)?;
    let mut file = vfs.create(&tmp).map_err(|e| io_err(cfg, &tmp, e))?;
    write_zeros(file.as_mut(), len).map_err(|e| io_err(cfg, &tmp, e))?;
    if cfg.sync {
        file.sync_data().map_err(|e| io_err(cfg, &tmp, e))?;
    }
    drop(file);
    vfs.rename(&tmp, path).map_err(|e| io_err(cfg, path, e))?;
    let opened = if cfg.sync {
        vfs.dir_sync(&cfg.dir).map_err(|e| io_err(cfg, &cfg.dir, e))
    } else {
        Ok(())
    }
    .and_then(|()| vfs.open_write(path).map_err(|e| io_err(cfg, path, e)));
    if opened.is_err() {
        let _ = vfs.remove_file(path);
    }
    opened
}

/// Opens the segment at `path`, which holds `bytes`, to write on at
/// `end`. Every byte past `end` is made zero and the file brought to
/// its full size first (an overrun's tail cut, a short segment
/// re-filled) and synced, unless it already is. The returned handle has
/// rewritten the identical `bytes[..end]`, which leaves it at `end`.
fn reopen(
    cfg: &LogConfig,
    vfs: &dyn Vfs,
    path: &Path,
    bytes: &[u8],
    end: usize,
) -> OmResult<Box<dyn VfsFile>> {
    let err = |e| io_err(cfg, path, e);
    let len = segment_len(cfg)?.max(end);
    let junk = last_nonzero(&bytes[end..]);
    if junk > 0 || bytes.len() != len {
        let zero_to = if bytes.len() < len { len } else { end + junk };
        let mut file = vfs.open_write(path).map_err(err)?;
        write_all_retry(file.as_mut(), &bytes[..end]).map_err(err)?;
        write_zeros(file.as_mut(), zero_to - end).map_err(err)?;
        if bytes.len() > len {
            file.set_len(len as u64).map_err(err)?;
        }
        file.sync_data().map_err(err)?;
    }
    let mut file = vfs.open_write(path).map_err(err)?;
    write_all_retry(file.as_mut(), &bytes[..end]).map_err(err)?;
    Ok(file)
}

/// Zeros are written this many bytes at a time. The page cache then
/// holds a segment in folios no larger than this, so a record written
/// in place dirties one small folio and its `fdatasync` writes back only
/// that; one whole-segment write can leave large folios that each small
/// write walks and each `fdatasync` writes back whole.
const ZERO_CHUNK: usize = 64 << 10;

fn write_zeros(file: &mut dyn VfsFile, mut n: usize) -> std::io::Result<()> {
    static ZEROS: [u8; ZERO_CHUNK] = [0; ZERO_CHUNK];
    while n > 0 {
        let chunk = n.min(ZERO_CHUNK);
        write_all_retry(file, &ZEROS[..chunk])?;
        n -= chunk;
    }
    Ok(())
}

/// `segment_bytes`, refused when it could not be held in memory:
/// replay reads a segment whole.
fn segment_len(cfg: &LogConfig) -> OmResult<usize> {
    usize::try_from(cfg.segment_bytes)
        .ok()
        .filter(|&n| Vec::<u8>::new().try_reserve_exact(n).is_ok())
        .ok_or_else(|| {
            OmError::Internal(format!(
                "{} {:?}: cannot allocate a {}-byte segment",
                cfg.kind, cfg.dir, cfg.segment_bytes
            ))
        })
}

/// The length of `bytes` up to and including its last non-zero byte.
/// A segment's padding is skipped 64 bytes per comparison.
pub(crate) fn last_nonzero(bytes: &[u8]) -> usize {
    const ZEROS: [u8; 64] = [0; 64];
    let mut end = bytes.len();
    while end >= ZEROS.len() && bytes[end - ZEROS.len()..end] == ZEROS {
        end -= ZEROS.len();
    }
    bytes[..end].iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
}

fn not_final(cfg: &LogConfig, path: &Path, at: usize) -> OmError {
    OmError::Internal(format!(
        "{} {:?}: segment {path:?} is corrupt at byte {at} but is not the final segment",
        cfg.kind, cfg.dir
    ))
}

fn io_err(cfg: &LogConfig, path: &Path, e: std::io::Error) -> OmError {
    OmError::Internal(format!("{} {path:?}: {e}", cfg.kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{real_vfs, FaultVfs};
    use std::sync::atomic::AtomicU64;

    struct DirGuard(PathBuf);
    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scratch(tag: &str) -> (PathBuf, DirGuard) {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "om-segment-log-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        (dir.clone(), DirGuard(dir))
    }

    fn config(dir: &Path, sync: bool) -> LogConfig {
        LogConfig {
            kind: "test log",
            dir: dir.to_path_buf(),
            prefix: "log-",
            segment_bytes: 1 << 20,
            sync,
        }
    }

    /// Opens a log of `u64` records whose payload is the record itself,
    /// replaying into `seen`.
    fn open(dir: &Path, vfs: Arc<dyn Vfs>, first: u64, seen: &mut Vec<u64>) -> SegmentLog<u64> {
        SegmentLog::open(config(dir, true), vfs, first, |frame| {
            let record = u64::from_le_bytes(frame.payload.try_into().unwrap());
            seen.push(record);
            Ok(record)
        })
        .unwrap()
    }

    fn append(log: &SegmentLog<u64>, applied: &Mutex<Vec<u64>>) -> OmResult<u64> {
        let ticket = log.stage(|stage| {
            let n = stage.next();
            Ok(stage.push(&n.to_le_bytes(), n))
        })?;
        let apply = |n| {
            applied.lock().push(n);
            Ok(())
        };
        log.wait(ticket, &apply, &|held| held.roll_if_due())?;
        Ok(ticket.number)
    }

    #[test]
    fn a_flush_empties_the_stage_but_keeps_its_numbering() {
        let (dir, _guard) = scratch("stage");
        let log = open(&dir, real_vfs(), 1, &mut Vec::new());
        let ticket = log
            .stage(|stage| Ok(stage.push(&1u64.to_le_bytes(), 1)))
            .unwrap();
        {
            let stage = log.stage.lock();
            assert_eq!(stage.buf.len(), 16, "one frame: 8-byte header + payload");
            assert_eq!((stage.records.len(), stage.next, stage.seg_len), (1, 2, 16));
        }
        let applied = Mutex::new(Vec::new());
        let apply = |n| {
            applied.lock().push(n);
            Ok(())
        };
        log.wait(ticket, &apply, &|_| Ok(())).unwrap();
        assert_eq!(*applied.lock(), [1]);
        let stage = log.stage.lock();
        assert!(stage.buf.is_empty() && stage.records.is_empty());
        // Numbering and the segment length are untouched by a flush.
        assert_eq!((stage.next, stage.seg_len), (2, 16));
        assert_eq!(log.segment.lock().durable_len, 16);
    }

    #[test]
    fn replay_resumes_past_the_highest_number_or_at_first() {
        let (dir, _guard) = scratch("replay");
        let empty = open(&dir, real_vfs(), 7, &mut Vec::new());
        assert!(
            dir.join("log-7.log").exists(),
            "an empty log starts at `first`"
        );
        let applied = Mutex::new(Vec::new());
        assert_eq!(append(&empty, &applied).unwrap(), 7);
        assert_eq!(append(&empty, &applied).unwrap(), 8);
        drop(empty);
        let mut seen = Vec::new();
        let log = open(&dir, real_vfs(), 1, &mut seen);
        assert_eq!(seen, [7, 8]);
        assert_eq!(
            append(&log, &applied).unwrap(),
            9,
            "resumes past the highest"
        );
        let stats = log.stats();
        assert_eq!((stats.group.flushes, stats.group.released), (1, 1));
    }

    #[test]
    fn unwedge_rewinds_numbers_but_never_reuses_a_ticket() {
        let (dir, _guard) = scratch("unwedge");
        // Sync 1 is the first segment's zero fill, sync 2 record 0's.
        let vfs = FaultVfs::new(5).fail_nth_sync(3);
        let log = open(&dir, Arc::new(vfs.clone()), 0, &mut Vec::new());
        let applied = Mutex::new(Vec::new());
        assert_eq!(append(&log, &applied).unwrap(), 0);
        // Record 1's fsync fails: the log wedges and fails fast.
        let failed = log
            .stage(|stage| Ok(stage.push(&1u64.to_le_bytes(), 1)))
            .unwrap();
        let err = log.wait(failed, &|_| Ok(()), &|_| Ok(())).unwrap_err();
        assert_eq!(err.label(), "wedged");
        assert!(log.is_wedged());
        assert_eq!(append(&log, &applied).unwrap_err().label(), "wedged");
        let torn = log.unwedge(|_| true).unwrap();
        assert_eq!(torn, 16, "record 1's frame is cut");
        assert_eq!(log.unwedge(|_| true).unwrap(), 0, "idempotent");
        // The number comes back; the dropped record's ticket stays dead.
        assert_eq!(append(&log, &applied).unwrap(), 1);
        let late = log.wait(
            failed,
            &|_| panic!("a dropped record never applies"),
            &|_| Ok(()),
        );
        assert_eq!(late.unwrap_err().label(), "wedged");
        assert_eq!(*applied.lock(), [0, 1]);
        assert_eq!(log.stats().unwedges, 1);
        drop(log);
        let mut seen = Vec::new();
        open(&dir, real_vfs(), 0, &mut seen);
        assert_eq!(seen, [0, 1], "the repaired segment replays densely");
    }

    #[test]
    fn a_failed_apply_wedges_and_unwedge_cuts_the_unapplied_frame() {
        let (dir, _guard) = scratch("apply");
        let log = open(&dir, real_vfs(), 0, &mut Vec::new());
        let applied = Mutex::new(Vec::new());
        append(&log, &applied).unwrap();
        let ticket = log
            .stage(|stage| Ok(stage.push(&1u64.to_le_bytes(), 1)))
            .unwrap();
        let refuse = |_| Err(OmError::Internal("mirror refused".into()));
        assert_eq!(
            log.wait(ticket, &refuse, &|_| Ok(())).unwrap_err().label(),
            "internal"
        );
        assert!(log.is_wedged(), "a written record that cannot apply wedges");
        assert_eq!(log.unwedge(|_| true).unwrap(), 16);
        assert_eq!(append(&log, &applied).unwrap(), 1);
    }

    #[test]
    fn unwedge_refuses_a_kept_frame_that_fails_verification() {
        let (dir, _guard) = scratch("verify");
        let vfs = FaultVfs::new(6).fail_nth_sync(4);
        let log = open(&dir, Arc::new(vfs), 0, &mut Vec::new());
        let applied = Mutex::new(Vec::new());
        append(&log, &applied).unwrap();
        append(&log, &applied).unwrap();
        assert!(append(&log, &applied).is_err());
        let before = std::fs::read(dir.join("log-0.log")).unwrap();
        let err = log
            .unwedge(|payload| payload != 1u64.to_le_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("hold 1 records where 2"), "{err}");
        assert!(
            log.is_wedged(),
            "a failed verification leaves the log wedged"
        );
        assert_eq!(
            std::fs::read(dir.join("log-0.log")).unwrap(),
            before,
            "nothing cut"
        );
    }

    /// [`open`] with `segment_bytes`-byte segments, failing softly.
    fn open_sized(dir: &Path, vfs: Arc<dyn Vfs>, segment_bytes: u64) -> OmResult<SegmentLog<u64>> {
        open_seen(dir, vfs, segment_bytes, &mut Vec::new())
    }

    fn open_seen(
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        segment_bytes: u64,
        seen: &mut Vec<u64>,
    ) -> OmResult<SegmentLog<u64>> {
        let cfg = LogConfig {
            segment_bytes,
            ..config(dir, true)
        };
        SegmentLog::open(cfg, vfs, 0, |frame| {
            let record = u64::from_le_bytes(frame.payload.try_into().unwrap());
            seen.push(record);
            Ok(record)
        })
    }

    fn segments(dir: &Path) -> Vec<(u64, PathBuf)> {
        list(&*real_vfs(), dir, "log-", ".log").unwrap()
    }

    /// The mechanism of the full-size layout, read off the op log: from
    /// a segment's creation to its roll, a record write extends the
    /// file at most once (the cohort that overruns its end), and the
    /// overrun is the segment's last write.
    #[test]
    fn records_are_written_in_place_and_only_an_overrun_grows_a_segment() {
        use crate::vfs::VfsOp;
        use std::collections::HashMap;
        let (dir, _guard) = scratch("in-place");
        let vfs = FaultVfs::new(9).recording();
        let log = open_sized(&dir, Arc::new(vfs.clone()), 100).unwrap();
        let applied = Mutex::new(Vec::new());
        for _ in 0..40 {
            append(&log, &applied).unwrap();
        }
        assert!(log.stats().segments_rolled >= 5, "{:?}", log.stats());
        // Replay the op log's file sizes and handle positions.
        let (mut size, mut cursor) = (HashMap::new(), HashMap::new());
        let (mut grew, mut in_place) = (HashMap::<PathBuf, u32>::new(), 0);
        for op in vfs.take_log() {
            match op {
                VfsOp::Create(p) => {
                    size.insert(p.clone(), 0);
                    cursor.insert(p, 0);
                }
                VfsOp::OpenWrite(p) => {
                    cursor.insert(p, 0);
                }
                VfsOp::Rename(from, to) => {
                    let n = size.remove(&from).unwrap();
                    size.insert(to, n);
                }
                VfsOp::Write(p, bytes) => {
                    let at = cursor[&p];
                    let end = at + bytes.len();
                    cursor.insert(p.clone(), end);
                    let is_segment = p.extension().is_some_and(|x| x == "log");
                    assert!(
                        !grew.contains_key(&p),
                        "{p:?}: a write after the overrun that should have rolled it"
                    );
                    if end > size[&p] {
                        size.insert(p.clone(), end);
                        if is_segment {
                            grew.insert(p, 1);
                        }
                    } else if is_segment {
                        in_place += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(in_place >= 30, "most cohorts write in place: {in_place}");
        assert!(grew.values().all(|&n| n == 1));
        for (_, path) in segments(&dir) {
            let bytes = std::fs::read(&path).unwrap();
            assert!(bytes.len() >= 100, "{path:?} was created full-size");
        }
        drop(log);
        let mut seen = Vec::new();
        open(&dir, real_vfs(), 0, &mut seen);
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn a_reopen_resumes_in_the_final_segment() {
        use crate::vfs::VfsOp;
        let (dir, _guard) = scratch("resume");
        let applied = Mutex::new(Vec::new());
        let log = open_sized(&dir, real_vfs(), 4_096).unwrap();
        for _ in 0..3 {
            append(&log, &applied).unwrap();
        }
        drop(log);
        let vfs = FaultVfs::new(1).recording();
        let log = open_sized(&dir, Arc::new(vfs.clone()), 4_096).unwrap();
        let seg = dir.join("log-0.log");
        // A clean tail needs no repair: one handle, whose first write
        // is the identical 48-byte prefix, and no sync.
        assert_eq!(
            vfs.take_log(),
            [
                VfsOp::OpenWrite(seg.clone()),
                VfsOp::Write(seg.clone(), std::fs::read(&seg).unwrap()[..48].to_vec())
            ]
        );
        append(&log, &applied).unwrap();
        append(&log, &applied).unwrap();
        drop(log);
        assert_eq!(segments(&dir).len(), 1, "no segment per open");
        let bytes = std::fs::read(&seg).unwrap();
        assert_eq!(bytes.len(), 4_096);
        let mut seen = Vec::new();
        open(&dir, real_vfs(), 0, &mut seen);
        assert_eq!(seen, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn the_final_segment_is_zeroed_past_its_end_and_brought_to_full_size() {
        let (dir, _guard) = scratch("tail");
        let applied = Mutex::new(Vec::new());
        let log = open_sized(&dir, real_vfs(), 256).unwrap();
        for _ in 0..3 {
            append(&log, &applied).unwrap();
        }
        drop(log);
        let seg = dir.join("log-0.log");
        let pristine = std::fs::read(&seg).unwrap();
        // (case, the segment as a crash or an older build left it, the
        // torn bytes counted: up to the last non-zero one)
        let cases: [(&str, Vec<u8>, u64); 4] = [
            (
                "short, as an older build appended it",
                pristine[..48].to_vec(),
                0,
            ),
            // Record 2's header and the first byte of its payload.
            ("torn frame, then zeros", pristine[..41].to_vec(), 9),
            (
                "junk after a zero gap",
                {
                    let mut b = pristine.clone();
                    b[200] = 9;
                    b
                },
                200 - 48 + 1,
            ),
            (
                "an overrun's tail",
                [&pristine[..], &[5u8; 10][..]].concat(),
                256 - 48 + 10,
            ),
        ];
        for (case, bytes, torn) in cases {
            std::fs::write(&seg, &bytes).unwrap();
            let mut seen = Vec::new();
            let log = open_seen(&dir, real_vfs(), 256, &mut seen).unwrap();
            let kept = if case.starts_with("torn") { 2 } else { 3 };
            assert_eq!(seen.len(), kept, "{case}");
            assert_eq!(log.stats().torn_tail_bytes, torn, "{case}");
            let on_disk = std::fs::read(&seg).unwrap();
            assert_eq!(on_disk.len(), 256, "{case}: full size");
            assert_eq!(on_disk[..kept * 16], pristine[..kept * 16], "{case}");
            assert!(
                on_disk[kept * 16..].iter().all(|&b| b == 0),
                "{case}: zero past the end"
            );
            drop(log);
            std::fs::write(&seg, &pristine).unwrap();
        }
    }

    /// A tail that reads back as zeros is the end of the log, not an
    /// empty frame; in a segment before the final one, any non-zero
    /// byte past its frames is damage.
    #[test]
    fn zero_padding_ends_a_segment_and_junk_after_it_is_damage() {
        let (dir, _guard) = scratch("padding");
        let applied = Mutex::new(Vec::new());
        let log = open_sized(&dir, real_vfs(), 64).unwrap();
        for _ in 0..6 {
            append(&log, &applied).unwrap();
        }
        drop(log);
        let segs = segments(&dir);
        assert!(segs.len() >= 2);
        let first = &segs[0].1;
        let mut bytes = std::fs::read(first).unwrap();
        bytes.extend_from_slice(&[0; 4_096]);
        std::fs::write(first, &bytes).unwrap();
        let mut seen = Vec::new();
        open(&dir, real_vfs(), 0, &mut seen);
        assert_eq!(
            seen,
            (0..6).collect::<Vec<_>>(),
            "zero padding is no record"
        );
        *bytes.last_mut().unwrap() = 1;
        std::fs::write(first, &bytes).unwrap();
        let err = open_sized(&dir, real_vfs(), 64).err().unwrap();
        assert!(
            err.to_string().contains("is not the final segment"),
            "{err}"
        );
    }

    /// A failed fsync of a new segment's zeros fails the roll — a
    /// counted maintenance error, retried by the next cohort — and no
    /// commit: the records go on in the old segment.
    #[test]
    fn a_failed_segment_creation_fails_the_roll_not_a_commit() {
        let (dir, _guard) = scratch("roll-fail");
        // Sync 1 zero-fills the first 32-byte segment, syncs 2-3 are
        // records 0-1, sync 4 the zeros of the segment record 1's roll
        // creates.
        let vfs = FaultVfs::new(3).fail_nth_sync(4);
        let log = open_sized(&dir, Arc::new(vfs.clone()), 32).unwrap();
        let applied = Mutex::new(Vec::new());
        for _ in 0..4 {
            append(&log, &applied).unwrap();
        }
        assert_eq!(vfs.fired(), ["fsync failure"]);
        let stats = log.stats();
        assert_eq!((stats.maintenance_errors, stats.segments_rolled), (1, 1));
        assert!(!log.is_wedged());
        drop(log);
        let names: Vec<_> = segments(&dir).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, [0, 3], "record 2 overran the first segment");
        let mut seen = Vec::new();
        open(&dir, real_vfs(), 0, &mut seen);
        assert_eq!(seen, [0, 1, 2, 3]);
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .count();
        assert_eq!(leftovers, 0, "the open removed the unfinished segment");
    }

    #[test]
    fn a_segment_size_beyond_memory_fails_the_open() {
        let (dir, _guard) = scratch("huge");
        let err = open_sized(&dir, real_vfs(), u64::MAX).err().unwrap();
        assert!(err.to_string().contains("cannot allocate"), "{err}");
    }
}
