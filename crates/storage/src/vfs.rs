//! The virtual filesystem seam of the durable stores: every byte the
//! [`FileBackend`](crate::FileBackend) (and `om-log`'s persistent
//! topic) writes, syncs, renames or replays goes through a [`Vfs`], so
//! tests can drive the *whole* durable stack through a deterministic
//! fault injector instead of hoping a real disk misbehaves on cue.
//!
//! Three players:
//!
//! * [`RealVfs`] — the passthrough production implementation (plain
//!   `std::fs`). The default everywhere; zero behavioural change.
//! * [`FaultVfs`] — a seeded fault injector: fail-the-Nth-fsync, torn
//!   writes (K of N bytes reach the file, then an error), transient
//!   `EINTR`-style interruptions, disk-full after a byte budget, and
//!   read-side corruption (a bit flip on replay). It also **records**
//!   every mutating operation — the op log the crash-consistency
//!   torture harness replays.
//! * [`CrashImage`] — the power-loss simulator: given a recorded op log
//!   and a boundary index, it materializes the directory a machine that
//!   lost power *at that op* could plausibly reboot with, under an
//!   ordered-journal durability model:
//!
//!   - bytes covered by an `fsync` (`sync_data`/`sync_all`) are
//!     guaranteed on media;
//!   - the writes since a file's last `fsync` land as a seed-chosen
//!     **prefix** of their byte stream (write order is preserved,
//!     amount is arbitrary — this is what makes torn frames): each one
//!     lands whole, torn or not at all, and a lost in-place write
//!     leaves the bytes it would have overwritten;
//!   - on a seed-chosen coin, a file that unsynced writes extended
//!     keeps its extended length with every lost byte past the synced
//!     length reading back as **zeros** — how XFS, or ext4 with
//!     `data=writeback`, can expose an extended file after a crash;
//!   - directory entries (creates, renames, unlinks) are guaranteed
//!     once a `dir_sync` of their parent follows, and otherwise survive
//!     or vanish on a seed-chosen coin;
//!   - directory *creation* is assumed ordered (journalled), so the
//!     store's `wal/`/`snap/` skeleton always exists.
//!
//! The model is documented in `docs/FAULTS.md`; the harness lives in
//! `crates/storage/tests/torture.rs`.

use om_common::rng::SplitMix64;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One open file of a [`Vfs`] — the write-side handle surface the
/// durable stores use. They never seek: a handle writes from where it
/// was opened (the end of the file for [`Vfs::open_append`], its first
/// byte for [`Vfs::create`] and [`Vfs::open_write`]), and each write
/// moves it past its bytes. Snapshots are written whole; a log segment
/// is created full-size and zero-filled, then written in place.
pub trait VfsFile: Send {
    /// Writes the whole buffer (the stores' single write primitive —
    /// one cohort, snapshot or record per call).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes file *data* to the device (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes data and metadata to the device (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem operations of the durable stores. Implementations
/// must be cheap to share (`Arc<dyn Vfs>` is cloned per store).
pub trait Vfs: Send + Sync {
    /// Creates (truncating if present) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens `path` in append mode, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing `path` writable without truncating, positioned
    /// at its first byte: the handle a log segment is written in place
    /// through (a resumed segment's first write rewrites the bytes it
    /// keeps), and that a repair zeroes a torn tail with.
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads the whole file — the replay/recovery read path (and the
    /// read-side corruption hook).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes `bytes` as the whole content of `path` (create/truncate;
    /// **not** synced — advisory files only).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory itself, making entry changes (creates,
    /// renames, unlinks) inside it durable against power loss.
    fn dir_sync(&self, path: &Path) -> io::Result<()>;
}

/// Retries `write_all` through transient `Interrupted` errors (the
/// `EINTR` class a [`FaultVfs`] injects; a real `File::write_all`
/// already retries internally). Anything else — including torn writes,
/// which leave bytes behind — is returned to the caller.
pub fn write_all_retry(file: &mut dyn VfsFile, buf: &[u8]) -> io::Result<()> {
    const MAX_INTERRUPTS: usize = 8;
    let mut attempts = 0;
    loop {
        match file.write_all(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted && attempts < MAX_INTERRUPTS => {
                attempts += 1;
            }
            other => return other,
        }
    }
}

// -- RealVfs ----------------------------------------------------------------

/// The production [`Vfs`]: a direct passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(
            OpenOptions::new().create(true).append(true).open(path)?,
        )))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(OpenOptions::new().write(true).open(path)?)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn dir_sync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
}

/// The default VFS instance stores open with when none is injected.
pub fn real_vfs() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

// -- op log -----------------------------------------------------------------

/// One recorded filesystem mutation — the unit the torture harness
/// simulates power loss *between* (and, for writes, *inside of*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsOp {
    /// `create(path)` — truncating create.
    Create(PathBuf),
    /// `open_append(path)` — creates the file if absent.
    OpenAppend(PathBuf),
    /// `open_write(path)` — an existing file, written from its first
    /// byte.
    OpenWrite(PathBuf),
    /// `write_all(buf)` on the handle of `path`, at that handle's
    /// position.
    Write(PathBuf, Vec<u8>),
    /// `write_file(path, bytes)` — whole-file replace, unsynced.
    WriteFile(PathBuf, Vec<u8>),
    /// `set_len(len)` on the handle of `path`.
    SetLen(PathBuf, u64),
    /// `sync_data()` on the handle of `path`.
    SyncData(PathBuf),
    /// `sync_all()` on the handle of `path`.
    SyncAll(PathBuf),
    /// `rename(from, to)`.
    Rename(PathBuf, PathBuf),
    /// `remove_file(path)`.
    Remove(PathBuf),
    /// `dir_sync(path)`.
    DirSync(PathBuf),
}

// -- FaultVfs ---------------------------------------------------------------

/// One scheduled fault. Counters are 1-based over the *matching*
/// operation class and each fault fires exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Fault {
    /// Fail the `nth` fsync (`sync_data` or `sync_all`) with an IO
    /// error; the data may or may not have reached the device.
    FailSync { nth: u64 },
    /// On the `nth` `write_all`, persist only a seed-chosen strict
    /// prefix of the buffer and return an error — a torn write.
    TornWrite { nth: u64 },
    /// On the `nth` `write_all`, write nothing and return a transient
    /// `Interrupted` error (the `EINTR` class; retryable).
    Interrupt { nth: u64 },
    /// Only bytes written past a file's end count against the budget
    /// `after_bytes`: a write that would take their total past it lands
    /// up to the budget and fails with a disk-full error. A write inside
    /// a file's length allocates nothing and succeeds while the budget
    /// holds, so a pre-allocated segment's records cannot run out of
    /// space; a budget below what has already grown (scheduled late)
    /// refuses every write, as a copy-on-write filesystem would.
    DiskFull { after_bytes: u64 },
    /// Flip one seed-chosen bit in the result of the `nth` `read`.
    CorruptRead { nth: u64 },
}

struct FaultState {
    faults: Vec<Fault>,
    fired: Vec<String>,
    log: Vec<VfsOp>,
    recording: bool,
    writes_seen: u64,
    syncs_seen: u64,
    reads_seen: u64,
    /// Bytes written past the end of a file, summed over every file.
    bytes_grown: u64,
    rng: SplitMix64,
}

impl FaultState {
    fn record(&mut self, op: VfsOp) {
        if self.recording {
            self.log.push(op);
        }
    }

    fn take_fault(&mut self, pick: impl Fn(&Fault) -> bool) -> Option<Fault> {
        let i = self.faults.iter().position(pick)?;
        Some(self.faults.remove(i))
    }
}

/// A seeded, scheduled fault injector that is also the torture
/// harness's operation recorder. Clones share one schedule and one log.
///
/// With no faults scheduled it is a pure recorder — byte-for-byte the
/// behaviour of [`RealVfs`] plus the op log.
#[derive(Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FaultVfs")
            .field("pending_faults", &st.faults.len())
            .field("fired", &st.fired)
            .field("ops_recorded", &st.log.len())
            .finish()
    }
}

impl FaultVfs {
    /// A fault injector whose torn-write lengths, bit positions and
    /// crash coins derive from `seed` (print it on failure; replaying
    /// the same seed replays the same faults).
    pub fn new(seed: u64) -> Self {
        FaultVfs {
            state: Arc::new(Mutex::new(FaultState {
                faults: Vec::new(),
                fired: Vec::new(),
                log: Vec::new(),
                recording: false,
                writes_seen: 0,
                syncs_seen: 0,
                reads_seen: 0,
                bytes_grown: 0,
                rng: SplitMix64::new(seed),
            })),
        }
    }

    /// Records every mutating operation into the op log (see
    /// [`FaultVfs::take_log`]).
    pub fn recording(self) -> Self {
        self.state.lock().recording = true;
        self
    }

    /// Schedules the `nth` fsync (1-based, `sync_data` + `sync_all`
    /// combined) to fail.
    pub fn fail_nth_sync(self, nth: u64) -> Self {
        self.state.lock().faults.push(Fault::FailSync { nth });
        self
    }

    /// Schedules the `nth` `write_all` to tear: a seed-chosen strict
    /// prefix lands, then an error.
    pub fn torn_write(self, nth: u64) -> Self {
        self.state.lock().faults.push(Fault::TornWrite { nth });
        self
    }

    /// Schedules the `nth` `write_all` to fail once with a transient
    /// `Interrupted` error.
    pub fn interrupt_write(self, nth: u64) -> Self {
        self.state.lock().faults.push(Fault::Interrupt { nth });
        self
    }

    /// Schedules disk-full behaviour once writes through this VFS have
    /// grown its files by `after_bytes` bytes in total; writes inside a
    /// file's length still succeed unless the files have already grown
    /// past the budget.
    pub fn disk_full_after(self, after_bytes: u64) -> Self {
        self.state.lock().faults.push(Fault::DiskFull { after_bytes });
        self
    }

    /// Schedules one bit flip in the result of the `nth` `read`.
    pub fn corrupt_read(self, nth: u64) -> Self {
        self.state.lock().faults.push(Fault::CorruptRead { nth });
        self
    }

    /// Labels of the faults that have fired so far (assertion hook).
    pub fn fired(&self) -> Vec<String> {
        self.state.lock().fired.clone()
    }

    /// The recorded op log so far (a clone; recording continues).
    pub fn take_log(&self) -> Vec<VfsOp> {
        self.state.lock().log.clone()
    }

    /// Number of operations recorded so far — the ack-time marker the
    /// torture harness snapshots after each acknowledged commit.
    pub fn log_len(&self) -> usize {
        self.state.lock().log.len()
    }

    /// Total fsyncs observed (both flavours).
    pub fn syncs_seen(&self) -> u64 {
        self.state.lock().syncs_seen
    }

    /// Total `write_all` calls observed (interrupted and torn ones
    /// included): schedule a write fault after a store's open with
    /// `writes_seen() + n`.
    pub fn writes_seen(&self) -> u64 {
        self.state.lock().writes_seen
    }

    fn err(kind: io::ErrorKind, label: &str, st: &mut FaultState) -> io::Error {
        st.fired.push(label.to_string());
        io::Error::new(kind, format!("injected fault: {label}"))
    }
}

/// A [`FaultVfs`] file handle: forwards to the real file underneath,
/// consulting the shared fault schedule on every write/sync.
struct FaultFile {
    path: PathBuf,
    file: File,
    /// Opened by `open_append`: every write lands at the end.
    append: bool,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFile {
    /// How many of the next `n` bytes written land inside the file's
    /// current length (the rest grow it).
    fn room(&mut self, n: usize) -> io::Result<u64> {
        let len = self.file.metadata()?.len();
        let at = if self.append {
            len
        } else {
            self.file.stream_position()?
        };
        Ok(len.saturating_sub(at).min(n as u64))
    }
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let room = self.room(buf.len())?;
        let mut st = self.state.lock();
        st.writes_seen += 1;
        st.record(VfsOp::Write(self.path.clone(), buf.to_vec()));
        let n = st.writes_seen;
        if st.take_fault(|f| matches!(f, Fault::Interrupt { nth } if *nth == n)).is_some() {
            return Err(FaultVfs::err(io::ErrorKind::Interrupted, "interrupted write", &mut st));
        }
        if st.take_fault(|f| matches!(f, Fault::TornWrite { nth } if *nth == n)).is_some() {
            // Strict prefix: at least 0, at most len-1 bytes land.
            let k = st.rng.next_bounded(buf.len().max(1) as u64) as usize;
            st.bytes_grown += (k as u64).saturating_sub(room);
            let torn = self.file.write_all(&buf[..k]);
            let e = FaultVfs::err(io::ErrorKind::Other, "torn write", &mut st);
            drop(st);
            torn?;
            return Err(e);
        }
        if let Some(Fault::DiskFull { after_bytes }) =
            st.faults.iter().find(|f| matches!(f, Fault::DiskFull { .. })).cloned()
        {
            if st.bytes_grown + (buf.len() as u64 - room) > after_bytes {
                // Fill to the budget, then refuse; a budget already
                // overspent takes nothing. The fault stays scheduled: a
                // full disk stays full.
                let k = match after_bytes.checked_sub(st.bytes_grown) {
                    Some(left) => (room + left) as usize,
                    None => 0,
                };
                st.bytes_grown = st.bytes_grown.max(after_bytes);
                let partial = self.file.write_all(&buf[..k.min(buf.len())]);
                let e = FaultVfs::err(io::ErrorKind::Other, "disk full", &mut st);
                drop(st);
                partial?;
                return Err(e);
            }
        }
        st.bytes_grown += buf.len() as u64 - room;
        drop(st);
        self.file.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut st = self.state.lock();
        st.syncs_seen += 1;
        st.record(VfsOp::SyncData(self.path.clone()));
        let n = st.syncs_seen;
        if st.take_fault(|f| matches!(f, Fault::FailSync { nth } if *nth == n)).is_some() {
            return Err(FaultVfs::err(io::ErrorKind::Other, "fsync failure", &mut st));
        }
        drop(st);
        self.file.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let mut st = self.state.lock();
        st.syncs_seen += 1;
        st.record(VfsOp::SyncAll(self.path.clone()));
        let n = st.syncs_seen;
        if st.take_fault(|f| matches!(f, Fault::FailSync { nth } if *nth == n)).is_some() {
            return Err(FaultVfs::err(io::ErrorKind::Other, "fsync failure", &mut st));
        }
        drop(st);
        self.file.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.state.lock().record(VfsOp::SetLen(self.path.clone(), len));
        self.file.set_len(len)
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.lock().record(VfsOp::Create(path.to_path_buf()));
        Ok(Box::new(FaultFile {
            path: path.to_path_buf(),
            file: File::create(path)?,
            append: false,
            state: self.state.clone(),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.lock().record(VfsOp::OpenAppend(path.to_path_buf()));
        Ok(Box::new(FaultFile {
            path: path.to_path_buf(),
            file: OpenOptions::new().create(true).append(true).open(path)?,
            append: true,
            state: self.state.clone(),
        }))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state
            .lock()
            .record(VfsOp::OpenWrite(path.to_path_buf()));
        Ok(Box::new(FaultFile {
            path: path.to_path_buf(),
            file: OpenOptions::new().write(true).open(path)?,
            append: false,
            state: self.state.clone(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = fs::read(path)?;
        let mut st = self.state.lock();
        st.reads_seen += 1;
        let n = st.reads_seen;
        if st.take_fault(|f| matches!(f, Fault::CorruptRead { nth } if *nth == n)).is_some() {
            if !bytes.is_empty() {
                let bit = st.rng.next_bounded(bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            st.fired.push("read corruption".into());
        }
        Ok(bytes)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.state
            .lock()
            .record(VfsOp::WriteFile(path.to_path_buf(), bytes.to_vec()));
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state
            .lock()
            .record(VfsOp::Rename(from.to_path_buf(), to.to_path_buf()));
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.state.lock().record(VfsOp::Remove(path.to_path_buf()));
        fs::remove_file(path)
    }

    fn dir_sync(&self, path: &Path) -> io::Result<()> {
        self.state.lock().record(VfsOp::DirSync(path.to_path_buf()));
        File::open(path)?.sync_all()
    }
}

// -- crash-image materializer ------------------------------------------------

/// Simulated inode: what a reader sees, what is on media, and the
/// writes in between.
#[derive(Default, Clone)]
struct SimInode {
    /// Logical content (what the page cache holds).
    content: Vec<u8>,
    /// Content guaranteed on media: `content` as of the last fsync,
    /// less any later truncation.
    durable: Vec<u8>,
    /// Writes since the last fsync, in order: `(offset, bytes)`.
    pending: Vec<(usize, Vec<u8>)>,
    /// Where the file's most recently opened handle writes next (`None`
    /// for an append handle). The model keeps one position per file:
    /// the stores write a file through the handle they opened last.
    cursor: Option<usize>,
}

/// Copies `bytes` into `buf` at `at`, zero-extending `buf` as needed.
fn overlay(buf: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    if buf.len() < at {
        buf.resize(at, 0);
    }
    let inside = (buf.len() - at).min(bytes.len());
    buf[at..at + inside].copy_from_slice(&bytes[..inside]);
    buf.extend_from_slice(&bytes[inside..]);
}

impl SimInode {
    fn write(&mut self, bytes: &[u8]) {
        let at = self.cursor.unwrap_or(self.content.len());
        overlay(&mut self.content, at, bytes);
        if let Some(cursor) = &mut self.cursor {
            *cursor = at + bytes.len();
        }
        self.pending.push((at, bytes.to_vec()));
    }

    fn set_len(&mut self, len: usize) {
        self.content.resize(len, 0);
        // A cut is durable at once (the stores sync it before relying
        // on it); an extension is not.
        self.durable.truncate(len);
        self.pending.retain_mut(|(at, bytes)| {
            bytes.truncate(len.saturating_sub(*at));
            !bytes.is_empty()
        });
    }

    fn sync(&mut self) {
        for (at, bytes) in self.pending.drain(..) {
            overlay(&mut self.durable, at, &bytes);
        }
        self.durable.resize(self.content.len(), 0);
    }

    /// The file as power loss leaves it: the durable content, then a
    /// seeded prefix of the pending byte stream; on a seeded coin the
    /// file keeps its full length, lost bytes past the durable length
    /// reading zero.
    fn after_power_loss(&self, rng: &mut SplitMix64) -> Vec<u8> {
        let stream: usize = self.pending.iter().map(|(_, b)| b.len()).sum();
        let mut land = rng.next_bounded(stream as u64 + 1) as usize;
        let zeros = rng.chance(0.5);
        let mut image = self.durable.clone();
        for (at, bytes) in &self.pending {
            let n = land.min(bytes.len());
            land -= n;
            overlay(&mut image, *at, &bytes[..n]);
        }
        if zeros && image.len() < self.content.len() {
            image.resize(self.content.len(), 0);
        }
        image
    }
}

/// One pending namespace mutation, durable once a `dir_sync` of its
/// parent directory follows it in the log, otherwise decided by a
/// seeded coin at crash time.
#[derive(Debug)]
struct NameEvent {
    index: usize,
    dir: PathBuf,
    durable: bool,
    kind: NameEventKind,
}

#[derive(Debug)]
enum NameEventKind {
    Link(PathBuf, usize),
    Rename(PathBuf, PathBuf),
    Unlink(PathBuf),
}

/// Materializes power-loss crash images from a recorded op log — see
/// the module docs for the durability model.
pub struct CrashImage;

impl CrashImage {
    /// Builds, under `out`, the directory tree a machine that lost
    /// power after `boundary` ops (a prefix of `log`) could reboot
    /// with. Paths in the log are rebased from `root` onto `out`.
    /// `seed` decides every non-guaranteed outcome (how much of each
    /// file's unsynced writes lands, whether its lost extension reads
    /// back as zeros, uncovered entry-op coins) — the same
    /// `(log, boundary, seed)` always yields the same image.
    pub fn materialize(
        log: &[VfsOp],
        boundary: usize,
        seed: u64,
        root: &Path,
        out: &Path,
    ) -> io::Result<()> {
        let boundary = boundary.min(log.len());
        let mut inodes: Vec<SimInode> = Vec::new();
        // Live (volatile) namespace: name -> inode index.
        let mut names: HashMap<PathBuf, usize> = HashMap::new();
        let mut events: Vec<NameEvent> = Vec::new();

        let parent = |p: &Path| p.parent().map(Path::to_path_buf).unwrap_or_default();
        for (i, op) in log[..boundary].iter().enumerate() {
            match op {
                VfsOp::Create(p) | VfsOp::WriteFile(p, _) => {
                    let ino = inodes.len();
                    inodes.push(SimInode {
                        cursor: Some(0),
                        ..SimInode::default()
                    });
                    if let VfsOp::WriteFile(_, bytes) = op {
                        inodes[ino].write(bytes);
                    }
                    let fresh = names.insert(p.clone(), ino).is_none();
                    // An overwrite replaces the inode behind an existing
                    // entry; only a fresh name is an entry mutation.
                    if fresh {
                        events.push(NameEvent {
                            index: i,
                            dir: parent(p),
                            durable: false,
                            kind: NameEventKind::Link(p.clone(), ino),
                        });
                    } else {
                        // Keep the namespace pointing at the new inode.
                        for e in events.iter_mut() {
                            if let NameEventKind::Link(name, target) = &mut e.kind {
                                if name == p {
                                    *target = ino;
                                }
                            }
                        }
                    }
                }
                VfsOp::OpenAppend(p) => match names.get(p) {
                    Some(&ino) => inodes[ino].cursor = None,
                    None => {
                        let ino = inodes.len();
                        inodes.push(SimInode::default());
                        names.insert(p.clone(), ino);
                        events.push(NameEvent {
                            index: i,
                            dir: parent(p),
                            durable: false,
                            kind: NameEventKind::Link(p.clone(), ino),
                        });
                    }
                },
                VfsOp::OpenWrite(p) => {
                    if let Some(&ino) = names.get(p) {
                        inodes[ino].cursor = Some(0);
                    }
                }
                VfsOp::Write(p, bytes) => {
                    if let Some(&ino) = names.get(p) {
                        inodes[ino].write(bytes);
                    }
                }
                VfsOp::SetLen(p, len) => {
                    if let Some(&ino) = names.get(p) {
                        inodes[ino].set_len(*len as usize);
                    }
                }
                VfsOp::SyncData(p) | VfsOp::SyncAll(p) => {
                    if let Some(&ino) = names.get(p) {
                        inodes[ino].sync();
                    }
                }
                VfsOp::Rename(from, to) => {
                    if let Some(ino) = names.remove(from) {
                        names.insert(to.clone(), ino);
                        events.push(NameEvent {
                            index: i,
                            dir: parent(to),
                            durable: false,
                            kind: NameEventKind::Rename(from.clone(), to.clone()),
                        });
                    }
                }
                VfsOp::Remove(p) => {
                    names.remove(p);
                    events.push(NameEvent {
                        index: i,
                        dir: parent(p),
                        durable: false,
                        kind: NameEventKind::Unlink(p.clone()),
                    });
                }
                VfsOp::DirSync(d) => {
                    // Guarantees every earlier entry mutation in `d`.
                    for e in events.iter_mut() {
                        if e.index < i && e.dir == *d {
                            e.durable = true;
                        }
                    }
                }
            }
        }

        // Replay the entry mutations into the durable namespace:
        // guaranteed ones always apply, uncovered ones flip a
        // deterministic coin.
        let mut rng = SplitMix64::new(seed ^ (boundary as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut durable_names: BTreeMap<PathBuf, usize> = BTreeMap::new();
        for e in &events {
            let applies = e.durable || rng.chance(0.5);
            if !applies {
                continue;
            }
            match &e.kind {
                NameEventKind::Link(p, ino) => {
                    durable_names.insert(p.clone(), *ino);
                }
                NameEventKind::Rename(from, to) => {
                    if let Some(ino) = durable_names.remove(from) {
                        durable_names.insert(to.clone(), ino);
                    }
                }
                NameEventKind::Unlink(p) => {
                    durable_names.remove(p);
                }
            }
        }

        // Write the image, in name order so the seed alone decides it.
        fs::create_dir_all(out)?;
        for (name, ino) in &durable_names {
            let image = inodes[*ino].after_power_loss(&mut rng);
            let rel = name.strip_prefix(root).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("recorded path {name:?} outside root {root:?}"),
                )
            })?;
            let target = out.join(rel);
            if let Some(dir) = target.parent() {
                fs::create_dir_all(dir)?;
            }
            // A zero tail becomes a hole: a segment's padding costs the
            // image no disk writes.
            let data = crate::segment_log::last_nonzero(&image);
            let mut file = File::create(&target)?;
            file.write_all(&image[..data])?;
            file.set_len(image.len() as u64)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "om-vfs-test-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    struct DirGuard(PathBuf);
    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn real_vfs_round_trips_and_renames() {
        let dir = scratch("real");
        let _g = DirGuard(dir.clone());
        let vfs = RealVfs;
        let mut f = vfs.create(&dir.join("a.tmp")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        vfs.rename(&dir.join("a.tmp"), &dir.join("a")).unwrap();
        vfs.dir_sync(&dir).unwrap();
        assert_eq!(vfs.read(&dir.join("a")).unwrap(), b"hello");
        let mut f = vfs.open_write(&dir.join("a")).unwrap();
        f.set_len(2).unwrap();
        drop(f);
        assert_eq!(vfs.read(&dir.join("a")).unwrap(), b"he");
        vfs.remove_file(&dir.join("a")).unwrap();
        assert!(vfs.read(&dir.join("a")).is_err());
    }

    #[test]
    fn fault_vfs_fires_each_fault_once_and_records() {
        let dir = scratch("fault");
        let _g = DirGuard(dir.clone());
        let vfs = FaultVfs::new(7)
            .recording()
            .fail_nth_sync(2)
            .interrupt_write(2)
            .torn_write(4);
        let mut f = vfs.open_append(&dir.join("seg")).unwrap();
        f.write_all(b"one").unwrap();
        f.sync_data().unwrap();
        // Second write interrupts once, then succeeds via the retry
        // helper (zero bytes land on the interrupted attempt).
        write_all_retry(f.as_mut(), b"two").unwrap();
        // Second sync fails.
        assert!(f.sync_data().is_err());
        // Third sync works again (transient device hiccup).
        f.sync_data().unwrap();
        // The 4th write tears: a strict prefix lands, the call errors.
        assert!(f.write_all(b"0123456789").is_err());
        drop(f);
        let on_disk = fs::read(dir.join("seg")).unwrap();
        assert!(on_disk.starts_with(b"onetwo"));
        assert!(on_disk.len() < "onetwo0123456789".len(), "torn write stored a strict prefix");
        assert_eq!(
            vfs.fired(),
            vec!["interrupted write", "fsync failure", "torn write"]
        );
        // The log recorded every attempt, including the interrupted and
        // torn ones, in order.
        let writes: Vec<_> = vfs
            .take_log()
            .into_iter()
            .filter(|op| matches!(op, VfsOp::Write(..)))
            .collect();
        assert_eq!(writes.len(), 4);
    }

    #[test]
    fn fault_vfs_disk_full_sticks() {
        let dir = scratch("full");
        let _g = DirGuard(dir.clone());
        let vfs = FaultVfs::new(1).disk_full_after(4);
        let mut f = vfs.open_append(&dir.join("seg")).unwrap();
        f.write_all(b"abc").unwrap();
        assert!(f.write_all(b"def").is_err(), "crossing the budget fails");
        assert!(f.write_all(b"g").is_err(), "a full disk stays full");
        assert_eq!(fs::read(dir.join("seg")).unwrap(), b"abcd", "filled to the budget");
        // Overwriting allocates nothing: a full disk still takes it.
        let mut f = vfs.open_write(&dir.join("seg")).unwrap();
        f.write_all(b"ABCD").unwrap();
        assert!(f.write_all(b"E").is_err(), "growing the file does not");
        assert_eq!(fs::read(dir.join("seg")).unwrap(), b"ABCD");
    }

    #[test]
    fn fault_vfs_read_corruption_flips_one_bit() {
        let dir = scratch("flip");
        let _g = DirGuard(dir.clone());
        fs::write(dir.join("f"), vec![0u8; 64]).unwrap();
        let vfs = FaultVfs::new(3).corrupt_read(2);
        let clean = vfs.read(&dir.join("f")).unwrap();
        assert_eq!(clean, vec![0u8; 64], "first read untouched");
        let corrupt = vfs.read(&dir.join("f")).unwrap();
        let flipped: u32 = corrupt.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        assert_eq!(vfs.read(&dir.join("f")).unwrap(), vec![0u8; 64], "fault fired once");
    }

    #[test]
    fn crash_image_keeps_synced_bytes_and_bounds_unsynced_tails() {
        let root = PathBuf::from("/store");
        let seg = root.join("wal").join("seg");
        let log = vec![
            VfsOp::OpenAppend(seg.clone()),
            VfsOp::DirSync(root.join("wal")),
            VfsOp::Write(seg.clone(), b"synced".to_vec()),
            VfsOp::SyncData(seg.clone()),
            VfsOp::Write(seg.clone(), b"-unsynced-tail".to_vec()),
        ];
        for boundary in 1..=log.len() {
            for seed in [1u64, 2, 3, 99] {
                let out = scratch("img");
                let _g = DirGuard(out.clone());
                CrashImage::materialize(&log, boundary, seed, &root, &out).unwrap();
                let img = out.join("wal").join("seg");
                if boundary < 2 {
                    // Entry not dir-synced yet: existence is coin-decided,
                    // content empty either way.
                    if img.exists() {
                        assert_eq!(fs::read(&img).unwrap(), b"");
                    }
                    continue;
                }
                let bytes = fs::read(&img).expect("dir-synced entry always survives");
                if boundary >= 4 {
                    assert!(bytes.starts_with(b"synced"), "fsynced bytes are guaranteed");
                }
                // A prefix of what was written, then (the zeros outcome)
                // zeros up to at most the written length.
                let written = b"synced-unsynced-tail";
                let landed = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                assert!(
                    written.starts_with(&bytes[..landed]) && bytes.len() <= written.len(),
                    "crash content is a prefix of what was written, zero-padded: {bytes:?}"
                );
            }
        }
    }

    #[test]
    fn crash_image_can_read_a_lost_extension_back_as_zeros() {
        let root = PathBuf::from("/z");
        let f = root.join("f");
        let log = vec![
            VfsOp::OpenAppend(f.clone()),
            VfsOp::DirSync(root.clone()),
            VfsOp::Write(f.clone(), b"synced".to_vec()),
            VfsOp::SyncData(f.clone()),
            VfsOp::Write(f.clone(), b"-tail".to_vec()),
        ];
        let (mut short, mut zero_filled) = (false, false);
        for seed in 0..32u64 {
            let out = scratch("zeros");
            let _g = DirGuard(out.clone());
            CrashImage::materialize(&log, log.len(), seed, &root, &out).unwrap();
            let bytes = fs::read(out.join("f")).unwrap();
            let landed = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            assert!(b"synced-tail".starts_with(&bytes[..landed]), "{bytes:?}");
            assert!(bytes[landed..].iter().all(|&b| b == 0));
            short |= bytes.len() < 11;
            zero_filled |= bytes.len() == 11 && landed < 11;
        }
        assert!(
            short && zero_filled,
            "seeds explore both lost-extension outcomes"
        );
    }

    #[test]
    fn crash_image_writes_in_place_at_the_open_write_cursor() {
        let root = PathBuf::from("/w");
        let (tmp, seg) = (root.join("seg.tmp"), root.join("seg"));
        let log = vec![
            // A segment created full-size and zero-filled...
            VfsOp::Create(tmp.clone()),
            VfsOp::Write(tmp.clone(), vec![0; 16]),
            VfsOp::SyncData(tmp.clone()),
            VfsOp::Rename(tmp.clone(), seg.clone()),
            VfsOp::DirSync(root.clone()),
            // ...then written in place from its first byte.
            VfsOp::OpenWrite(seg.clone()),
            VfsOp::Write(seg.clone(), b"abc".to_vec()),
            VfsOp::SyncData(seg.clone()),
            VfsOp::Write(seg.clone(), b"defg".to_vec()),
        ];
        let mut outcomes = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            let out = scratch("inplace");
            let _g = DirGuard(out.clone());
            CrashImage::materialize(&log, log.len(), seed, &root, &out).unwrap();
            assert!(!out.join("seg.tmp").exists());
            let bytes = fs::read(out.join("seg")).unwrap();
            assert_eq!(bytes.len(), 16, "in-place writes never change the length");
            assert_eq!(&bytes[..3], b"abc", "synced bytes are guaranteed");
            // The unsynced write is lost (the zeros stay), torn or whole.
            let landed = bytes[3..].iter().take_while(|&&b| b != 0).count();
            assert!(b"defg".starts_with(&bytes[3..3 + landed]));
            assert!(bytes[3 + landed..].iter().all(|&b| b == 0));
            outcomes.insert(landed);
        }
        assert!(
            outcomes.contains(&0) && outcomes.contains(&4),
            "seeds explore lost and whole in-place writes: {outcomes:?}"
        );
        // Synced, the write is guaranteed in place.
        let mut synced = log.clone();
        synced.push(VfsOp::SyncData(seg.clone()));
        let out = scratch("inplace-synced");
        let _g = DirGuard(out.clone());
        CrashImage::materialize(&synced, synced.len(), 3, &root, &out).unwrap();
        assert_eq!(
            fs::read(out.join("seg")).unwrap(),
            b"abcdefg\0\0\0\0\0\0\0\0\0"
        );
    }

    #[test]
    fn crash_image_rename_is_guaranteed_only_after_dir_sync() {
        let root = PathBuf::from("/s");
        let tmp = root.join("snap").join("x.tmp");
        let fin = root.join("snap").join("x.snap");
        let mut log = vec![
            VfsOp::Create(tmp.clone()),
            VfsOp::Write(tmp.clone(), b"data".to_vec()),
            VfsOp::SyncData(tmp.clone()),
            VfsOp::Rename(tmp.clone(), fin.clone()),
        ];
        // Before the dir sync: either name may appear, never both.
        let mut saw_tmp = false;
        let mut saw_fin = false;
        for seed in 0..16u64 {
            let out = scratch("ren");
            let _g = DirGuard(out.clone());
            CrashImage::materialize(&log, log.len(), seed, &root, &out).unwrap();
            let t = out.join("snap").join("x.tmp").exists();
            let f = out.join("snap").join("x.snap").exists();
            assert!(!(t && f), "a rename never leaves both names");
            saw_tmp |= t;
            saw_fin |= f;
        }
        assert!(saw_tmp && saw_fin, "coins explore both rename outcomes");
        // After the dir sync the final name is guaranteed with full
        // content (it was fsynced before the rename).
        log.push(VfsOp::DirSync(root.join("snap")));
        for seed in 0..8u64 {
            let out = scratch("ren2");
            let _g = DirGuard(out.clone());
            CrashImage::materialize(&log, log.len(), seed, &root, &out).unwrap();
            assert!(!out.join("snap").join("x.tmp").exists());
            assert_eq!(fs::read(out.join("snap").join("x.snap")).unwrap(), b"data");
        }
    }

    #[test]
    fn crash_image_truncation_caps_the_synced_floor() {
        let root = PathBuf::from("/t");
        let f = root.join("f");
        let log = vec![
            VfsOp::OpenAppend(f.clone()),
            VfsOp::DirSync(root.clone()),
            VfsOp::Write(f.clone(), b"0123456789".to_vec()),
            VfsOp::SyncData(f.clone()),
            VfsOp::SetLen(f.clone(), 4),
            VfsOp::SyncData(f.clone()),
        ];
        let out = scratch("trunc");
        let _g = DirGuard(out.clone());
        CrashImage::materialize(&log, log.len(), 5, &root, &out).unwrap();
        assert_eq!(fs::read(out.join("f")).unwrap(), b"0123");
    }
}
