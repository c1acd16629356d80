//! Spans recorded from outside the program, and the decorators that
//! record them at its public trait seams: [`TimedPlatform`]
//! (`MarketplacePlatform`), [`TimedBackend`] (`StateBackend`),
//! [`TimedVfs`] (`Vfs`/`VfsFile`) and [`TimedLog`] (`EventLog`).
//!
//! Spans stay in per-thread buffers until [`drain`]. A span's layer is
//! the first dot-separated part of its name.

use om_common::config::BackendKind;
use om_common::entity::{Customer, Product, Seller, SellerDashboard};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::{Money, OmResult};
use om_log::{Entry, EventLog};
use om_marketplace::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, RecoveryOutcome, UnwedgeOutcome,
};
use om_marketplace::{MarketplacePlatform, PlatformKind};
use om_storage::backend::{StateSession, WriteBatch, WriteOp};
use om_storage::{StateBackend, Vfs, VfsFile};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread, 0 if none.
    pub parent: u64,
    /// The client request in flight when the span began, 0 if none (or
    /// more than one: only the one-in-flight pass sets it).
    pub request: u64,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done, in the span's own unit: keys of a commit or read,
    /// records of a scan, rejections of a checkout.
    pub units: u64,
    pub bytes: u64,
    pub ok: bool,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct ThreadBuf {
    name: String,
    spans: Mutex<Vec<Span>>,
}

struct Local {
    index: u32,
    buf: Arc<ThreadBuf>,
    /// Ids of the spans open on this thread, innermost last.
    stack: RefCell<Vec<u64>>,
}

static THREADS: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CURRENT_REQUEST: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static LOCAL: Local = {
        let buf = Arc::new(ThreadBuf {
            name: std::thread::current().name().unwrap_or("unnamed").to_string(),
            spans: Mutex::new(Vec::new()),
        });
        let mut threads = THREADS.lock().expect("no span recorder panics while registering");
        threads.push(buf.clone());
        Local {
            index: threads.len() as u32 - 1,
            buf,
            stack: RefCell::new(Vec::new()),
        }
    };
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Names the one client request in flight (0 = none), so spans begun on
/// mailbox, epoch and worker threads meanwhile are attributed to it.
pub fn set_request(id: u64) {
    CURRENT_REQUEST.store(id, Ordering::SeqCst);
}

/// Switches span recording on or off (the initial state) for the whole
/// process. Off, the decorators still sit in the call path but record
/// nothing, which is the untraced reference the tracing overhead is
/// measured against.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn record(span: Span) {
    LOCAL.with(|l| {
        l.buf
            .spans
            .lock()
            .expect("no span recorder panics while holding its buffer")
            .push(span)
    });
}

/// Records a span measured by the caller (the client's own view of a
/// request).
pub fn record_client(name: &'static str, request: u64, start_ns: u64, end_ns: u64, ok: bool) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let thread = LOCAL.with(|l| l.index);
    record(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        request,
        thread,
        name,
        start_ns,
        end_ns,
        units: 1,
        bytes: 0,
        ok,
    });
}

/// An open span; recorded when dropped, if recording was on when it began.
pub struct Guard {
    live: bool,
    span: Span,
}

pub fn enter(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard {
            live: false,
            span: Span {
                id: 0,
                parent: 0,
                request: 0,
                thread: 0,
                name,
                start_ns: 0,
                end_ns: 0,
                units: 0,
                bytes: 0,
                ok: true,
            },
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (thread, parent) = LOCAL.with(|l| {
        let mut stack = l.stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        (l.index, parent)
    });
    Guard {
        live: true,
        span: Span {
            id,
            parent,
            request: CURRENT_REQUEST.load(Ordering::SeqCst),
            thread,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            units: 1,
            bytes: 0,
            ok: true,
        },
    }
}

impl Guard {
    fn work(&mut self, units: usize, bytes: usize) {
        self.span.units = units as u64;
        self.span.bytes = bytes as u64;
    }

    fn result<T, E>(&mut self, result: &Result<T, E>) {
        self.span.ok = result.is_ok();
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        self.span.end_ns = now_ns();
        LOCAL.with(|l| {
            l.stack.borrow_mut().pop();
        });
        record(self.span);
    }
}

/// Takes every span recorded so far, ordered by start, and the thread
/// names their `thread` fields index.
pub fn drain() -> (Vec<Span>, Vec<String>) {
    let threads = THREADS
        .lock()
        .expect("no span recorder panics while registering");
    let mut spans = Vec::new();
    for t in threads.iter() {
        spans.append(&mut t.spans.lock().expect("span buffer lock"));
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    (spans, threads.iter().map(|t| t.name.clone()).collect())
}

/// Writes spans as one JSON document: `{"threads": [...], "spans": [...]}`.
pub fn write_json(path: &Path, spans: &[Span], threads: &[String]) -> io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"threads\":{},\n\"spans\":[",
        serde_json::json!(threads)
    )?;
    for (i, s) in spans.iter().enumerate() {
        write!(
            out,
            "{}\n{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"thread\":{},\"parent\":{},\"request\":{}}}",
            if i == 0 { "" } else { "," },
            s.id, s.name, s.start_ns, s.end_ns, s.thread, s.parent, s.request
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

// -- MarketplacePlatform -----------------------------------------------------

pub struct TimedPlatform {
    inner: Arc<dyn MarketplacePlatform>,
}

impl TimedPlatform {
    pub fn new(inner: Arc<dyn MarketplacePlatform>) -> Self {
        Self { inner }
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce() -> OmResult<T>) -> OmResult<T> {
        let mut g = enter(name);
        let result = call();
        g.result(&result);
        result
    }
}

impl MarketplacePlatform for TimedPlatform {
    fn kind(&self) -> PlatformKind {
        self.inner.kind()
    }
    fn backend(&self) -> Option<BackendKind> {
        self.inner.backend()
    }
    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        self.timed("om_marketplace.ingest", || self.inner.ingest_seller(seller))
    }
    fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        self.timed("om_marketplace.ingest", || {
            self.inner.ingest_customer(customer)
        })
    }
    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        self.timed("om_marketplace.ingest", || {
            self.inner.ingest_product(product, initial_stock)
        })
    }
    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        let mut g = enter("om_marketplace.checkout");
        let result = self.inner.checkout(request);
        g.result(&result);
        let rejected = matches!(result, Ok(CheckoutOutcome::Rejected(_)));
        g.work(rejected as usize, 0);
        result
    }
    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        self.timed("om_marketplace.cart_add", || {
            self.inner.add_to_cart(customer, item)
        })
    }
    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        self.timed("om_marketplace.price_update", || {
            self.inner.price_update(seller, product, price)
        })
    }
    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        self.timed("om_marketplace.product_delete", || {
            self.inner.product_delete(seller, product)
        })
    }
    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        self.timed("om_marketplace.delivery", || {
            self.inner.update_delivery(max_sellers)
        })
    }
    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        self.timed("om_marketplace.dashboard", || {
            self.inner.seller_dashboard(seller)
        })
    }
    fn quiesce(&self) {
        let _g = enter("om_marketplace.quiesce");
        self.inner.quiesce()
    }
    fn snapshot(&self) -> OmResult<MarketSnapshot> {
        self.timed("om_marketplace.snapshot", || self.inner.snapshot())
    }
    fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.counters()
    }
    fn crash_and_recover(&self) -> Option<RecoveryOutcome> {
        self.inner.crash_and_recover()
    }
    fn is_wedged(&self) -> bool {
        self.inner.is_wedged()
    }
    fn unwedge(&self) -> Option<OmResult<UnwedgeOutcome>> {
        self.inner.unwedge()
    }
}

// -- StateBackend --------------------------------------------------------------

pub struct TimedBackend {
    inner: Arc<dyn StateBackend>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn StateBackend>) -> Self {
        Self { inner }
    }
}

fn ops_bytes(ops: &[WriteOp]) -> usize {
    ops.iter()
        .map(|op| op.key.len() + op.value.as_ref().map_or(0, Vec::len))
        .sum()
}

impl StateBackend for TimedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut g = enter("om_storage.get");
        let value = self.inner.get(key);
        g.work(1, value.as_ref().map_or(0, Vec::len));
        value
    }
    fn put(&self, key: &[u8], value: &[u8]) {
        let mut g = enter("om_storage.commit");
        g.work(1, key.len() + value.len());
        self.inner.put(key, value)
    }
    fn delete(&self, key: &[u8]) {
        let mut g = enter("om_storage.commit");
        g.work(1, key.len());
        self.inner.delete(key)
    }
    fn try_put(&self, key: &[u8], value: &[u8]) -> OmResult<()> {
        let mut g = enter("om_storage.commit");
        g.work(1, key.len() + value.len());
        let result = self.inner.try_put(key, value);
        g.result(&result);
        result
    }
    fn try_delete(&self, key: &[u8]) -> OmResult<()> {
        let mut g = enter("om_storage.commit");
        g.work(1, key.len());
        let result = self.inner.try_delete(key);
        g.result(&result);
        result
    }
    fn is_wedged(&self) -> bool {
        self.inner.is_wedged()
    }
    fn unwedge(&self) -> Option<OmResult<u64>> {
        self.inner.unwedge()
    }
    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        let mut g = enter("om_storage.get");
        let values = self.inner.get_many(keys);
        let bytes = values.iter().flatten().map(Vec::len).sum();
        g.work(keys.len(), bytes);
        values
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut g = enter("om_storage.scan");
        let rows = self.inner.scan_prefix(prefix);
        g.work(
            rows.len(),
            rows.iter().map(|(k, v)| k.len() + v.len()).sum(),
        );
        rows
    }
    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        let mut g = enter("om_storage.commit");
        g.work(batch.len(), ops_bytes(batch.ops()));
        let result = self.inner.commit(batch);
        g.result(&result);
        result
    }
    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        let mut g = enter("om_storage.commit");
        g.work(ops.len(), ops_bytes(ops));
        let result = self.inner.commit_ops(ops);
        g.result(&result);
        result
    }
    fn session(&self) -> Box<dyn StateSession + '_> {
        Box::new(TimedSession(self.inner.session()))
    }
    fn quiesce(&self) {
        self.inner.quiesce()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.counters()
    }
}

struct TimedSession<'a>(Box<dyn StateSession + 'a>);

impl StateSession for TimedSession<'_> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let mut g = enter("om_storage.get");
        let value = self.0.get(key);
        g.work(1, value.as_ref().map_or(0, Vec::len));
        value
    }
    fn put(&mut self, key: &[u8], value: &[u8]) {
        let mut g = enter("om_storage.commit");
        g.work(1, key.len() + value.len());
        self.0.put(key, value)
    }
    fn delete(&mut self, key: &[u8]) {
        let mut g = enter("om_storage.commit");
        g.work(1, key.len());
        self.0.delete(key)
    }
    fn fallbacks(&self) -> u64 {
        self.0.fallbacks()
    }
}

// -- Vfs -----------------------------------------------------------------------

/// Span names of one class of file, told apart by directory: the state
/// store's write-ahead log, the ingress topic's segments, and everything
/// else the state store maintains (snapshots, deltas, sidecar indexes).
#[derive(Clone, Copy)]
struct FileClass {
    write: &'static str,
    fsync: &'static str,
}

fn classify(path: &Path) -> FileClass {
    let in_dir = |name: &str| path.components().any(|c| c.as_os_str() == name);
    if in_dir("ingress") {
        FileClass {
            write: "vfs.write.ingress",
            fsync: "vfs.fsync.ingress",
        }
    } else if in_dir("wal") {
        FileClass {
            write: "vfs.write.wal",
            fsync: "vfs.fsync.wal",
        }
    } else {
        FileClass {
            write: "vfs.write.maintenance",
            fsync: "vfs.fsync.maintenance",
        }
    }
}

pub struct TimedVfs {
    inner: Arc<dyn Vfs>,
}

impl TimedVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        Self { inner }
    }

    fn open(
        &self,
        path: &Path,
        open: impl FnOnce() -> io::Result<Box<dyn VfsFile>>,
    ) -> io::Result<Box<dyn VfsFile>> {
        let mut g = enter("vfs.open");
        let file = open();
        g.result(&file);
        Ok(Box::new(TimedFile {
            inner: file?,
            class: classify(path),
        }))
    }
}

impl Vfs for TimedVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open(path, || self.inner.create(path))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open(path, || self.inner.open_append(path))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open(path, || self.inner.open_write(path))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut g = enter("vfs.read");
        let result = self.inner.read(path);
        g.result(&result);
        g.work(1, result.as_ref().map_or(0, Vec::len));
        result
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut g = enter(classify(path).write);
        g.work(1, bytes.len());
        let result = self.inner.write_file(path, bytes);
        g.result(&result);
        result
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut g = enter("vfs.rename");
        let result = self.inner.rename(from, to);
        g.result(&result);
        result
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut g = enter("vfs.remove");
        let result = self.inner.remove_file(path);
        g.result(&result);
        result
    }
    fn dir_sync(&self, path: &Path) -> io::Result<()> {
        let mut g = enter("vfs.fsync.dir");
        let result = self.inner.dir_sync(path);
        g.result(&result);
        result
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    class: FileClass,
}

impl VfsFile for TimedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut g = enter(self.class.write);
        g.work(1, buf.len());
        let result = self.inner.write_all(buf);
        g.result(&result);
        result
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let mut g = enter(self.class.fsync);
        let result = self.inner.sync_data();
        g.result(&result);
        result
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let mut g = enter(self.class.fsync);
        let result = self.inner.sync_all();
        g.result(&result);
        result
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

// -- EventLog ------------------------------------------------------------------

pub struct TimedLog<T> {
    inner: Arc<dyn EventLog<T>>,
}

impl<T> TimedLog<T> {
    pub fn new(inner: Arc<dyn EventLog<T>>) -> Self {
        Self { inner }
    }
}

impl<T> EventLog<T> for TimedLog<T> {
    fn partition_count(&self) -> usize {
        self.inner.partition_count()
    }
    fn append_raw(&self, partition: usize, producer: u64, seq: u64, payload: T) -> OmResult<u64> {
        let mut g = enter("om_log.append");
        let result = self.inner.append_raw(partition, producer, seq, payload);
        g.result(&result);
        result
    }
    fn read_from(&self, partition: usize, offset: u64, max: usize) -> Vec<Entry<T>> {
        let mut g = enter("om_log.read");
        let entries = self.inner.read_from(partition, offset, max);
        g.work(entries.len(), 0);
        entries
    }
    fn end_offset(&self, partition: usize) -> u64 {
        self.inner.end_offset(partition)
    }
    fn max_seq(&self, partition: usize) -> u64 {
        self.inner.max_seq(partition)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn duplicate_count(&self) -> u64 {
        self.inner.duplicate_count()
    }
}
