//! Offline shim for the `parking_lot` crate.
//!
//! The build environment has no network access, so this crate
//! reimplements the subset of parking_lot's API the workspace uses as
//! thin wrappers over `std::sync`. Semantics match parking_lot where it
//! matters to callers: `lock()`/`read()`/`write()` return guards
//! directly (no poisoning — a panicked holder does not wedge the lock).
//!
//! [`Condvar`] counts its sleepers, as upstream parking_lot does: a
//! notify with no thread asleep returns without the futex syscall. That
//! is sound only if every waiter's predicate changes under the mutex it
//! waits with. The notifier may call `notify_*` after unlocking, but the
//! change itself must happen while the lock is held; a flag flipped
//! outside it can be missed by a thread about to sleep.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::TryLockError;
use std::time::Duration;

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: e.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn is_locked(&self) -> bool {
        match self.inner.try_lock() {
            Ok(_) => false,
            Err(TryLockError::Poisoned(_)) => false,
            Err(TryLockError::WouldBlock) => true,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(_) => panic!("poisoned mutex in get_mut"),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(TryLockError::Poisoned(e)) => Some(RwLockReadGuard {
                inner: e.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(TryLockError::Poisoned(e)) => Some(RwLockWriteGuard {
                inner: e.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(_) => panic!("poisoned rwlock in get_mut"),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            None => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable mirroring `parking_lot::Condvar`'s no-poisoning API.
/// See the crate docs for the sleeper count and the rule it relies on.
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside `wait`/`wait_for`. Changed only with the waited
    /// mutex held, so a notifier that changed the predicate under that
    /// mutex reads every sleeper that missed the change: the unlock in
    /// `wait` orders the increment before the notifier's lock.
    sleepers: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    pub fn notify_one(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.inner.notify_all();
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        take_guard(guard, |g| {
            self.inner.wait(g).unwrap_or_else(|e| e.into_inner())
        });
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let mut timed_out = false;
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        take_guard(guard, |g| {
            let (g, r) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(|e| e.into_inner());
            timed_out = r.timed_out();
            g
        });
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        WaitTimeoutResult { timed_out }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Runs `f` on the std guard inside `guard`, replacing it with the guard
/// `f` returns. Used to adapt std's by-value condvar waits to
/// parking_lot's by-reference API.
fn take_guard<'a, T: ?Sized>(
    guard: &mut MutexGuard<'a, T>,
    f: impl FnOnce(std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T>,
) {
    // SAFETY: we read the guard out bitwise, hand it to `f`, and write
    // the replacement back before returning, so exactly one live copy
    // exists at every return path. If `f` panics, unwinding would drop
    // the read copy AND the caller's wrapper guard — a double unlock —
    // so we abort instead of unwinding (std's Condvar only panics on
    // multi-mutex misuse, where parking_lot deadlocks/aborts too).
    unsafe {
        let inner = std::ptr::read(&guard.inner);
        let new_inner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(inner)))
            .unwrap_or_else(|_| std::process::abort());
        std::ptr::write(&mut guard.inner, new_inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(!m.is_locked());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            cv.wait_for(&mut g, Duration::from_millis(50));
        }
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn condvar_counting_sleepers_loses_no_wakeup() {
        // Tokens handed from two notifiers (one per notify flavour) to
        // four consumers (two per wait flavour); every change to the
        // count happens under the mutex. A lost wakeup strands a `wait`
        // consumer (the watchdog below) or times a `wait_for` one out.
        const CONSUMERS: usize = 4;
        const PER_CONSUMER: usize = 2_000;
        let shared = Arc::new((Mutex::new(0usize), Condvar::new()));
        let timeouts = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut threads = Vec::new();
        for c in 0..CONSUMERS {
            let (shared, timeouts, done_tx) = (shared.clone(), timeouts.clone(), done_tx.clone());
            threads.push(thread::spawn(move || {
                let (m, cv) = &*shared;
                for _ in 0..PER_CONSUMER {
                    let mut tokens = m.lock();
                    while *tokens == 0 {
                        if c % 2 == 0 {
                            cv.wait(&mut tokens);
                        } else if cv
                            .wait_for(&mut tokens, Duration::from_secs(10))
                            .timed_out()
                        {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    *tokens -= 1;
                }
                done_tx.send(()).unwrap();
            }));
        }
        for n in 0..2 {
            let shared = shared.clone();
            threads.push(thread::spawn(move || {
                let (m, cv) = &*shared;
                for _ in 0..CONSUMERS * PER_CONSUMER / 2 {
                    *m.lock() += 1;
                    if n == 0 {
                        cv.notify_one();
                    } else {
                        cv.notify_all();
                    }
                    thread::yield_now();
                }
            }));
        }
        for _ in 0..CONSUMERS {
            done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a consumer missed its wakeup");
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(timeouts.load(Ordering::Relaxed), 0, "a wait_for timed out");
        let (m, cv) = &*shared;
        assert_eq!(*m.lock(), 0);
        assert_eq!(cv.sleepers.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn condvar_notify_without_sleeper_then_wait_on_true_predicate() {
        let (m, cv) = (Mutex::new(false), Condvar::new());
        *m.lock() = true;
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.sleepers.load(Ordering::Relaxed), 0);
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        assert!(*ready);
    }
}
