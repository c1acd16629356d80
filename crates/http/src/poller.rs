//! Readiness polling for the event-driven connection engine.
//!
//! The [`Poller`] is the seam between transports and the event loop: it
//! is a readiness mailbox (sources push edges through [`Watcher`]
//! handles), an interest filter (edges are only delivered while the loop
//! has asked for them), a deadline wheel (per-token timeouts for idle
//! connections), and a wakeup channel (for work injected from other
//! threads: new connections to accept, shutdown).
//!
//! For the in-memory transport, [`Connection`](crate::pipe::Connection)s
//! push edges directly from their pipes. An epoll-backed transport would
//! implement the same contract by translating `epoll_wait` results into
//! [`Event`]s — nothing in [`conn`](crate::conn) knows which one it is
//! running over.
//!
//! Delivery semantics are level-ish: readiness accumulates in the
//! mailbox until the matching interest is enabled, and callers that
//! enable an interest *after* the edge passed seed the mailbox with the
//! source's current level via [`Poller::inject`]. An engine loop's read
//! drains its source completely, and whatever lands after it raises a
//! fresh edge, so no edge is ever lost between the two rules; bytes the
//! loop has already read but not yet served are the loop's own to
//! re-queue.

use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Identifies one registered readiness source (one connection).
///
/// Tokens are never reused by a loop: a late edge or deadline for a
/// closed connection can therefore never be misdelivered to a newer one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Which readiness directions a token currently wants delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Deliver readable edges (bytes arrived / EOF).
    pub readable: bool,
    /// Deliver writable edges (buffer space freed / peer closed).
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle keep-alive connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Both directions — a connection with buffered response bytes.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither — a connection under backpressure with nothing to write.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// A readiness level or edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Readiness {
    /// A read will make progress (bytes buffered, or EOF).
    pub readable: bool,
    /// A write will make progress (space available, or peer gone).
    pub writable: bool,
}

impl Readiness {
    /// The readable edge.
    pub const READABLE: Readiness = Readiness {
        readable: true,
        writable: false,
    };
    /// The writable edge.
    pub const WRITABLE: Readiness = Readiness {
        readable: false,
        writable: true,
    };

    fn any(self) -> bool {
        self.readable || self.writable
    }

    fn merge(&mut self, other: Readiness) {
        self.readable |= other.readable;
        self.writable |= other.writable;
    }
}

/// One delivery from [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registered source this event concerns.
    pub token: Token,
    /// Directions that became ready (empty for pure deadline firings).
    pub readiness: Readiness,
    /// Whether the token's deadline expired.
    pub timed_out: bool,
}

/// Handle a readiness source uses to push edges into the poller.
///
/// Holds only a weak reference: a source outliving its poller notifies
/// into the void instead of keeping the event loop's state alive.
#[derive(Clone)]
pub struct Watcher {
    inner: Weak<PollerInner>,
    token: Token,
}

impl Watcher {
    /// Reports that `readiness` became true for this watcher's token.
    pub fn notify(&self, readiness: Readiness) {
        if let Some(inner) = self.inner.upgrade() {
            let mut state = inner.state.lock();
            state.pending.entry(self.token).or_default().merge(readiness);
            inner.cond.notify_all();
        }
    }
}

/// Ordered per-token deadline index — the engine's timer wheel. Insert,
/// reschedule and cancel are `O(log n)`; the next expiry is `O(1)` at
/// the front of the set.
#[derive(Default)]
struct DeadlineWheel {
    queue: BTreeSet<(Instant, Token)>,
    by_token: HashMap<Token, Instant>,
}

impl DeadlineWheel {
    fn set(&mut self, token: Token, at: Option<Instant>) {
        if let Some(prev) = self.by_token.remove(&token) {
            self.queue.remove(&(prev, token));
        }
        if let Some(at) = at {
            self.by_token.insert(token, at);
            self.queue.insert((at, token));
        }
    }

    fn next(&self) -> Option<Instant> {
        self.queue.first().map(|(at, _)| *at)
    }

    /// Removes and returns every token whose deadline is `<= now`.
    fn expire(&mut self, now: Instant) -> Vec<Token> {
        let mut fired = Vec::new();
        while let Some(&(at, token)) = self.queue.first() {
            if at > now {
                break;
            }
            self.queue.remove(&(at, token));
            self.by_token.remove(&token);
            fired.push(token);
        }
        fired
    }
}

struct PollerState {
    interest: HashMap<Token, Interest>,
    pending: HashMap<Token, Readiness>,
    deadlines: DeadlineWheel,
    woken: bool,
}

struct PollerInner {
    state: Mutex<PollerState>,
    cond: Condvar,
}

/// The readiness poller driving one event loop.
pub struct Poller {
    inner: Arc<PollerInner>,
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> Poller {
        Poller {
            inner: Arc::new(PollerInner {
                state: Mutex::new(PollerState {
                    interest: HashMap::new(),
                    pending: HashMap::new(),
                    deadlines: DeadlineWheel::default(),
                    woken: false,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// A watcher that pushes edges for `token` into this poller.
    pub fn watcher(&self, token: Token) -> Watcher {
        Watcher {
            inner: Arc::downgrade(&self.inner),
            token,
        }
    }

    /// Registers `token` with an initial interest set.
    pub fn register(&self, token: Token, interest: Interest) {
        self.inner.state.lock().interest.insert(token, interest);
    }

    /// Replaces `token`'s interest set. Callers enabling a direction
    /// should [`inject`](Self::inject) the source's current level — the
    /// edge may have fired while the interest was off.
    pub fn set_interest(&self, token: Token, interest: Interest) {
        let mut state = self.inner.state.lock();
        if state.interest.insert(token, interest).is_some() && interest != Interest::NONE {
            self.inner.cond.notify_all();
        }
    }

    /// Seeds the mailbox with a level observed directly on the source.
    pub fn inject(&self, token: Token, readiness: Readiness) {
        if readiness.any() {
            let mut state = self.inner.state.lock();
            state.pending.entry(token).or_default().merge(readiness);
            self.inner.cond.notify_all();
        }
    }

    /// Sets (or clears, with `None`) the token's deadline. An expired
    /// deadline is delivered once as an [`Event`] with `timed_out`.
    pub fn set_deadline(&self, token: Token, at: Option<Instant>) {
        let mut state = self.inner.state.lock();
        state.deadlines.set(token, at);
        self.inner.cond.notify_all();
    }

    /// Removes every trace of `token`.
    pub fn deregister(&self, token: Token) {
        let mut state = self.inner.state.lock();
        state.interest.remove(&token);
        state.pending.remove(&token);
        state.deadlines.set(token, None);
    }

    /// Wakes a [`poll`](Self::poll) blocked with no ready events — used
    /// by the accept path and by shutdown to hand work to the loop.
    pub fn wake(&self) {
        let mut state = self.inner.state.lock();
        state.woken = true;
        self.inner.cond.notify_all();
    }

    /// Blocks until at least one event is deliverable, a deadline
    /// expires, [`wake`](Self::wake) is called, or `max_wait` elapses;
    /// appends deliveries to `events` (possibly none, on wake/timeout).
    pub fn poll(&self, events: &mut Vec<Event>, max_wait: Duration) {
        let give_up = Instant::now() + max_wait;
        let mut state = self.inner.state.lock();
        loop {
            let now = Instant::now();
            for token in state.deadlines.expire(now) {
                events.push(Event {
                    token,
                    readiness: Readiness::default(),
                    timed_out: true,
                });
            }
            // Deliver pending readiness gated by interest; undelivered
            // directions stay in the mailbox until their interest
            // returns. Tokens with no interest entry at all are gone
            // (deregistered) — drop their late edges so closed
            // connections can't grow the mailbox forever.
            let mut delivered: Vec<(Token, Readiness)> = Vec::new();
            let mut stale: Vec<Token> = Vec::new();
            for (&token, &ready) in state.pending.iter() {
                let Some(interest) = state.interest.get(&token).copied() else {
                    stale.push(token);
                    continue;
                };
                let eff = Readiness {
                    readable: ready.readable && interest.readable,
                    writable: ready.writable && interest.writable,
                };
                if eff.any() {
                    delivered.push((token, eff));
                }
            }
            for token in stale {
                state.pending.remove(&token);
            }
            for &(token, eff) in &delivered {
                events.push(Event {
                    token,
                    readiness: eff,
                    timed_out: false,
                });
                let entry = state.pending.get_mut(&token).expect("pending entry");
                entry.readable &= !eff.readable;
                entry.writable &= !eff.writable;
                if !entry.any() {
                    state.pending.remove(&token);
                }
            }
            if !events.is_empty() || state.woken {
                state.woken = false;
                return;
            }
            let wait_until = match state.deadlines.next() {
                Some(at) => at.min(give_up),
                None => give_up,
            };
            if now >= wait_until {
                return;
            }
            let _ = self.inner.cond.wait_for(&mut state, wait_until - now);
            if state.woken {
                state.woken = false;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watcher_edges_are_delivered_under_interest() {
        let poller = Poller::new();
        let t = Token(1);
        poller.register(t, Interest::READ);
        poller.watcher(t).notify(Readiness::READABLE);
        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_millis(100));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, t);
        assert!(events[0].readiness.readable);
        assert!(!events[0].timed_out);
    }

    #[test]
    fn disabled_interest_holds_readiness_until_reenabled() {
        let poller = Poller::new();
        let t = Token(2);
        poller.register(t, Interest::NONE);
        poller.watcher(t).notify(Readiness::READABLE);
        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_millis(10));
        assert!(events.is_empty(), "no interest => no delivery");
        poller.set_interest(t, Interest::READ);
        poller.poll(&mut events, Duration::from_millis(100));
        assert_eq!(events.len(), 1, "held readiness delivers on re-enable");
    }

    #[test]
    fn writable_edge_filtered_from_read_only_interest() {
        let poller = Poller::new();
        let t = Token(3);
        poller.register(t, Interest::READ);
        poller.watcher(t).notify(Readiness::WRITABLE);
        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_millis(10));
        assert!(events.is_empty());
        poller.set_interest(t, Interest::READ_WRITE);
        poller.poll(&mut events, Duration::from_millis(100));
        assert_eq!(events.len(), 1);
        assert!(events[0].readiness.writable);
    }

    #[test]
    fn deadlines_fire_once_in_order() {
        let poller = Poller::new();
        let (a, b) = (Token(1), Token(2));
        poller.register(a, Interest::READ);
        poller.register(b, Interest::READ);
        let now = Instant::now();
        poller.set_deadline(b, Some(now + Duration::from_millis(5)));
        poller.set_deadline(a, Some(now + Duration::from_millis(1)));
        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_secs(1));
        // Both may arrive in one or two polls depending on scheduling.
        while events.len() < 2 {
            poller.poll(&mut events, Duration::from_secs(1));
        }
        assert!(events.iter().all(|e| e.timed_out));
        assert_eq!(events[0].token, a, "earlier deadline fires first");
        events.clear();
        poller.poll(&mut events, Duration::from_millis(20));
        assert!(events.is_empty(), "deadlines fire exactly once");
    }

    #[test]
    fn cancelled_deadline_does_not_fire() {
        let poller = Poller::new();
        let t = Token(9);
        poller.register(t, Interest::READ);
        poller.set_deadline(t, Some(Instant::now() + Duration::from_millis(5)));
        poller.set_deadline(t, None);
        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_millis(20));
        assert!(events.is_empty());
    }

    #[test]
    fn wake_interrupts_an_idle_poll() {
        let poller = Arc::new(Poller::new());
        let p = poller.clone();
        let start = Instant::now();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p.wake();
        });
        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_secs(10));
        assert!(events.is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake must interrupt the wait"
        );
        waker.join().unwrap();
    }

    #[test]
    fn deregister_drops_pending_state() {
        let poller = Poller::new();
        let t = Token(4);
        poller.register(t, Interest::READ);
        poller.watcher(t).notify(Readiness::READABLE);
        poller.set_deadline(t, Some(Instant::now() + Duration::from_millis(1)));
        poller.deregister(t);
        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_millis(20));
        assert!(events.is_empty());
    }
}
