//! Logical time.
//!
//! The benchmark's correctness criteria are formulated over *orderings*
//! (payment-before-shipment). Wall-clock time is too coarse and
//! non-deterministic for that, so the whole stack uses [`EventTime`] — a
//! Lamport-style scalar timestamp minted by [`LogicalClock`]; totally
//! ordered, monotone per clock, and merged on message receipt so it
//! respects happens-before.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A Lamport timestamp. Larger = later. `EventTime(0)` is "the beginning".
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct EventTime(pub u64);

impl EventTime {
    pub const ZERO: EventTime = EventTime(0);

    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for EventTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A thread-safe Lamport clock.
///
/// `tick` advances local time; `observe` merges a timestamp received from
/// another component, guaranteeing that any event recorded after the merge
/// is ordered after the observed event.
#[derive(Debug, Default)]
pub struct LogicalClock(AtomicU64);

impl LogicalClock {
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Advances the clock and returns the new timestamp.
    #[inline]
    pub fn tick(&self) -> EventTime {
        EventTime(self.0.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Merges an externally observed timestamp (Lamport receive rule) and
    /// returns a timestamp strictly after it.
    pub fn observe(&self, remote: EventTime) -> EventTime {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.max(remote.0) + 1;
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return EventTime(next),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current time without advancing.
    pub fn now(&self) -> EventTime {
        EventTime(self.0.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ticks_are_strictly_increasing() {
        let c = LogicalClock::new();
        let mut last = EventTime::ZERO;
        for _ in 0..100 {
            let t = c.tick();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn observe_jumps_past_remote() {
        let c = LogicalClock::new();
        c.tick();
        let t = c.observe(EventTime(100));
        assert!(t > EventTime(100));
        assert!(c.tick() > t);
    }

    #[test]
    fn observe_with_stale_remote_still_advances() {
        let c = LogicalClock::new();
        for _ in 0..10 {
            c.tick();
        }
        let before = c.now();
        let t = c.observe(EventTime(1));
        assert!(t > before);
    }

    #[test]
    fn concurrent_clock_is_safe() {
        let c = std::sync::Arc::new(LogicalClock::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.tick().raw()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "ticks must be unique");
    }
}
