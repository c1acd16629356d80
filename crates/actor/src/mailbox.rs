//! Activations, mailboxes, the run-queue scheduling protocol and the
//! reply path.
//!
//! Every activated grain owns a mailbox. The invariant maintained here is
//! the actor guarantee: **at most one thread runs a given activation at a
//! time**. We use the classic "scheduled" flag protocol: the enqueue that
//! finds the flag clear sets it and owns the activation's next turn,
//! whichever thread made it — a caller, which runs the turn itself
//! ([`crate::Cluster::call_all`]), or a thread routing an event, which
//! queues the turn on the cluster's worker pool. The owner drains a
//! bounded batch of messages per turn and queues another turn on the pool
//! if messages remain.
//!
//! A retired activation fails every message it gets with `Unavailable`,
//! unhandled, from then on. Two things retire one: a handler that panics
//! (its own call fails the same way), and the kill of its silo, which also
//! fails the messages already queued to it. Either way the cluster's grain
//! table drops it, so the next message reactivates the grain from storage,
//! and nothing ever revives a retired activation.
//!
//! Every call — one, or a fan-out of many — answers into a gather latch:
//! one slot per message, and only the reply that fills the last slot wakes
//! the caller.

use crate::grain::{Grain, GrainContext, GrainId, Outgoing, RowWrite};
use om_common::{OmError, OmResult};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Instant;

/// Maximum messages drained per turn before yielding the worker (fairness
/// under hot-grain skew).
pub(crate) const TURN_BATCH: usize = 16;

/// A message in flight to a grain.
pub(crate) struct Envelope<M, R> {
    pub msg: M,
    /// Present for request/response calls; absent for one-way events.
    pub reply: Option<ReplyTo<R>>,
}

/// The gather latch of one call or fan-out: a slot per message, filled by
/// the worker that handles it, and the number of slots still empty.
pub(crate) struct Gather<R> {
    slots: Mutex<Vec<Option<OmResult<R>>>>,
    /// Slots not yet filled. The slots themselves are published by their
    /// mutex; a fill's `AcqRel` decrement pairs with the caller's
    /// `Acquire` load, so a caller that reads 0 also sees every fill.
    pending: AtomicUsize,
    caller: Thread,
}

impl<R> Gather<R> {
    /// A latch of `n` empty slots that wakes the calling thread.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            pending: AtomicUsize::new(n),
            caller: std::thread::current(),
        })
    }

    /// Fills `slot`; the fill that leaves no slot empty wakes the caller.
    /// A fill after the caller stopped waiting is dropped.
    pub fn fill(&self, slot: usize, result: OmResult<R>) {
        if let Some(s) = self.slots.lock().get_mut(slot) {
            *s = Some(result);
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.caller.unpark();
        }
    }

    /// Whether every slot has been filled.
    pub fn is_filled(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Blocks the calling thread until every slot is filled or `deadline`
    /// passes, then takes the slots in call order (`None` = unanswered).
    pub fn wait(&self, deadline: Instant) -> Vec<Option<OmResult<R>>> {
        while self.pending.load(Ordering::Acquire) > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::park_timeout(deadline - now);
        }
        std::mem::take(&mut *self.slots.lock())
    }
}

/// Where a call's reply goes: one slot of a [`Gather`] latch. Dropping it
/// unanswered fills the slot with `Unavailable`, so a lost envelope fails
/// its call at once instead of running out the caller's timeout.
pub(crate) struct ReplyTo<R> {
    target: Option<(Arc<Gather<R>>, usize)>,
}

impl<R> ReplyTo<R> {
    pub fn new(gather: Arc<Gather<R>>, slot: usize) -> Self {
        Self {
            target: Some((gather, slot)),
        }
    }

    pub fn send(mut self, result: OmResult<R>) {
        if let Some((gather, slot)) = self.target.take() {
            gather.fill(slot, result);
        }
    }
}

impl<R> Drop for ReplyTo<R> {
    fn drop(&mut self) {
        if let Some((gather, slot)) = self.target.take() {
            gather.fill(
                slot,
                Err(OmError::Unavailable("call dropped unanswered".into())),
            );
        }
    }
}

/// An activated grain plus its mailbox.
pub(crate) struct Activation<M, R> {
    pub id: GrainId,
    grain: Mutex<Box<dyn Grain<M, R>>>,
    mailbox: Mutex<VecDeque<Envelope<M, R>>>,
    /// True from the enqueue that made the activation runnable until its
    /// turn ends: while its turn waits on the pool or a thread drains it.
    scheduled: AtomicBool,
    /// Set once by a handler panic or a kill of the silo, never cleared. A
    /// kill sets it before it asks [`Activation::mid_turn`], and a turn
    /// reads it with the grain held, so a turn that takes the grain after
    /// a kill found it free handles nothing.
    retired: AtomicBool,
}

impl<M: Send + 'static, R: Send + 'static> Activation<M, R> {
    pub fn new(id: GrainId, grain: Box<dyn Grain<M, R>>) -> Self {
        Self {
            id,
            grain: Mutex::new(grain),
            mailbox: Mutex::new(VecDeque::new()),
            scheduled: AtomicBool::new(false),
            retired: AtomicBool::new(false),
        }
    }

    /// Enqueues an envelope; returns `true` if this enqueue made the
    /// activation runnable, so the caller owns its next turn: it runs the
    /// turn or queues it on the worker pool.
    pub fn enqueue(&self, env: Envelope<M, R>) -> bool {
        self.mailbox.lock().push_back(env);
        !self.scheduled.swap(true, Ordering::AcqRel)
    }

    /// Number of queued messages (test diagnostics).
    #[allow(dead_code)]
    pub fn queue_len(&self) -> usize {
        self.mailbox.lock().len()
    }

    /// Runs one turn: drains up to [`TURN_BATCH`] messages through the
    /// grain, and returns the buffered outgoing events. If the turn saved
    /// anything, it hands `store` the latest persisted snapshot and the row
    /// writes of every message in the order they were made, before it lets
    /// go of the grain: so saves of one grain land in turn order, and an
    /// activation that waits for the turn ([`Activation::wait_for_turn`])
    /// loads what it stored. The activation stays scheduled until
    /// [`Activation::end_turn`].
    ///
    /// A handler that panics leaves no effects: its call fails with
    /// `Unavailable`, the activation is retired and the result says so
    /// ([`TurnResult::panicked`]). Messages to a retired activation fail
    /// the same way, unhandled.
    pub fn run_turn(
        &self,
        clock: &om_common::time::LogicalClock,
        store: impl FnOnce(Option<Vec<u8>>, Vec<RowWrite>),
    ) -> TurnResult<M> {
        let mut grain = self.grain.lock();
        let mut outbox = Vec::new();
        let mut persisted = None;
        let mut rows = Vec::new();
        let mut processed = 0u64;
        let mut panicked = false;
        for _ in 0..TURN_BATCH {
            let env = match self.mailbox.lock().pop_front() {
                Some(e) => e,
                None => break,
            };
            processed += 1;
            let Envelope { msg, reply } = env;
            if self.retired.load(Ordering::Acquire) {
                self.fail(reply, "was retired");
                continue;
            }
            let mut ctx = GrainContext::new(self.id, clock);
            let reply_expected = reply.is_some();
            let Ok(answer) = catch_unwind(AssertUnwindSafe(|| {
                grain.handle(&mut ctx, msg, reply_expected)
            })) else {
                self.retired.store(true, Ordering::Release);
                panicked = true;
                self.fail(reply, "panicked handling a message");
                continue;
            };
            if let Some(to) = reply {
                to.send(Ok(answer));
            }
            outbox.extend(ctx.outbox);
            if ctx.persisted.is_some() {
                persisted = ctx.persisted;
            }
            rows.extend(ctx.rows);
        }
        if persisted.is_some() || !rows.is_empty() {
            store(persisted, rows);
        }
        TurnResult {
            outbox,
            processed,
            panicked,
        }
    }

    /// Whether a turn is running: it holds the grain until it has stored
    /// its state.
    pub fn mid_turn(&self) -> bool {
        self.grain.try_lock().is_none()
    }

    /// Blocks until the running turn, if any, has stored its state.
    pub fn wait_for_turn(&self) {
        drop(self.grain.lock());
    }

    /// Ends the turn [`Activation::run_turn`] began: clears the scheduled
    /// flag and returns whether the caller must schedule the activation
    /// again for messages that are still queued.
    pub fn end_turn(&self) -> bool {
        // Clear the scheduled flag, then re-check the mailbox: a message
        // enqueued between the check and the clear would otherwise strand.
        self.scheduled.store(false, Ordering::Release);
        let mb = self.mailbox.lock();
        !mb.is_empty() && !self.scheduled.swap(true, Ordering::AcqRel)
    }

    /// Retires the activation (its silo was killed) and fails the messages
    /// queued to it: callers get `Unavailable`. Returns how many it failed,
    /// for the in-flight accounting.
    pub fn retire(&self) -> u64 {
        self.retired.store(true, Ordering::Release);
        let mut mb = self.mailbox.lock();
        let failed = mb.len() as u64;
        for env in mb.drain(..) {
            self.fail(env.reply, "lost its silo");
        }
        failed
    }

    /// Fails a message's call, if it is one, with `Unavailable`.
    fn fail(&self, reply: Option<ReplyTo<R>>, why: &str) {
        if let Some(to) = reply {
            to.send(Err(OmError::Unavailable(format!(
                "grain {} {why}",
                self.id
            ))));
        }
    }
}

pub(crate) struct TurnResult<M> {
    pub outbox: Vec<Outgoing<M>>,
    /// Messages taken from the mailbox this turn, handled or failed
    /// (in-flight accounting).
    pub processed: u64,
    /// A handler panicked this turn and retired the activation.
    pub panicked: bool,
}

/// Shared handle type.
pub(crate) type ActivationRef<M, R> = Arc<Activation<M, R>>;

#[cfg(test)]
mod tests {
    use super::*;
    use om_common::time::LogicalClock;
    use std::time::Duration;

    fn counter_grain() -> Box<dyn Grain<u32, u32>> {
        let mut total = 0u32;
        Box::new(move |_ctx: &mut GrainContext<'_, u32>, msg: u32, _| {
            total += msg;
            total
        })
    }

    #[test]
    fn enqueue_schedules_exactly_once() {
        let a = Activation::new(GrainId::new("t", 1), counter_grain());
        assert!(a.enqueue(Envelope { msg: 1, reply: None }), "first enqueue schedules");
        assert!(!a.enqueue(Envelope { msg: 2, reply: None }), "second does not");
        assert_eq!(a.queue_len(), 2);
    }

    #[test]
    fn run_turn_processes_batch_and_replies() {
        let clock = LogicalClock::new();
        let a = Activation::new(GrainId::new("t", 1), counter_grain());
        let gather = Gather::new(1);
        a.enqueue(Envelope { msg: 5, reply: None });
        a.enqueue(Envelope {
            msg: 7,
            reply: Some(ReplyTo::new(gather.clone(), 0)),
        });
        let result = a.run_turn(&clock, |_, _| {});
        assert_eq!(result.processed, 2);
        assert!(!a.end_turn());
        let mut replies = gather.wait(Instant::now());
        assert_eq!(replies.remove(0).unwrap().unwrap(), 12, "5 + 7 accumulated");
        assert_eq!(a.queue_len(), 0);
    }

    #[test]
    fn long_queues_request_reschedule() {
        let clock = LogicalClock::new();
        let a = Activation::new(GrainId::new("t", 1), counter_grain());
        for i in 0..(TURN_BATCH + 3) as u32 {
            a.enqueue(Envelope { msg: i, reply: None });
        }
        a.run_turn(&clock, |_, _| {});
        assert!(a.end_turn(), "remaining messages need another turn");
        assert_eq!(a.queue_len(), 3);
        a.run_turn(&clock, |_, _| {});
        assert!(!a.end_turn());
        assert_eq!(a.queue_len(), 0);
    }

    #[test]
    fn activation_stays_scheduled_until_the_turn_ends() {
        let clock = LogicalClock::new();
        let a = Activation::new(GrainId::new("t", 1), counter_grain());
        assert!(a.enqueue(Envelope { msg: 1, reply: None }));
        a.run_turn(&clock, |_, _| {});
        // A message arriving while the turn's state is being stored must
        // not start a second turn of the same grain.
        assert!(!a.enqueue(Envelope { msg: 2, reply: None }));
        assert!(a.end_turn(), "the queued message is picked up by the next turn");
    }

    #[test]
    fn row_writes_of_every_message_are_collected_in_order() {
        let clock = LogicalClock::new();
        let rows = Box::new(move |ctx: &mut GrainContext<'_, u32>, msg: u32, _| {
            match msg {
                1 => {
                    ctx.delete_row(vec![b'r', 0]);
                    ctx.persist(vec![1]);
                }
                _ => ctx.put_row(vec![b'r', msg as u8 / 2], vec![msg as u8]),
            }
            msg
        });
        let a = Activation::new(GrainId::new("t", 1), rows);
        for msg in [0, 1, 2] {
            a.enqueue(Envelope { msg, reply: None });
        }
        let mut stored = None;
        a.run_turn(&clock, |snapshot, rows| stored = Some((snapshot, rows)));
        let (snapshot, rows) = stored.expect("the turn stores its writes");
        assert_eq!(
            rows,
            vec![
                (vec![b'r', 0], Some(vec![0])),
                (vec![b'r', 0], None),
                (vec![b'r', 1], Some(vec![2])),
            ]
        );
        assert_eq!(snapshot, Some(vec![1]), "the turn's last snapshot");
    }

    #[test]
    fn retire_fails_pending_calls_and_every_later_message() {
        let clock = LogicalClock::new();
        let a = Activation::new(GrainId::new("t", 9), counter_grain());
        let gather = Gather::new(2);
        assert!(a.enqueue(Envelope {
            msg: 1,
            reply: Some(ReplyTo::new(gather.clone(), 0)),
        }));
        assert_eq!(a.retire(), 1);
        assert_eq!(a.queue_len(), 0);
        // A message that reaches the activation after it was retired (its
        // sender looked it up before the kill) fails in its turn, which
        // ends the turn like any other.
        a.enqueue(Envelope {
            msg: 2,
            reply: Some(ReplyTo::new(gather.clone(), 1)),
        });
        let result = a.run_turn(&clock, |_, _| {});
        assert_eq!(result.processed, 1);
        assert!(!a.end_turn());
        let replies = gather.wait(Instant::now());
        for reply in replies {
            assert_eq!(reply.unwrap().unwrap_err().label(), "unavailable");
        }
        assert!(a.enqueue(Envelope { msg: 3, reply: None }), "not left scheduled");
    }

    #[test]
    fn gather_wakes_the_caller_only_when_every_slot_is_filled() {
        let gather = Gather::<u32>::new(3);
        let filler = {
            let gather = gather.clone();
            std::thread::spawn(move || {
                // Out of order, from another thread.
                for slot in [2, 0, 1] {
                    ReplyTo::new(gather.clone(), slot).send(Ok(slot as u32 * 10));
                }
            })
        };
        let replies = gather.wait(Instant::now() + Duration::from_secs(10));
        filler.join().unwrap();
        let values: Vec<u32> = replies.into_iter().map(|r| r.unwrap().unwrap()).collect();
        assert_eq!(values, vec![0, 10, 20], "slots come back in call order");
    }

    #[test]
    fn gather_times_out_with_unanswered_slots_and_drops_late_fills() {
        let gather = Gather::<u32>::new(2);
        ReplyTo::new(gather.clone(), 1).send(Ok(7));
        let late = ReplyTo::new(gather.clone(), 0);
        let replies = gather.wait(Instant::now() + Duration::from_millis(5));
        assert!(replies[0].is_none(), "slot 0 was never answered");
        assert_eq!(*replies[1].as_ref().unwrap().as_ref().unwrap(), 7);
        late.send(Ok(1)); // after the caller left: dropped, no panic
    }

    #[test]
    fn a_reply_dropped_unanswered_fails_its_slot() {
        let gather = Gather::<u32>::new(1);
        drop(ReplyTo::new(gather.clone(), 0));
        let mut replies = gather.wait(Instant::now() + Duration::from_secs(10));
        assert_eq!(
            replies.remove(0).unwrap().unwrap_err().label(),
            "unavailable"
        );
    }

    #[test]
    fn outbox_events_are_collected() {
        let clock = LogicalClock::new();
        let forwarding = Box::new(
            move |ctx: &mut GrainContext<'_, u32>, msg: u32, _| {
                ctx.send(GrainId::new("next", 1), msg + 1);
                msg
            },
        );
        let a = Activation::new(GrainId::new("t", 1), forwarding);
        a.enqueue(Envelope { msg: 10, reply: None });
        let result = a.run_turn(&clock, |_, _| {});
        assert_eq!(result.outbox.len(), 1);
        assert_eq!(result.outbox[0].msg, 11);
        assert_eq!(result.outbox[0].target, GrainId::new("next", 1));
    }
}
