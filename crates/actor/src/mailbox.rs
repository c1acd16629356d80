//! Activations, mailboxes and the run-queue scheduling protocol.
//!
//! Every activated grain owns a mailbox. The invariant maintained here is
//! the actor guarantee: **at most one worker runs a given activation at a
//! time**. We use the classic "scheduled" flag protocol: enqueueing a
//! message schedules the activation onto its silo's run queue only if it
//! was not already scheduled; a worker drains a bounded batch of messages
//! per turn and reschedules the activation if messages remain.

use crate::grain::{Grain, GrainContext, GrainId, Outgoing, RowWrite};
use crossbeam::channel::Sender;
use om_common::OmError;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Maximum messages drained per turn before yielding the worker (fairness
/// under hot-grain skew).
pub(crate) const TURN_BATCH: usize = 16;

/// A message in flight to a grain.
pub(crate) struct Envelope<M, R> {
    pub msg: M,
    /// Present for request/response calls; absent for one-way events.
    pub reply: Option<Sender<Result<R, OmError>>>,
}

/// An activated grain plus its mailbox.
pub(crate) struct Activation<M, R> {
    pub id: GrainId,
    grain: Mutex<Box<dyn Grain<M, R>>>,
    mailbox: Mutex<VecDeque<Envelope<M, R>>>,
    /// True while the activation sits in a run queue or is being drained.
    scheduled: AtomicBool,
}

impl<M: Send + 'static, R: Send + 'static> Activation<M, R> {
    pub fn new(id: GrainId, grain: Box<dyn Grain<M, R>>) -> Self {
        Self {
            id,
            grain: Mutex::new(grain),
            mailbox: Mutex::new(VecDeque::new()),
            scheduled: AtomicBool::new(false),
        }
    }

    /// Enqueues an envelope; returns `true` if the caller must schedule the
    /// activation onto a run queue.
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
    /// grain. Returns the buffered outgoing events, the latest persisted
    /// snapshot if the grain saved one, and the row writes of every message
    /// in the order they were made. The activation stays scheduled until
    /// [`Activation::end_turn`], so the caller can store the turn's state
    /// before any later turn of the same grain runs.
    pub fn run_turn(&self, clock: &om_common::time::LogicalClock) -> TurnResult<M> {
        let mut grain = self.grain.lock();
        let mut outbox = Vec::new();
        let mut persisted = None;
        let mut rows = Vec::new();
        let mut processed = 0u64;
        for _ in 0..TURN_BATCH {
            let env = match self.mailbox.lock().pop_front() {
                Some(e) => e,
                None => break,
            };
            let mut ctx = GrainContext::new(self.id, clock);
            let reply_expected = env.reply.is_some();
            let reply = grain.handle(&mut ctx, env.msg, reply_expected);
            processed += 1;
            if let Some(tx) = env.reply {
                // Ignore abandoned callers.
                let _ = tx.send(Ok(reply));
            }
            outbox.extend(ctx.outbox);
            if ctx.persisted.is_some() {
                persisted = ctx.persisted;
            }
            rows.extend(ctx.rows);
        }
        TurnResult {
            outbox,
            persisted,
            rows,
            processed,
        }
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

    /// Fails all queued messages (silo kill): callers get `Unavailable`.
    pub fn poison(&self) {
        let mut mb = self.mailbox.lock();
        for env in mb.drain(..) {
            if let Some(tx) = env.reply {
                let _ = tx.send(Err(OmError::Unavailable(format!(
                    "silo hosting {} was killed",
                    self.id
                ))));
            }
        }
    }
}

pub(crate) struct TurnResult<M> {
    pub outbox: Vec<Outgoing<M>>,
    pub persisted: Option<Vec<u8>>,
    /// Row writes of every message of the turn, in order.
    pub rows: Vec<RowWrite>,
    /// Messages handled this turn (in-flight accounting).
    pub processed: u64,
}

/// Shared handle type.
pub(crate) type ActivationRef<M, R> = Arc<Activation<M, R>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use om_common::time::LogicalClock;

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
        let (tx, rx) = bounded(1);
        a.enqueue(Envelope { msg: 5, reply: None });
        a.enqueue(Envelope {
            msg: 7,
            reply: Some(tx),
        });
        let result = a.run_turn(&clock);
        assert_eq!(result.processed, 2);
        assert!(!a.end_turn());
        assert_eq!(rx.recv().unwrap().unwrap(), 12, "5 + 7 accumulated");
        assert_eq!(a.queue_len(), 0);
    }

    #[test]
    fn long_queues_request_reschedule() {
        let clock = LogicalClock::new();
        let a = Activation::new(GrainId::new("t", 1), counter_grain());
        for i in 0..(TURN_BATCH + 3) as u32 {
            a.enqueue(Envelope { msg: i, reply: None });
        }
        a.run_turn(&clock);
        assert!(a.end_turn(), "remaining messages need another turn");
        assert_eq!(a.queue_len(), 3);
        a.run_turn(&clock);
        assert!(!a.end_turn());
        assert_eq!(a.queue_len(), 0);
    }

    #[test]
    fn activation_stays_scheduled_until_the_turn_ends() {
        let clock = LogicalClock::new();
        let a = Activation::new(GrainId::new("t", 1), counter_grain());
        assert!(a.enqueue(Envelope { msg: 1, reply: None }));
        a.run_turn(&clock);
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
        let result = a.run_turn(&clock);
        assert_eq!(
            result.rows,
            vec![
                (vec![b'r', 0], Some(vec![0])),
                (vec![b'r', 0], None),
                (vec![b'r', 1], Some(vec![2])),
            ]
        );
        assert_eq!(result.persisted, Some(vec![1]), "the turn's last snapshot");
    }

    #[test]
    fn poison_fails_pending_calls() {
        let a = Activation::new(GrainId::new("t", 9), counter_grain());
        let (tx, rx) = bounded(1);
        a.enqueue(Envelope {
            msg: 1,
            reply: Some(tx),
        });
        a.poison();
        let err = rx.recv().unwrap().unwrap_err();
        assert_eq!(err.label(), "unavailable");
        assert_eq!(a.queue_len(), 0);
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
        let result = a.run_turn(&clock);
        assert_eq!(result.outbox.len(), 1);
        assert_eq!(result.outbox[0].msg, 11);
        assert_eq!(result.outbox[0].target, GrainId::new("next", 1));
    }
}
