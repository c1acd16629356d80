//! Grain identity, behaviour trait and per-turn context.

use om_common::time::{EventTime, LogicalClock};
use std::fmt;

/// Identifies a virtual actor: a grain *kind* (one per service/entity
/// class) plus a 64-bit key within the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GrainId {
    /// The grain kind: the name its factory is registered under.
    pub kind: &'static str,
    /// The grain's key within its kind.
    pub key: u64,
}

impl GrainId {
    /// The grain `key` of `kind`.
    pub const fn new(kind: &'static str, key: u64) -> Self {
        Self { kind, key }
    }
}

impl fmt::Display for GrainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.kind, self.key)
    }
}

/// Outgoing one-way message buffered during a turn.
pub(crate) struct Outgoing<M> {
    pub target: GrainId,
    pub msg: M,
}

/// One stored row of a row-keyed grain: `(row name, bytes)`.
pub type Row = (Vec<u8>, Vec<u8>);

/// One row write of a turn: `Some` bytes put the row, `None` deletes it.
pub type RowWrite = (Vec<u8>, Option<Vec<u8>>);

/// Per-turn context handed to [`Grain::handle`].
///
/// Grains use it to raise asynchronous events to other grains (delivered
/// after the turn completes, so a grain never re-enters itself), persist
/// their state, and read the logical clock.
pub struct GrainContext<'a, M> {
    pub(crate) id: GrainId,
    pub(crate) clock: &'a LogicalClock,
    pub(crate) outbox: Vec<Outgoing<M>>,
    pub(crate) persisted: Option<Vec<u8>>,
    pub(crate) rows: Vec<RowWrite>,
}

impl<'a, M> GrainContext<'a, M> {
    pub(crate) fn new(id: GrainId, clock: &'a LogicalClock) -> Self {
        Self {
            id,
            clock,
            outbox: Vec::new(),
            persisted: None,
            rows: Vec::new(),
        }
    }

    /// This grain's identity.
    pub fn id(&self) -> GrainId {
        self.id
    }

    /// Sends a one-way event to another grain. Events are dispatched when
    /// the current turn finishes; delivery is asynchronous and (without a
    /// fault config) reliable but unordered across grains.
    pub fn send(&mut self, target: GrainId, msg: M) {
        self.outbox.push(Outgoing { target, msg });
    }

    /// Advances and returns the logical clock (Lamport tick).
    pub fn tick(&self) -> EventTime {
        self.clock.tick()
    }

    /// Merges an observed remote timestamp into the clock.
    pub fn observe(&self, remote: EventTime) -> EventTime {
        self.clock.observe(remote)
    }

    /// Persists an opaque state snapshot to grain storage. The snapshot
    /// survives silo failures and is handed back on reactivation.
    pub fn persist(&mut self, snapshot: Vec<u8>) {
        self.persisted = Some(snapshot);
    }

    /// Writes one row of this grain's state beside its snapshot. Rows are
    /// stored under the grain's storage key, commit in one batch with the
    /// turn's snapshot, and are handed back in row order on reactivation
    /// to kinds registered with [`crate::ClusterBuilder::register_rows`].
    /// Row names are non-empty (the empty name is the snapshot itself).
    pub fn put_row(&mut self, row: impl Into<Vec<u8>>, bytes: Vec<u8>) {
        self.rows.push((row.into(), Some(bytes)));
    }

    /// Deletes one row of this grain's state.
    pub fn delete_row(&mut self, row: impl Into<Vec<u8>>) {
        self.rows.push((row.into(), None));
    }
}

/// A grain behaviour: a single-threaded message handler over private state.
///
/// `M` is the message type, `R` the reply type (uniform across the
/// cluster; applications multiplex with enums).
pub trait Grain<M, R>: Send {
    /// Handles one message. `reply_expected` distinguishes calls from
    /// one-way events (a grain may skip building expensive replies for
    /// events).
    fn handle(&mut self, ctx: &mut GrainContext<'_, M>, msg: M, reply_expected: bool) -> R;
}

/// Blanket impl so closures can serve as simple grains in tests.
impl<M, R, F> Grain<M, R> for F
where
    F: FnMut(&mut GrainContext<'_, M>, M, bool) -> R + Send,
{
    fn handle(&mut self, ctx: &mut GrainContext<'_, M>, msg: M, reply_expected: bool) -> R {
        self(ctx, msg, reply_expected)
    }
}

/// Factory producing a grain activation. Receives the grain id, the
/// persisted snapshot from a previous activation, if any, and the grain's
/// stored rows in row order (always empty for kinds registered without
/// rows).
pub type GrainFactory<M, R> =
    Box<dyn Fn(GrainId, Option<Vec<u8>>, Vec<Row>) -> Box<dyn Grain<M, R>> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grain_id_display_and_ordering() {
        let a = GrainId::new("cart", 1);
        let b = GrainId::new("cart", 2);
        let c = GrainId::new("stock", 1);
        assert_eq!(a.to_string(), "cart/1");
        assert!(a < b);
        assert_ne!(a, c);
    }

    #[test]
    fn context_buffers_outgoing_events() {
        let clock = LogicalClock::new();
        let mut ctx: GrainContext<'_, u32> = GrainContext::new(GrainId::new("t", 1), &clock);
        ctx.send(GrainId::new("t", 2), 42);
        ctx.send(GrainId::new("t", 3), 43);
        assert_eq!(ctx.outbox.len(), 2);
        assert_eq!(ctx.outbox[1].msg, 43);
    }

    #[test]
    fn context_clock_and_persist() {
        let clock = LogicalClock::new();
        let mut ctx: GrainContext<'_, ()> = GrainContext::new(GrainId::new("t", 1), &clock);
        let t1 = ctx.tick();
        let t2 = ctx.observe(EventTime(100));
        assert!(t2 > t1);
        assert!(ctx.persisted.is_none());
        ctx.persist(vec![1, 2, 3]);
        assert_eq!(ctx.persisted.as_deref(), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn context_buffers_row_writes_in_call_order() {
        let clock = LogicalClock::new();
        let mut ctx: GrainContext<'_, ()> = GrainContext::new(GrainId::new("t", 1), &clock);
        ctx.put_row(b"a".to_vec(), vec![1]);
        ctx.delete_row(b"b".to_vec());
        ctx.put_row(b"a".to_vec(), vec![2]);
        assert_eq!(
            ctx.rows,
            vec![
                (b"a".to_vec(), Some(vec![1])),
                (b"b".to_vec(), None),
                (b"a".to_vec(), Some(vec![2])),
            ]
        );
        assert!(ctx.persisted.is_none(), "rows do not imply a snapshot");
    }
}
