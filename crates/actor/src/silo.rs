//! Silos: grain hosts. A silo holds its grains' activations and an alive
//! flag, and `Silo::run_turn` is the one turn runner, for the calling
//! threads that run a call's turn themselves and for the cluster's worker
//! pool, which runs every other turn as a job: events, and activations
//! with messages left after a turn. A silo owns no thread and no queue.
//!
//! Killing a silo clears its alive flag, drops its activations and fails
//! the messages queued to them; a turn of one of them that is still
//! queued on the pool fails its messages the same way when it runs.

use crate::grain::{GrainId, RowWrite};
use crate::mailbox::ActivationRef;
use om_common::time::LogicalClock;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Dispatch interface a turn uses to route grain-to-grain events
/// back through the cluster (which owns placement and fault injection).
pub(crate) trait Router<M>: Send + Sync {
    fn route_event(&self, target: GrainId, msg: M);
    fn save_state(&self, id: GrainId, snapshot: Option<Vec<u8>>, rows: Vec<RowWrite>);
    /// Reports `n` messages handled (quiescence accounting).
    fn on_processed(&self, n: u64);
    /// Reports a turn whose handler panicked.
    fn on_panic(&self);
}

/// A silo hosting grain activations.
pub(crate) struct Silo<M, R> {
    activations: RwLock<HashMap<GrainId, ActivationRef<M, R>>>,
    alive: AtomicBool,
}

impl<M: Send + 'static, R: Send + 'static> Silo<M, R> {
    pub fn new() -> Self {
        Self {
            activations: RwLock::new(HashMap::new()),
            alive: AtomicBool::new(true),
        }
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Runs one turn of `activation`, which the calling thread owns (its
    /// enqueue or a pool job made it runnable); returns whether it must be
    /// scheduled again for messages still queued. The one turn runner, for
    /// pool threads and calling threads alike.
    pub(crate) fn run_turn(
        &self,
        activation: &ActivationRef<M, R>,
        clock: &LogicalClock,
        router: &dyn Router<M>,
    ) -> bool {
        if !self.is_alive() {
            router.on_processed(activation.poison());
            return false;
        }
        let result = activation.run_turn(clock);
        // Stored before the turn ends, so saves of one grain land in turn
        // order.
        if result.persisted.is_some() || !result.rows.is_empty() {
            router.save_state(activation.id, result.persisted, result.rows);
        }
        if result.panicked {
            router.on_panic();
            // The next message to the grain reactivates it from storage.
            let mut map = self.activations.write();
            if map
                .get(&activation.id)
                .is_some_and(|a| Arc::ptr_eq(a, activation))
            {
                map.remove(&activation.id);
            }
        }
        let reschedule = activation.end_turn();
        for out in result.outbox {
            router.route_event(out.target, out.msg);
        }
        router.on_processed(result.processed);
        reschedule
    }

    /// Looks up or installs the activation for `id` using `make`.
    ///
    /// Every grain call runs this lookup. Its callers are instantiated in
    /// the crate that names the cluster's message types, and whether the
    /// lookup was inlined there depended on how that crate happened to be
    /// split into codegen units; left out of line, it cost marketbench's
    /// `checkout_tx_mem` cell 16 % of its `peak_rps` (alternating pairs,
    /// one core of a 2-vCPU host).
    #[inline]
    pub fn activation_or_insert<F>(&self, id: GrainId, make: F) -> ActivationRef<M, R>
    where
        F: FnOnce() -> ActivationRef<M, R>,
    {
        if let Some(a) = self.activations.read().get(&id) {
            return a.clone();
        }
        let mut map = self.activations.write();
        map.entry(id).or_insert_with(make).clone()
    }

    /// Kills the silo: drops its activations and fails the messages
    /// queued to them. Returns how many messages it failed.
    pub fn kill(&self) -> u64 {
        self.alive.store(false, Ordering::Release);
        let mut map = self.activations.write();
        map.drain().map(|(_, a)| a.poison()).sum()
    }

    /// Restarts a killed silo (activations are rebuilt lazily on demand).
    pub fn restart(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Number of hosted activations.
    pub fn activation_count(&self) -> usize {
        self.activations.read().len()
    }
}
