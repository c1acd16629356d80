//! Distributed ACID transactions over grains, in the style of Orleans
//! Transactions.
//!
//! Three pieces cooperate:
//!
//! * [`participant::TxParticipant`] — a facet a grain embeds around its
//!   state: one lock holder, writes staged as ops (replayed on the
//!   committed state at commit), and a prepare/commit/abort protocol
//!   surface.
//! * [`coordinator::Coordinator`] — the client-side two-phase-commit
//!   coordinator. It first **admits** a
//!   transaction (conservative 2PL): the transaction declares every
//!   grain it may lock and waits until no admitted transaction holds
//!   any of them, so its locks are always free and no deadlock can
//!   form. It reaches its participants through
//!   [`coordinator::Participants`], which sends each protocol message to
//!   all of them at once: PREPARE to every participant in one fan-out,
//!   then COMMIT or ABORT to every participant in one more. Between the
//!   two, a **last agent** (work outside the grains, such as a projection
//!   commit) votes by committing, still admitted; its failure aborts.
//!   It keeps nothing per finished transaction, only the grains its
//!   admitted transactions hold and its commit, abort and admission-wait
//!   counts: the all-or-nothing criterion of paper §II is checked on
//!   outcomes (stock conserved, every acknowledged order present with its
//!   payment), not on a record of decisions.
//!
//! The deliberate cost profile of this machinery — the admission gate,
//! staged ops that run twice (on a shadow, then at commit), two commit
//! phases — is what experiment E5 ("Orleans Transactions
//! comes at a considerable overhead") measures against the eventual
//! binding. A client pays one wait per protocol phase, not one per
//! grain: the transactional checkout sends each phase's grain ops —
//! every stock reservation, say — as one [`crate::Cluster::call_all`].

pub mod coordinator;
pub mod participant;

pub use coordinator::{Admitted, Coordinator, Participants};
pub use participant::TxParticipant;
