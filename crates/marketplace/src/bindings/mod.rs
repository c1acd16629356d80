//! The four platform bindings of the Online Marketplace (paper §III).
//!
//! | module | paper implementation |
//! |---|---|
//! | [`eventual`] | Orleans Eventual |
//! | [`transactional`] | Orleans Transactions |
//! | [`dataflow`] | Apache Flink Statefun |
//! | [`customized`] | Customized Orleans (Fig. 1) |
//!
//! The workflow is written once, in [`crate::domain::flow`]: one message
//! enum and one step per service. The event-driven bindings are adapters
//! over it — Eventual runs the steps in grains ([`actor_grains`], which
//! wrap a step's message as [`actor_msg::Msg::Flow`]) and Dataflow in
//! stateful functions ([`dataflow`]). Transactional and Customized share
//! the grains but drive checkout themselves, client-coordinated under
//! 2PL + 2PC over the grains' `Tx*` surface: *how* the checkout
//! traverses the services — event cascade, function cascade or
//! distributed transaction — is precisely the axis the paper evaluates.
//!
//! The dataflow functions and the row-keyed grains share one row format,
//! [`crate::domain::rows`], and the workflow's [`Outbox`]; the impls
//! below are how each runtime's state access and messaging plug into
//! them.

use crate::domain::flow::{self, Eg, Outbox};
use crate::domain::rows::{RowReader, RowWriter};
use om_actor::{GrainContext, GrainId};
use om_dataflow::{Address, Effects, StateView};

pub use crate::domain::rows::kinds;

pub mod actor_core;
pub mod actor_grains;
pub mod actor_msg;
pub mod customized;
pub mod dataflow;
pub mod eventual;
pub mod transactional;

impl RowReader for StateView<'_> {
    fn get(&self, row: &[u8]) -> Option<&[u8]> {
        StateView::get(self, row)
    }

    fn prefix<'a>(&'a self, prefix: &'a [u8]) -> impl Iterator<Item = (&'a [u8], &'a [u8])> {
        let view: StateView<'a> = *self;
        view.prefix(prefix)
    }
}

impl<M> RowWriter for Effects<M> {
    fn put_row(&mut self, row: Vec<u8>, bytes: Vec<u8>) {
        Effects::put_row(self, row, bytes);
    }

    fn delete_row(&mut self, row: Vec<u8>) {
        Effects::delete_row(self, row);
    }
}

/// A grain's root row is its snapshot, so it goes through `persist`: the
/// last one of a mailbox batch wins.
impl<M> RowWriter for GrainContext<'_, M> {
    fn put_row(&mut self, row: Vec<u8>, bytes: Vec<u8>) {
        if row.is_empty() {
            self.persist(bytes);
        } else {
            GrainContext::put_row(self, row, bytes);
        }
    }

    fn delete_row(&mut self, row: Vec<u8>) {
        GrainContext::delete_row(self, row);
    }
}

/// A grain sends a step's messages on as grain events. Completions have
/// no reader here: a grain's caller reads its reply.
impl Outbox for GrainContext<'_, actor_msg::Msg> {
    fn send(&mut self, kind: &'static str, key: u64, msg: flow::Msg) {
        GrainContext::send(self, GrainId::new(kind, key), actor_msg::Msg::Flow(msg));
    }

    fn emit(&mut self, _completion: Eg) {}
}

/// A dataflow function sends a step's messages on to other functions and
/// its completions to the egress, both released at checkpoint commit.
impl Outbox for Effects<flow::Msg> {
    fn send(&mut self, kind: &'static str, key: u64, msg: flow::Msg) {
        Effects::send(self, Address::new(kind, key), msg);
    }

    fn emit(&mut self, completion: Eg) {
        Effects::emit(self, flow::Msg::Egress(completion));
    }
}
