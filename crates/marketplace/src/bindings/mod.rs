//! The four platform bindings of the Online Marketplace (paper §III).
//!
//! | module | paper implementation |
//! |---|---|
//! | [`eventual`] | Orleans Eventual |
//! | [`transactional`] | Orleans Transactions |
//! | [`dataflow`] | Apache Flink Statefun |
//! | [`customized`] | Customized Orleans (Fig. 1) |
//!
//! The two actor-based bindings share one grain message vocabulary
//! ([`actor_msg`]) and grain kinds; they differ in *how* the checkout
//! workflow traverses the grains (asynchronous event cascade vs
//! client-coordinated 2PC) — which is precisely the axis the paper
//! evaluates.
//!
//! The dataflow functions and the row-keyed grains share one row format,
//! [`crate::domain::rows`]; the impls below are how each runtime's state
//! access plugs into it.

use crate::domain::rows::{RowReader, RowWriter};
use om_actor::GrainContext;
use om_dataflow::{Effects, StateView};

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
