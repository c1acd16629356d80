//! A row-using function shared by the exactly-once, recovery and property
//! suites, with the sequential model it is checked against.
//!
//! `ledger` keeps one row per entry id (big-endian, so row order is id
//! order). Every message first emits the **ordered fold of the rows it
//! can see** — so its egress depends on the writes of every earlier
//! message to the same key, including those of the running epoch — and
//! then appends a row, deletes one, or changes nothing.

#![allow(dead_code)] // each suite uses its own subset

use om_dataflow::{Address, Dataflow, DataflowBuilder, Effects, RowFn, StateView};
use std::collections::BTreeMap;

/// Function type of the ledger.
pub const LEDGER: &str = "ledger";

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowMsg {
    /// Appends (or overwrites) row `id` with `value`.
    Append { id: u64, value: u64 },
    /// Tombstone: deletes row `id`.
    Delete { id: u64 },
    /// Changes nothing; only the fold is emitted.
    Fold,
    /// Egress: the rows `key` held when a message arrived, in row order.
    Folded { key: u64, rows: Vec<(u64, u64)> },
}

fn ledger(key: u64, state: StateView<'_>, msg: RowMsg, out: &mut Effects<RowMsg>) -> om_common::OmResult<()> {
    let rows = state
        .prefix(b"")
        .map(|(row, bytes)| {
            (
                u64::from_be_bytes(row.try_into().expect("8-byte row name")),
                u64::from_le_bytes(bytes.try_into().expect("8-byte value")),
            )
        })
        .collect();
    out.emit(RowMsg::Folded { key, rows });
    match msg {
        RowMsg::Append { id, value } => {
            // Point reads agree with the iteration.
            assert_eq!(
                state.get(&id.to_be_bytes()).is_some(),
                state.prefix(&id.to_be_bytes()).next().is_some()
            );
            out.put_row(id.to_be_bytes(), value.to_le_bytes().to_vec());
        }
        RowMsg::Delete { id } => out.delete_row(id.to_be_bytes()),
        RowMsg::Fold | RowMsg::Folded { .. } => {}
    }
    Ok(())
}

/// A runtime builder with the ledger registered.
pub fn ledger_builder(partitions: usize, max_batch: usize, workers: usize) -> DataflowBuilder<RowMsg> {
    Dataflow::builder()
        .partitions(partitions)
        .max_batch(max_batch)
        .workers(workers)
        .register(LEDGER, RowFn(ledger))
}

/// What a ledger run may be compared on: the committed rows per key and
/// the per-key egress sequence (cross-key egress order is free).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Observed {
    pub rows: BTreeMap<u64, Vec<(u64, u64)>>,
    pub folds: BTreeMap<u64, Vec<Vec<(u64, u64)>>>,
}

impl Observed {
    /// Records egress drained from a runtime.
    pub fn absorb(&mut self, egress: Vec<RowMsg>) {
        for record in egress {
            match record {
                RowMsg::Folded { key, rows } => self.folds.entry(key).or_default().push(rows),
                other => panic!("unexpected egress {other:?}"),
            }
        }
    }

    /// Reads the committed rows of `keys` (ordered scans of the store).
    pub fn read_rows(&mut self, df: &Dataflow<RowMsg>, keys: u64) {
        for key in 0..keys {
            let rows: Vec<(u64, u64)> = df
                .rows_of(Address::new(LEDGER, key), b"")
                .into_iter()
                .map(|(row, bytes)| {
                    (
                        u64::from_be_bytes(row.as_slice().try_into().unwrap()),
                        u64::from_le_bytes(bytes.as_slice().try_into().unwrap()),
                    )
                })
                .collect();
            if !rows.is_empty() {
                self.rows.insert(key, rows);
            }
        }
    }
}

/// The sequential model: `ops` applied one after another.
pub fn model(ops: &[(u64, RowMsg)]) -> Observed {
    let mut state: BTreeMap<u64, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut observed = Observed::default();
    for (key, msg) in ops {
        let rows = state.entry(*key).or_default();
        observed
            .folds
            .entry(*key)
            .or_default()
            .push(rows.iter().map(|(id, v)| (*id, *v)).collect());
        match msg {
            RowMsg::Append { id, value } => {
                rows.insert(*id, *value);
            }
            RowMsg::Delete { id } => {
                rows.remove(id);
            }
            RowMsg::Fold | RowMsg::Folded { .. } => {}
        }
    }
    for (key, rows) in state {
        if !rows.is_empty() {
            observed.rows.insert(key, rows.into_iter().collect());
        }
    }
    observed
}

/// A deterministic mixed workload over `keys` ledgers: mostly appends to
/// a small id space (so overwrites happen), a fifth tombstones, some
/// plain folds.
pub fn workload(n: u64, keys: u64) -> Vec<(u64, RowMsg)> {
    let mut rng = om_common::rng::SplitMix64::new(18);
    (0..n)
        .map(|i| {
            let key = rng.next_bounded(keys);
            let id = rng.next_bounded(12);
            let msg = match rng.next_bounded(10) {
                0 | 1 => RowMsg::Delete { id },
                2 => RowMsg::Fold,
                _ => RowMsg::Append { id, value: i },
            };
            (key, msg)
        })
        .collect()
}

pub fn submit_all(df: &Dataflow<RowMsg>, ops: &[(u64, RowMsg)]) {
    for (key, msg) in ops {
        df.submit(Address::new(LEDGER, *key), msg.clone()).unwrap();
    }
}
