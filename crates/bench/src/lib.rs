//! Shared harness code for the Criterion benches (`a2_checkpoint`,
//! `b2_durability`). The benchmark of record is `marketbench`
//! (`src/bin/marketbench`, declared in `BENCHMARK.json`).

use om_common::config::BackendKind;
use om_dataflow::BackendCheckpointStore;
use std::sync::Arc;

/// The pluggable storage backends, the matrix's second axis.
pub const BACKENDS: [BackendKind; 3] = BackendKind::ALL;

/// A dataflow checkpoint store over a fresh backend of `kind`, as the
/// A2/B2 store sweeps build them.
pub fn make_checkpoint_store(kind: BackendKind) -> Arc<BackendCheckpointStore> {
    Arc::new(BackendCheckpointStore::new(om_storage::make_backend(
        kind, 16,
    )))
}
