//! The platform factory: one place where `(platform, backend)` pairs
//! become running platforms.
//!
//! The paper measures four fixed deployments; the factory opens the full
//! **platform × backend matrix** instead — every binding can be
//! constructed over every [`BackendKind`] without code changes, which is
//! what lets `RunConfig::backend` select storage end-to-end (driver,
//! gateway, benches all build through here).
//!
//! The matrix covers the dataflow binding too: its epoch checkpoints
//! persist through the spec's backend, and a spec can carry an existing
//! backend *instance* ([`PlatformSpec::backend_instance`]) so a rebuilt
//! platform restarts from the state a previous instance persisted.
//!
//! A [`PlatformSpec`] is all the three actor bindings are built from:
//! their constructors take it as is, and
//! [`PlatformSpec::storage_backend`] is the one backend decision. Only
//! the dataflow binding has a config of its own
//! ([`DataflowPlatformConfig`]), which [`build_platform`] fills from the
//! spec.

use crate::api::{MarketplacePlatform, PlatformKind};
use crate::bindings::dataflow::DataflowPlatformConfig;
use crate::{CustomizedPlatform, DataflowPlatform, EventualPlatform, TransactionalPlatform};
use om_actor::FaultConfig;
use om_common::config::{BackendKind, DurableOptions};
use om_dataflow::BackendCheckpointStore;
use om_storage::StateBackend;
use std::sync::Arc;

/// Everything needed to build one cell of the platform×backend matrix.
#[derive(Clone)]
pub struct PlatformSpec {
    pub kind: PlatformKind,
    pub backend: BackendKind,
    /// Internal execution slots (the actor bindings split them into
    /// worker threads across their two silos, at least one each; the
    /// dataflow binding maps them to partitions).
    pub parallelism: usize,
    /// Payment decline probability.
    pub decline_rate: f64,
    /// Event-delivery fault injection (meaningful for the plain actor
    /// bindings; the dataflow runtime is exactly-once by construction).
    pub faults: FaultConfig,
    /// Dataflow checkpoint interval (ingress records per partition per
    /// epoch).
    pub checkpoint_interval: usize,
    /// Epoch groups of the dataflow binding (0 = core count, n = every
    /// epoch runs in n groups: one on the driving thread, n − 1 on
    /// long-lived `om-df-worker-N` threads). Ignored by the actor bindings.
    pub df_workers: usize,
    /// An existing backend instance to build over instead of a fresh
    /// one — the restart path: a platform built over the backend a
    /// previous platform persisted into resumes from that state.
    pub backend_instance: Option<Arc<dyn StateBackend>>,
    /// Directory durable state lives in: the file-durable backend opens
    /// `<data_dir>/state` there, and the dataflow binding's ingress log
    /// persists to `<data_dir>/ingress` (segment files).
    /// This is the **cold-restart seam** — a platform rebuilt over the
    /// same `data_dir` recovers grain snapshots, projections,
    /// checkpoints and in-flight ingress records from disk alone, with
    /// no shared in-memory handles. Memory-only backends ignore the
    /// state half; the ingress half applies whenever it is set.
    pub data_dir: Option<std::path::PathBuf>,
    /// Write-path tuning of the durable pieces: whether the file backend
    /// fsyncs its commits. Memory-only cells ignore it.
    pub durable: DurableOptions,
}

impl std::fmt::Debug for PlatformSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlatformSpec")
            .field("kind", &self.kind)
            .field("backend", &self.backend)
            .field("parallelism", &self.parallelism)
            .field("decline_rate", &self.decline_rate)
            .field("faults", &self.faults)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("df_workers", &self.df_workers)
            .field("shared_backend_instance", &self.backend_instance.is_some())
            .field("data_dir", &self.data_dir)
            .field("durable", &self.durable)
            .finish()
    }
}

impl PlatformSpec {
    /// A spec with the benchmark's defaults for everything but the matrix
    /// coordinates.
    pub fn new(kind: PlatformKind, backend: BackendKind) -> Self {
        Self {
            kind,
            backend,
            parallelism: 4,
            decline_rate: 0.05,
            faults: FaultConfig::reliable(),
            checkpoint_interval: 64,
            df_workers: 0,
            backend_instance: None,
            data_dir: None,
            durable: DurableOptions::default(),
        }
    }

    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    pub fn decline_rate(mut self, rate: f64) -> Self {
        self.decline_rate = rate;
        self
    }

    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the dataflow checkpoint interval (epoch batch size).
    pub fn checkpoint_interval(mut self, records: usize) -> Self {
        self.checkpoint_interval = records.max(1);
        self
    }

    /// Sets the dataflow binding's epoch group count (0 = core count,
    /// 1 = every epoch on the driving thread alone).
    pub fn df_workers(mut self, n: usize) -> Self {
        self.df_workers = n;
        self
    }

    /// Builds over an existing backend instance (its kind must match
    /// `backend`). This is how a platform "restarts": persist into a
    /// backend, drop the platform, build a new spec over the same
    /// instance.
    pub fn backend_instance(mut self, backend: Arc<dyn StateBackend>) -> Self {
        self.backend_instance = Some(backend);
        self
    }

    /// Roots durable state at `dir` (see [`PlatformSpec::data_dir`]) —
    /// with [`BackendKind::FileDurable`], rebuilding a platform from the
    /// same spec recovers everything from disk, even in a fresh process.
    pub fn data_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Selects the durable write-path tuning (whether commits are
    /// fsynced) for the file-backed pieces of this cell.
    pub fn durable_options(mut self, durable: DurableOptions) -> Self {
        self.durable = durable;
        self
    }

    /// The backend instance this spec's platform persists through: the
    /// injected instance (its kind must match `backend`), else a fresh
    /// backend of the spec's kind — a durable one opens
    /// `<data_dir>/state`. The actor bindings persist grain snapshots
    /// (and, on the customized binding, the dashboard projection and
    /// replica cache) through it, the dataflow binding its checkpoints.
    pub fn storage_backend(&self) -> Arc<dyn StateBackend> {
        match &self.backend_instance {
            Some(backend) => {
                // Unconditional: a mismatch would persist through one
                // discipline while labeling every report with the other.
                assert_eq!(
                    backend.kind(),
                    self.backend,
                    "injected backend instance does not match the configured backend kind"
                );
                backend.clone()
            }
            None => om_storage::make_backend_with(
                self.backend,
                om_actor::storage::GRAIN_STORAGE_SHARDS,
                self.data_dir.as_ref().map(|d| d.join("state")).as_deref(),
                &self.durable,
            )
            .expect("open the durable state backend"),
        }
    }

    /// A short `platform+backend` label for reports and bench ids.
    pub fn label(&self) -> String {
        format!("{}+{}", self.kind.label(), self.backend.label())
    }
}

/// Builds the platform for one matrix cell.
///
/// Every binding persists through the spec's backend: the actor bindings
/// route grain snapshots (and, on the customized stack, the dashboard
/// projection and replica cache) through it, and the dataflow binding
/// commits its epoch checkpoints through it.
pub fn build_platform(spec: &PlatformSpec) -> Box<dyn MarketplacePlatform> {
    match spec.kind {
        PlatformKind::Eventual => Box::new(EventualPlatform::new(spec)),
        PlatformKind::Transactional => Box::new(TransactionalPlatform::new(spec)),
        PlatformKind::Dataflow => Box::new(DataflowPlatform::new(DataflowPlatformConfig {
            partitions: spec.parallelism.max(1),
            max_batch: spec.checkpoint_interval,
            workers: spec.df_workers,
            decline_rate: spec.decline_rate,
            checkpoint_store: Some(Arc::new(BackendCheckpointStore::new(
                spec.storage_backend(),
            ))),
            // A spec rooted at a data_dir persists the ingress log too,
            // so the rebuilt platform replays in-flight records from
            // disk instead of needing a shared topic handle.
            ingress: match &spec.data_dir {
                Some(dir) => Some(
                    crate::bindings::dataflow::persistent_ingress_with(
                        dir.join("ingress"),
                        spec.parallelism.max(1),
                        om_log::PersistentTopicOptions::default(),
                    )
                    .expect("open the persistent ingress topic"),
                ),
                None => None,
            },
        })),
        PlatformKind::Customized => Box::new(CustomizedPlatform::new(spec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_matrix_cell_builds_and_reports_its_coordinates() {
        for kind in [
            PlatformKind::Eventual,
            PlatformKind::Transactional,
            PlatformKind::Dataflow,
            PlatformKind::Customized,
        ] {
            for backend in BackendKind::ALL {
                let spec = PlatformSpec::new(kind, backend).parallelism(2);
                let p = build_platform(&spec);
                assert_eq!(p.kind(), kind, "{}", spec.label());
                assert_eq!(
                    p.backend(),
                    Some(backend),
                    "{}: every binding persists through the spec's backend",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn dataflow_without_a_store_checkpoints_into_snapshot_isolation() {
        use crate::api::{CheckoutItem, CheckoutOutcome, CheckoutRequest};
        use om_common::entity::{Customer, PaymentMethod, Product, Seller};
        use om_common::ids::{CustomerId, ProductId, SellerId};
        use om_common::Money;

        let p = DataflowPlatform::new(DataflowPlatformConfig {
            decline_rate: 0.0,
            ..DataflowPlatformConfig::default()
        });
        assert_eq!(p.backend(), Some(BackendKind::SnapshotIsolation));
        let (seller, customer, product) = (SellerId(1), CustomerId(1), ProductId(1));
        p.ingest_seller(Seller::new(seller, "s".into(), "c".into()))
            .unwrap();
        p.ingest_customer(Customer::new(customer, "c".into(), "a".into()))
            .unwrap();
        p.ingest_product(
            Product {
                id: product,
                seller,
                name: "p".into(),
                category: "test".into(),
                description: String::new(),
                price: Money::from_cents(100),
                freight_value: Money::from_cents(10),
                version: 0,
                active: true,
            },
            10,
        )
        .unwrap();
        p.quiesce();
        let item = CheckoutItem {
            seller,
            product,
            quantity: 2,
        };
        p.add_to_cart(customer, item).unwrap();
        let outcome = p
            .checkout(CheckoutRequest {
                customer,
                items: vec![],
                method: PaymentMethod::CreditCard,
            })
            .unwrap();
        assert!(
            matches!(outcome, CheckoutOutcome::Placed { .. }),
            "{outcome:?}"
        );
        p.quiesce();

        let before = p.seller_dashboard(seller).unwrap();
        assert!(
            !before.entries.is_empty(),
            "the checkout reached the dashboard"
        );
        p.crash_and_recover().expect("the drill fires");
        assert_eq!(p.seller_dashboard(seller).unwrap(), before);
    }

    #[test]
    fn labels_name_both_axes() {
        let spec = PlatformSpec::new(PlatformKind::Transactional, BackendKind::SnapshotIsolation);
        assert_eq!(spec.label(), "orleans_transactions+snapshot_isolation");
    }

    #[test]
    fn platform_rebuilt_over_the_same_backend_restarts_from_its_state() {
        let backend = om_storage::make_backend(BackendKind::SnapshotIsolation, 8);
        let spec = PlatformSpec::new(PlatformKind::Dataflow, BackendKind::SnapshotIsolation)
            .parallelism(2)
            .backend_instance(backend.clone());
        let first = build_platform(&spec);
        first
            .ingest_seller(om_common::entity::Seller::new(
                om_common::ids::SellerId(1),
                "s".into(),
                "c".into(),
            ))
            .unwrap();
        first.quiesce();
        drop(first);
        let second = build_platform(&spec);
        // The seller's dashboard state survived the rebuild (served from
        // the checkpointed function state in the shared backend).
        let dash = second
            .seller_dashboard(om_common::ids::SellerId(1))
            .expect("seller state survives the rebuild");
        assert_eq!(dash.seller, om_common::ids::SellerId(1));
    }
}
