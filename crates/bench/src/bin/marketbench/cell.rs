//! The four workloads (a platform×backend cell plus a request mix and
//! its pinned rates) and how a cell is built, plain or decorated.

use crate::stream::{self, Mix, Pace};
use crate::trace::{TimedBackend, TimedLog, TimedPlatform, TimedVfs};
use om_common::config::{BackendKind, DurableOptions};
use om_common::entity::{Customer, Product, Seller};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::Money;
use om_http::{EventConfig, HttpServer, MarketplaceGateway};
use om_marketplace::bindings::dataflow::{
    persistent_ingress_with_vfs, DataflowPlatform, DataflowPlatformConfig,
};
use om_marketplace::{build_platform, MarketplacePlatform, PlatformKind, PlatformSpec};
use om_storage::file::{FileBackend, FileBackendOptions};
use om_storage::vfs::RealVfs;
use om_storage::StateBackend;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Client threads, server workers and platform parallelism: one per core
/// of the 2-core reference host.
pub const CLIENTS: usize = 2;

/// Fresh cells an untraced run builds and measures one after another.
/// Every cell starts from the same state, so state growth is bounded by
/// one cell's work, and each cell is one more chance to measure while
/// the host is quiet (see [`crate::stats::best`]).
pub const CELLS: usize = 12;

/// `--seconds` the pinned counts and rates below are sized for: a peak
/// phase of about a second in each cell and four ladder steps of
/// 1.25 s. Another `--seconds` scales both.
pub const DECLARED_SECONDS: f64 = 20.0;

#[derive(Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: PlatformKind,
    pub backend: BackendKind,
    /// Durable state in a fresh directory on disk, fsync on.
    pub disk: bool,
    pub mix: Mix,
    /// Orders placed during set-up (cart_add + checkout only).
    pub preplaced_orders: usize,
    /// Closed-loop warm-up requests of the workload's mix.
    pub warmup: usize,
    /// Requests of one cell's closed-loop peak phase at the declared
    /// `--seconds`: a fixed count, so that every cell and every commit
    /// grows the same state.
    pub peak_count: usize,
    /// Open-loop ladder, ≈0.5 / 0.65 / 0.8 / 2.5 × the rate the cell was
    /// measured to sustain: three steps it holds with room to spare and
    /// one it cannot hold.
    pub ladder_rps: [f64; 4],
    /// Latency limit a ladder step must meet.
    pub p99_limit_ms: f64,
    /// Open-loop rate of the traced run's loaded pass, ≈0.4 × the
    /// sustained rate.
    pub base_rps: f64,
}

/// Pinned after one calibration on the 2-core reference host (README
/// "Pinned rates"): absolute numbers, so parent and change are offered
/// identical load.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "checkout_tx_mem",
        kind: PlatformKind::Transactional,
        backend: BackendKind::SnapshotIsolation,
        disk: false,
        mix: Mix([55, 20, 15, 10, 0]),
        preplaced_orders: 0,
        warmup: 1000,
        peak_count: 4000,
        ladder_rps: [1600.0, 2100.0, 2550.0, 8000.0],
        p99_limit_ms: 100.0,
        base_rps: 1300.0,
    },
    Workload {
        name: "checkout_df_disk",
        kind: PlatformKind::Dataflow,
        backend: BackendKind::FileDurable,
        disk: true,
        mix: Mix([55, 20, 15, 10, 5]),
        preplaced_orders: 0,
        warmup: 1000,
        peak_count: 3000,
        ladder_rps: [1050.0, 1350.0, 1700.0, 5250.0],
        p99_limit_ms: 200.0,
        base_rps: 800.0,
    },
    Workload {
        name: "dashboard_cu_mem",
        kind: PlatformKind::Customized,
        backend: BackendKind::SnapshotIsolation,
        disk: false,
        mix: Mix([10, 15, 15, 60, 0]),
        preplaced_orders: 2000,
        warmup: 500,
        peak_count: 2000,
        ladder_rps: [550.0, 700.0, 850.0, 3500.0],
        p99_limit_ms: 100.0,
        base_rps: 600.0,
    },
    Workload {
        name: "cart_ev_http",
        kind: PlatformKind::Eventual,
        backend: BackendKind::Eventual,
        disk: false,
        mix: Mix([70, 10, 15, 5, 0]),
        preplaced_orders: 0,
        warmup: 2000,
        peak_count: 8000,
        ladder_rps: [2500.0, 3250.0, 4000.0, 12500.0],
        p99_limit_ms: 100.0,
        base_rps: 1500.0,
    },
];

/// Index of each phase in a cell's generated stream.
pub mod phase {
    pub const PREPLACE: usize = 0;
    pub const WARMUP: usize = 1;
    /// An untraced cell's timed phases.
    pub const PEAK: usize = 2;
    pub const STEP: usize = 3;
    /// The traced cell's phases after the warm-up.
    pub const ATTRIB: usize = 2;
    pub const LOADED: usize = 3;
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same cell and mix at tiny counts and rates: enough to exercise
    /// every code path in about a second, not enough to measure anything.
    pub fn smoke(&self) -> Workload {
        Workload {
            preplaced_orders: self.preplaced_orders.min(60),
            warmup: 60,
            peak_count: 2000,
            ladder_rps: [200.0, 300.0, 400.0, 500.0],
            base_rps: 300.0,
            ..self.clone()
        }
    }

    /// Pre-placing orders, then warming up: closed loop, common to both
    /// kinds of run.
    fn setup_phases(&self) -> Vec<(Mix, Pace)> {
        // Pre-placing is cart_add + checkout only, ≈2.5 lines a cart.
        let preplace = Pace::Closed {
            count: self.preplaced_orders * 7 / 2,
        };
        vec![
            (Mix([5, 2, 0, 0, 0]), preplace),
            (self.mix, Pace::Closed { count: self.warmup }),
        ]
    }

    fn open(&self, rps: f64, secs: f64) -> (Mix, Pace) {
        (self.mix, Pace::Open { rps, secs })
    }

    /// One untraced cell's phases, in [`phase`] order: set-up, the
    /// closed-loop peak, and the ladder step `step_rps` if this cell runs
    /// one. The peak comes first so that every cell has the same history
    /// when it runs.
    pub fn cell_phases(&self, seconds: f64, step_rps: Option<f64>) -> Vec<(Mix, Pace)> {
        let scale = seconds / DECLARED_SECONDS;
        let mut phases = self.setup_phases();
        phases.push((
            self.mix,
            Pace::Closed {
                count: (self.peak_count as f64 * scale) as usize,
            },
        ));
        phases.extend(step_rps.map(|rps| self.open(rps, 1.25 * scale)));
        phases
    }

    /// The traced run's phases: `attrib` (closed, one in flight) and
    /// `loaded` (the base rate, half of it traced), sized to fit the time
    /// an untraced run takes.
    pub fn trace_phases(&self, seconds: f64) -> Vec<(Mix, Pace)> {
        let mut phases = self.setup_phases();
        phases.push((
            self.mix,
            Pace::Closed {
                count: (seconds * 50.0) as usize,
            },
        ));
        phases.push(self.open(self.base_rps, seconds * 0.75));
        phases
    }

    fn durable(&self) -> DurableOptions {
        // fsync on, everything else (group-commit policy, snapshot mode,
        // compaction thresholds) at the engine's defaults.
        DurableOptions {
            sync_commits: true,
            ..DurableOptions::default()
        }
    }

    /// States the flush policy in the run's output.
    pub fn flush_policy(&self) -> String {
        if self.disk {
            let d = self.durable();
            format!(
                "sync_commits={} group_commit={:?} snapshot_mode={:?} (engine defaults but for sync_commits)",
                d.sync_commits, d.group_commit, d.snapshot_mode
            )
        } else {
            "memory only".into()
        }
    }

    fn spec(&self, data_dir: Option<&Path>) -> PlatformSpec {
        let spec = PlatformSpec::new(self.kind, self.backend)
            .parallelism(CLIENTS)
            // Payment declines are drawn inside the platform, outside the
            // seeded stream; off, so no generated checkout is rejected.
            .decline_rate(0.0);
        match data_dir {
            Some(dir) => spec.data_dir(dir).durable_options(self.durable()),
            None => spec,
        }
    }

    /// The undecorated platform, exactly as the factory builds it; over
    /// an existing `data_dir` this is the cold rebuild.
    pub fn build_plain(&self, data_dir: Option<&Path>) -> Arc<dyn MarketplacePlatform> {
        Arc::from(build_platform(&self.spec(data_dir)))
    }

    /// The same cell with a decorator at each public seam it has: the
    /// platform trait, the state backend, and on the disk workload the
    /// vfs under both durable stores and the ingress event log.
    pub fn build_traced(&self, data_dir: Option<&Path>) -> Arc<dyn MarketplacePlatform> {
        let vfs = Arc::new(TimedVfs::new(Arc::new(RealVfs)));
        let backend: Arc<dyn StateBackend> = match data_dir {
            Some(dir) => Arc::new(
                FileBackend::open_with_vfs(
                    dir.join("state"),
                    FileBackendOptions::from_durable(STATE_SHARDS, &self.durable()),
                    vfs.clone(),
                )
                .expect("open the durable state backend"),
            ),
            None => self.spec(None).storage_backend(),
        };
        let backend: Arc<dyn StateBackend> = Arc::new(TimedBackend::new(backend));
        let spec = self.spec(None).backend_instance(backend.clone());
        let inner: Arc<dyn MarketplacePlatform> = match (self.kind, data_dir) {
            // The factory opens the ingress log itself and offers no seam
            // for it, so the traced dataflow cell repeats the factory's
            // dataflow arm with the decorated log in place.
            (PlatformKind::Dataflow, Some(dir)) => {
                let ingress = persistent_ingress_with_vfs(
                    dir.join("ingress"),
                    CLIENTS,
                    om_log::PersistentTopicOptions {
                        group_commit: self.durable().group_commit,
                        ..Default::default()
                    },
                    vfs,
                )
                .expect("open the persistent ingress topic");
                Arc::new(DataflowPlatform::new(DataflowPlatformConfig {
                    partitions: spec.parallelism,
                    max_batch: spec.checkpoint_interval,
                    workers: spec.df_workers,
                    decline_rate: spec.decline_rate,
                    checkpoint_store: Some(Arc::new(om_dataflow::BackendCheckpointStore::new(
                        backend,
                    ))),
                    ingress: Some(Arc::new(TimedLog::new(ingress))),
                }))
            }
            _ => Arc::from(build_platform(&spec)),
        };
        Arc::new(TimedPlatform::new(inner))
    }
}

/// Lock-domain count the factory gives a durable backend it opens itself
/// (`om_actor::storage::GRAIN_STORAGE_SHARDS`); repeated here because the
/// traced disk cell has to open that backend over the decorated vfs.
const STATE_SHARDS: usize = 64;

/// Ingests the fixed catalogue: 10 sellers × 10 products, 200 customers.
pub fn ingest(platform: &dyn MarketplacePlatform) {
    for s in 0..stream::SELLERS {
        platform
            .ingest_seller(Seller::new(
                SellerId(s),
                format!("seller-{s}"),
                format!("city-{s}"),
            ))
            .expect("ingest seller");
    }
    for c in 0..stream::CUSTOMERS {
        platform
            .ingest_customer(Customer::new(
                CustomerId(c),
                format!("customer-{c}"),
                format!("street {c}"),
            ))
            .expect("ingest customer");
    }
    for p in 0..stream::PRODUCTS {
        let product = Product {
            id: ProductId(p),
            seller: SellerId(stream::seller_of(p)),
            name: format!("product-{p}"),
            category: "bench".into(),
            description: format!("generated product {p}"),
            price: Money::from_cents(1_000 + 37 * p as i64),
            freight_value: Money::from_cents(100 + p as i64),
            version: 0,
            active: true,
        };
        platform
            .ingest_product(product, stream::INITIAL_STOCK)
            .expect("ingest product");
    }
    platform.quiesce();
}

/// Starts the event engine in front of `platform`.
pub fn serve(platform: Arc<dyn MarketplacePlatform>) -> HttpServer {
    HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::new(platform)),
        EventConfig {
            workers: CLIENTS,
            ..EventConfig::default()
        },
    )
}

/// A fresh, empty directory for one cell's durable state, under the
/// working directory so it sits on the real disk and inside the checkout.
pub fn fresh_data_dir(workload: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = crate::out_dir().join(format!("data-{workload}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the data directory");
    dir
}
