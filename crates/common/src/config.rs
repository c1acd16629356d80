//! Benchmark configuration: scale, workload mix and run parameters.
//!
//! Mirrors the driver configuration of the Online Marketplace benchmark:
//! how much data to generate, which transaction mix to submit, how skewed
//! key selection is, and which data-management criteria to enforce/audit.

use serde::{Deserialize, Serialize};

/// How much data the generator creates before the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleConfig {
    pub sellers: u64,
    /// Products per seller.
    pub products_per_seller: u64,
    pub customers: u64,
    /// Initial stock quantity per product.
    pub initial_stock: u32,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            sellers: 10,
            products_per_seller: 10,
            customers: 100,
            initial_stock: 10_000,
        }
    }
}

impl ScaleConfig {
    pub fn total_products(&self) -> u64 {
        self.sellers * self.products_per_seller
    }

    /// A tiny scale useful in unit tests.
    pub fn tiny() -> Self {
        Self {
            sellers: 2,
            products_per_seller: 5,
            customers: 8,
            initial_stock: 1_000,
        }
    }
}

/// Relative weights of the five business transactions (paper §II).
/// Weights need not sum to 100; they are normalized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    pub checkout: u32,
    pub price_update: u32,
    pub product_delete: u32,
    pub update_delivery: u32,
    pub seller_dashboard: u32,
}

impl Default for WorkloadMix {
    /// Checkout-heavy default mirroring the benchmark's order-processing
    /// focus.
    fn default() -> Self {
        Self {
            checkout: 60,
            price_update: 15,
            product_delete: 5,
            update_delivery: 10,
            seller_dashboard: 10,
        }
    }
}

impl WorkloadMix {
    /// A mix that stresses the anomaly-sensitive paths (used by E4).
    pub fn anomaly_hunting() -> Self {
        Self {
            checkout: 40,
            price_update: 25,
            product_delete: 10,
            update_delivery: 5,
            seller_dashboard: 20,
        }
    }

    pub fn checkout_only() -> Self {
        Self {
            checkout: 100,
            price_update: 0,
            product_delete: 0,
            update_delivery: 0,
            seller_dashboard: 0,
        }
    }

    pub fn total(&self) -> u32 {
        self.checkout
            + self.price_update
            + self.product_delete
            + self.update_delivery
            + self.seller_dashboard
    }
}

/// One of the five Online Marketplace business transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransactionKind {
    Checkout,
    PriceUpdate,
    ProductDelete,
    UpdateDelivery,
    SellerDashboard,
}

impl TransactionKind {
    pub const ALL: [TransactionKind; 5] = [
        TransactionKind::Checkout,
        TransactionKind::PriceUpdate,
        TransactionKind::ProductDelete,
        TransactionKind::UpdateDelivery,
        TransactionKind::SellerDashboard,
    ];

    pub fn label(self) -> &'static str {
        match self {
            TransactionKind::Checkout => "checkout",
            TransactionKind::PriceUpdate => "price_update",
            TransactionKind::ProductDelete => "product_delete",
            TransactionKind::UpdateDelivery => "update_delivery",
            TransactionKind::SellerDashboard => "seller_dashboard",
        }
    }
}

/// Which pluggable [`StateBackend`](https://docs.rs/om_storage) powers a
/// platform's storage layer. The benchmark's platform×backend matrix pairs
/// every binding with every backend, so a platform can be measured against
/// storage disciplines it was not written for (the axis the paper implies
/// but its fixed deployments cannot sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// Per-key last-writer-wins over the sharded KV store with an
    /// asynchronous secondary replica (Redis-style, converges on quiesce).
    Eventual,
    /// Snapshot-isolated MVCC storage: multi-key commits are atomic and
    /// never observable half-applied (PostgreSQL-style).
    SnapshotIsolation,
    /// File-backed durable storage: a write-ahead log plus periodic
    /// snapshots on disk (RocksDB-style). Multi-key commits are written
    /// as one framed WAL batch, so recovery never observes a torn
    /// commit, and the store survives a full process crash — the only
    /// backend whose state outlives the process. See `docs/DURABILITY.md`.
    FileDurable,
}

impl BackendKind {
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Eventual,
        BackendKind::SnapshotIsolation,
        BackendKind::FileDurable,
    ];

    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Eventual => "eventual_kv",
            BackendKind::SnapshotIsolation => "snapshot_isolation",
            BackendKind::FileDurable => "file_durable",
        }
    }

    /// Whether state written through this backend survives a process
    /// crash (reports tag runs with this; see `RunReport::durability`).
    pub fn is_durable(self) -> bool {
        matches!(self, BackendKind::FileDurable)
    }
}

/// Snapshot discipline of the file-durable backend. One value: the
/// field that carries it stays only because the benchmark of record
/// reads it, and goes with the next change to that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotMode {
    /// Snapshots write only the keys dirtied since the previous
    /// snapshot as a `delta-<seq>` file chained from the last full
    /// base — cost proportional to churn, not state size. The first
    /// snapshot and every compaction write a full base.
    Incremental,
}

/// Group-commit discipline of the durable write path. One value: the
/// fields that carry it stay only because the benchmark of record reads
/// and sets them, and go with the next change to that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupCommitPolicy {
    /// Every commit goes through a cohort barrier: committers stage and
    /// park, and one elected leader flushes (and fsyncs) everything
    /// staged as soon as it is elected, releasing the whole cohort.
    Cohort,
}

/// Durability tuning of the [`BackendKind::FileDurable`] backend (and
/// the persistent ingress log), threaded from `RunConfig` through
/// `PlatformSpec`. Ignored by the memory-only backends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DurableOptions {
    /// `fsync` commits before acknowledging them (power-loss
    /// durability). Off by default: commits are flushed to the OS and
    /// survive a *process* crash only.
    pub sync_commits: bool,
    /// The one group-commit policy, [`GroupCommitPolicy::Cohort`].
    pub group_commit: GroupCommitPolicy,
    /// The one snapshot discipline, [`SnapshotMode::Incremental`].
    pub snapshot_mode: SnapshotMode,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            sync_commits: false,
            group_commit: GroupCommitPolicy::Cohort,
            snapshot_mode: SnapshotMode::Incremental,
        }
    }
}

/// One of the adversarial traffic scenarios the driver can shape its
/// workload into (paper §II frames the marketplace as a benchmark for
/// *realistic* microservice traffic — production marketplaces die on
/// skew, not on uniform load).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Thousands of checkouts race ONE product's stock (default
    /// `hot_products = 1`): contention collapses onto a single
    /// grain/row, and checkout successes are bounded by its initial
    /// stock.
    FlashSale,
    /// Price updates storm the hot set while carts are mid-checkout:
    /// carts must observe an old or a new price, never a torn mix.
    PriceStorm,
    /// Seller-dashboard scan storms concurrent with a write-heavy
    /// checkout stream — the consistent-querying criterion under read
    /// pressure.
    DashboardStorm,
    /// Cart abandonment/expiry churn: customers fill carts and walk
    /// away; later checkouts by the same customer sweep up the stale
    /// lines.
    CartChurn,
}

impl ScenarioKind {
    /// Every scenario, in catalogue order.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::FlashSale,
        ScenarioKind::PriceStorm,
        ScenarioKind::DashboardStorm,
        ScenarioKind::CartChurn,
    ];

    /// Stable label for reports and bench ids.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::FlashSale => "flash_sale",
            ScenarioKind::PriceStorm => "price_storm",
            ScenarioKind::DashboardStorm => "dashboard_storm",
            ScenarioKind::CartChurn => "cart_churn",
        }
    }
}

/// A named adversarial scenario plus its skew knobs. Every scenario
/// concentrates its hot transactions on a **hot set**: the
/// `hot_products` most popular ranks of the catalogue, sampled through
/// their own [`Zipfian`](crate::rng::Zipfian) with skew `hot_theta`
/// (`hot_products = 1` pins all heat on a single product regardless of
/// theta).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Which scenario shapes the workload.
    pub kind: ScenarioKind,
    /// Size of the hot set (clamped to the catalogue size at run time;
    /// minimum 1).
    pub hot_products: u64,
    /// Zipfian skew *within* the hot set, in `[0, 1)`.
    pub hot_theta: f64,
    /// Fraction of generated operations aimed at the hot set (the rest
    /// follow the plain background mix), in `[0, 1]`.
    pub hot_fraction: f64,
}

impl ScenarioConfig {
    /// The flash sale: every hot op is a 1-line checkout against a
    /// single product.
    pub fn flash_sale() -> Self {
        Self {
            kind: ScenarioKind::FlashSale,
            hot_products: 1,
            hot_theta: 0.0,
            hot_fraction: 0.95,
        }
    }

    /// Price updates racing carts over a small hot set.
    pub fn price_storm() -> Self {
        Self {
            kind: ScenarioKind::PriceStorm,
            hot_products: 4,
            hot_theta: 0.99,
            hot_fraction: 0.9,
        }
    }

    /// Dashboard scan storm over the hot sellers, checkouts underneath.
    pub fn dashboard_storm() -> Self {
        Self {
            kind: ScenarioKind::DashboardStorm,
            hot_products: 8,
            hot_theta: 0.99,
            hot_fraction: 0.8,
        }
    }

    /// Cart churn: most carts are abandoned, not checked out.
    pub fn cart_churn() -> Self {
        Self {
            kind: ScenarioKind::CartChurn,
            hot_products: 16,
            hot_theta: 0.9,
            hot_fraction: 0.8,
        }
    }

    /// The named default shape for `kind`.
    pub fn named(kind: ScenarioKind) -> Self {
        match kind {
            ScenarioKind::FlashSale => Self::flash_sale(),
            ScenarioKind::PriceStorm => Self::price_storm(),
            ScenarioKind::DashboardStorm => Self::dashboard_storm(),
            ScenarioKind::CartChurn => Self::cart_churn(),
        }
    }

    /// Sets the hot-set size.
    pub fn hot_products(mut self, n: u64) -> Self {
        self.hot_products = n.max(1);
        self
    }

    /// Sets the Zipfian skew within the hot set.
    pub fn hot_theta(mut self, theta: f64) -> Self {
        self.hot_theta = theta;
        self
    }
}

/// Full run configuration of the closed-loop criteria driver
/// (`om_driver::run_benchmark`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    pub seed: u64,
    pub scale: ScaleConfig,
    pub mix: WorkloadMix,
    /// Zipfian skew for product selection; 0 = uniform, 0.99 = YCSB default.
    pub zipf_theta: f64,
    /// Number of concurrent driver workers, each submitting its next
    /// operation only after the previous one completes.
    pub workers: usize,
    /// Measured operations per worker (after warm-up).
    pub ops_per_worker: u64,
    /// Warm-up operations per worker (not measured).
    pub warmup_ops_per_worker: u64,
    /// Items per checkout cart: uniform in [1, max_cart_items].
    pub max_cart_items: u32,
    /// Probability that a payment is declined.
    pub payment_decline_rate: f64,
    /// Storage backend the platform under test is constructed with.
    pub backend: BackendKind,
    /// Checkpoint interval of the dataflow binding, in ingress records
    /// per partition per epoch (smaller = more frequent checkpoints).
    pub checkpoint_interval: usize,
    /// Epoch groups of the dataflow binding's runtime: `0` (default)
    /// resolves to the host core count, and `n` runs every epoch in `n`
    /// groups (capped at the partition count): one on the driving
    /// thread, `n − 1` on long-lived pool threads. Distinct from
    /// [`workers`](Self::workers), which sizes the *driver's* closed
    /// loop. Ignored by the actor bindings.
    pub df_workers: usize,
    /// After the measured window, crash the platform mid-epoch and
    /// measure recovery; the outcome lands in `RunReport::recovery`.
    /// Ignored by platforms without a crash-recovery path.
    pub recovery_drill: bool,
    /// Directory the platform's durable state lives in, for the
    /// [`BackendKind::FileDurable`] backend (WAL + snapshots) and the
    /// dataflow binding's persistent ingress log. `None` places
    /// file-durable state in a scratch directory that is removed when
    /// the backend drops; a concrete path is the cold-restart seam — a
    /// platform rebuilt over the same `data_dir` recovers from disk.
    /// Ignored by the memory-only backends.
    pub data_dir: Option<String>,
    /// Write-path tuning of the file-durable backend (whether commits
    /// are fsynced). Ignored by the memory-only backends.
    pub durable: DurableOptions,
    /// Adversarial traffic scenario shaping the workload (`None` = the
    /// plain mixed workload). See [`ScenarioConfig`].
    pub scenario: Option<ScenarioConfig>,
    /// Chaos-under-load: fire the platform's crash-recovery drill
    /// (the `POST /admin/recovery-drill` path) **mid-measured-window**
    /// instead of after it, proving the audit invariants survive a
    /// crash landing inside live traffic. Ignored by platforms without
    /// an injectable crash path. Distinct from
    /// [`recovery_drill`](Self::recovery_drill), which drills the
    /// quiesced platform after the run.
    pub chaos_drill: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            scale: ScaleConfig::default(),
            mix: WorkloadMix::default(),
            zipf_theta: 0.99,
            workers: 4,
            ops_per_worker: 500,
            warmup_ops_per_worker: 50,
            max_cart_items: 5,
            payment_decline_rate: 0.05,
            backend: BackendKind::Eventual,
            checkpoint_interval: 64,
            df_workers: 0,
            recovery_drill: false,
            data_dir: None,
            durable: DurableOptions::default(),
            scenario: None,
            chaos_drill: false,
        }
    }
}

impl RunConfig {
    /// Scaled-down config for unit/integration tests.
    pub fn smoke() -> Self {
        Self {
            scale: ScaleConfig::tiny(),
            workers: 2,
            ops_per_worker: 50,
            warmup_ops_per_worker: 5,
            ..Self::default()
        }
    }

    pub fn total_measured_ops(&self) -> u64 {
        self.ops_per_worker * self.workers as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RunConfig::default();
        assert!(c.mix.total() > 0);
        assert!(c.scale.total_products() > 0);
        assert!(c.workers > 0);
        assert!((0.0..1.0).contains(&c.payment_decline_rate));
    }

    #[test]
    fn mix_total_and_variants() {
        let m = WorkloadMix::default();
        assert_eq!(
            m.total(),
            m.checkout + m.price_update + m.product_delete + m.update_delivery + m.seller_dashboard
        );
        assert_eq!(WorkloadMix::checkout_only().total(), 100);
        assert!(WorkloadMix::anomaly_hunting().product_delete > 0);
    }

    #[test]
    fn transaction_kind_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            TransactionKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), TransactionKind::ALL.len());
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = RunConfig {
            backend: BackendKind::SnapshotIsolation,
            ..RunConfig::default()
        };
        let s = serde_json::to_string(&c).unwrap();
        let back: RunConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn durable_options_roundtrip() {
        let d = DurableOptions {
            sync_commits: true,
            ..DurableOptions::default()
        };
        let c = RunConfig {
            durable: d,
            ..RunConfig::default()
        };
        let s = serde_json::to_string(&c).unwrap();
        let back: RunConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back.durable, d);
    }

    #[test]
    fn durable_options_default_to_the_one_write_path() {
        let d = DurableOptions::default();
        assert!(!d.sync_commits, "fsync is opt-in");
        assert_eq!(d.group_commit, GroupCommitPolicy::Cohort);
        assert_eq!(d.snapshot_mode, SnapshotMode::Incremental);
        let policy: GroupCommitPolicy =
            serde_json::from_str(&serde_json::to_string(&GroupCommitPolicy::Cohort).unwrap())
                .unwrap();
        assert_eq!(policy, GroupCommitPolicy::Cohort);
        let mode: SnapshotMode =
            serde_json::from_str(&serde_json::to_string(&SnapshotMode::Incremental).unwrap())
                .unwrap();
        assert_eq!(mode, SnapshotMode::Incremental);
    }

    #[test]
    fn retired_write_path_values_are_rejected_on_parse() {
        let json = serde_json::to_string(&DurableOptions::default()).unwrap();
        assert!(json.contains("\"Cohort\"") && json.contains("\"Incremental\""), "{json}");
        // A config naming a removed write path must fail loudly rather
        // than silently run the one that remains.
        for retired in [
            json.replace("\"Cohort\"", "\"Off\""),
            json.replace("\"Cohort\"", "{\"Fixed\":0}"),
            json.replace("\"Incremental\"", "\"Full\""),
        ] {
            assert!(
                serde_json::from_str::<DurableOptions>(&retired).is_err(),
                "accepted {retired}"
            );
        }
    }

    #[test]
    fn scenario_labels_unique_and_named_shapes_roundtrip() {
        let labels: std::collections::HashSet<_> =
            ScenarioKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ScenarioKind::ALL.len());
        for kind in ScenarioKind::ALL {
            let s = ScenarioConfig::named(kind);
            assert_eq!(s.kind, kind);
            assert!(s.hot_products >= 1);
            assert!((0.0..1.0).contains(&s.hot_theta));
            assert!((0.0..=1.0).contains(&s.hot_fraction));
            let json = serde_json::to_string(&s).unwrap();
            let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s);
        }
        assert_eq!(ScenarioConfig::flash_sale().hot_products, 1);
        assert_eq!(
            ScenarioConfig::flash_sale().hot_products(0).hot_products,
            1,
            "hot set never empty"
        );
        assert_eq!(
            ScenarioConfig::price_storm().hot_theta(0.5).hot_theta,
            0.5
        );
    }

    #[test]
    fn scenario_and_chaos_drill_thread_through_run_config_serde() {
        let c = RunConfig {
            scenario: Some(ScenarioConfig::flash_sale()),
            chaos_drill: true,
            ..RunConfig::default()
        };
        let s = serde_json::to_string(&c).unwrap();
        let back: RunConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.scenario.unwrap().kind, ScenarioKind::FlashSale);
        assert!(back.chaos_drill);
        // The default is the plain mixed workload with no drill.
        let d = RunConfig::default();
        assert!(d.scenario.is_none() && !d.chaos_drill);
    }

    #[test]
    fn backend_kind_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            BackendKind::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), BackendKind::ALL.len());
    }
}
