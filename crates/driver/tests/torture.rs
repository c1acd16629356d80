//! Driver-level crash-consistency torture: the full marketplace
//! dataflow stack — persistent ingress topic, checkpointing runtime,
//! durable state backend — runs a real checkout workload over one
//! recording [`FaultVfs`], then power loss is simulated at recorded
//! write boundaries ([`CrashImage`]). Each image is rebuilt into a
//! fresh platform from the directory alone, quiesced (replaying any
//! in-flight ingress records), and handed to the driver's own auditor:
//!
//! * **conservation** — every stock row still sums to the initial
//!   quantity (`available + reserved + sold`), no units created or
//!   destroyed by the crash;
//! * **atomicity** — no half-applied checkout: every recovered order
//!   has exactly one payment and its packages, no duplicate charges
//!   from replay, no reservation leaks;
//! * **durability floor** — every checkout acked before the boundary
//!   (its ingress records fsynced under `sync_appends`) is present
//!   after recovery;
//! * **liveness** — the recovered platform still serves a checkout.
//!
//! The default run strides the boundary space (the per-crate torture
//! suites already sweep every boundary of the raw stores);
//! `OM_TORTURE_FULL=1` sweeps every boundary with more seeds, and
//! `OM_TORTURE_SEED=<n>` replays a failure. Assertions carry their
//! `seed/boundary` coordinates.

use om_common::entity::{Customer, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::Money;
use om_dataflow::BackendCheckpointStore;
use om_driver::audit::{audit, RuntimeObservations};
use om_log::PersistentTopicOptions;
use om_marketplace::api::{CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketplacePlatform};
use om_marketplace::bindings::dataflow::{
    persistent_ingress_with_vfs, DataflowPlatform, DataflowPlatformConfig,
};
use om_storage::vfs::{CrashImage, FaultVfs, Vfs};
use om_storage::{FileBackend, FileBackendOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const INITIAL_STOCK: u32 = 1_000;
const CHECKOUTS: u64 = 10;

fn full_sweep() -> bool {
    std::env::var_os("OM_TORTURE_FULL").is_some()
}

fn torture_seed() -> u64 {
    std::env::var("OM_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD21_7E7)
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "om-driver-torture-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct DirGuard(PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn backend_options() -> FileBackendOptions {
    FileBackendOptions {
        snapshot_every: 4,
        segment_bytes: 1024,
        sync_commits: true,
        compact_max_deltas: 2,
        compact_ratio_pct: 100,
    }
}

fn ingress_options() -> PersistentTopicOptions {
    PersistentTopicOptions {
        segment_bytes: 1024,
        // A checkout ack must imply its ingress records survive power
        // loss — that is the durability floor the sweep asserts.
        sync_appends: true,
        ..PersistentTopicOptions::default()
    }
}

/// Builds the dataflow platform over an explicit [`Vfs`] — the
/// recording fault vfs during the first life, the real vfs when
/// rebuilding from a crash image.
fn build_platform(dir: &Path, vfs: Arc<dyn Vfs>) -> DataflowPlatform {
    let backend = Arc::new(
        FileBackend::open_with_vfs(dir.join("state"), backend_options(), vfs.clone())
            .expect("state backend opens"),
    );
    DataflowPlatform::new(DataflowPlatformConfig {
        partitions: 2,
        max_batch: 4,
        workers: 1,
        decline_rate: 0.0,
        checkpoint_store: Some(Arc::new(BackendCheckpointStore::new(backend))),
        ingress: Some(
            persistent_ingress_with_vfs(dir.join("ingress"), 2, ingress_options(), vfs)
                .expect("ingress topic opens"),
        ),
    })
}

fn ingest(platform: &dyn MarketplacePlatform) {
    platform
        .ingest_seller(Seller::new(SellerId(1), "acme".into(), "odense".into()))
        .unwrap();
    for c in 1..=4u64 {
        platform
            .ingest_customer(Customer::new(CustomerId(c), format!("c{c}"), "addr".into()))
            .unwrap();
    }
    platform
        .ingest_product(
            Product {
                id: ProductId(1),
                seller: SellerId(1),
                name: "widget".into(),
                category: "cat".into(),
                description: String::new(),
                price: Money::from_cents(500),
                freight_value: Money::ZERO,
                version: 0,
                active: true,
            },
            INITIAL_STOCK,
        )
        .unwrap();
    platform.quiesce();
}

fn checkout(platform: &dyn MarketplacePlatform, customer: u64) -> bool {
    platform
        .add_to_cart(
            CustomerId(customer),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 2,
            },
        )
        .unwrap();
    let outcome = platform
        .checkout(CheckoutRequest {
            customer: CustomerId(customer),
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
        .unwrap();
    matches!(outcome, CheckoutOutcome::Placed { .. })
}

#[test]
fn power_loss_during_checkouts_keeps_the_audit_clean_at_every_boundary() {
    let seeds: Vec<u64> = {
        let n = if full_sweep() { 3 } else { 1 };
        (0..n).map(|i| torture_seed().wrapping_add(i)).collect()
    };
    let root = scratch("dataflow");
    let _g = DirGuard(root.clone());
    let vfs = FaultVfs::new(torture_seed()).recording();
    let shared: Arc<dyn Vfs> = Arc::new(vfs.clone());

    // First life: ingest the catalog, run acked checkouts, record each
    // ack's position in the vfs op log.
    let mut acks: Vec<(u64, usize)> = Vec::new();
    {
        let platform = build_platform(&root, shared.clone());
        ingest(&platform);
        for k in 1..=CHECKOUTS {
            assert!(checkout(&platform, (k % 4) + 1), "checkout {k} placed");
            acks.push((k, vfs.log_len()));
        }
        platform.quiesce();
    }
    let log = vfs.take_log();

    // Boundary sweep: every boundary under OM_TORTURE_FULL, a stride
    // otherwise (the storage/log torture suites already cover every
    // boundary of the raw stores — this test buys end-to-end coverage,
    // not byte-level exhaustiveness, in the default gate).
    let stride = if full_sweep() { 1 } else { log.len().div_ceil(24).max(1) };
    let boundaries: Vec<usize> = (0..=log.len()).step_by(stride).chain([log.len()]).collect();
    eprintln!(
        "torture[driver]: {} ops, {} boundaries x {} seeds (base seed {:#x}; \
         OM_TORTURE_SEED replays, OM_TORTURE_FULL=1 sweeps all)",
        log.len(),
        boundaries.len(),
        seeds.len(),
        torture_seed()
    );

    for &boundary in &boundaries {
        for &seed in &seeds {
            let ctx = format!("seed={seed:#x} boundary={boundary}/{}", log.len());
            let out = scratch("img");
            let _og = DirGuard(out.clone());
            CrashImage::materialize(&log, boundary, seed, &root, &out)
                .unwrap_or_else(|e| panic!("{ctx}: materialize failed: {e}"));
            std::fs::create_dir_all(out.join("state")).unwrap();
            std::fs::create_dir_all(out.join("ingress")).unwrap();

            // Second life: rebuild from the image alone, drain any
            // replayed in-flight ingress records, audit.
            let reborn = build_platform(&out, om_storage::real_vfs());
            reborn.quiesce();
            let snap = reborn
                .snapshot()
                .unwrap_or_else(|e| panic!("{ctx}: recovered platform must snapshot: {e}"));
            let report = audit(
                &snap,
                &reborn.counters(),
                &RuntimeObservations::default(),
                INITIAL_STOCK,
            );
            assert_eq!(
                report.conservation_violations, 0,
                "{ctx}: units created or destroyed by the crash"
            );
            assert_eq!(
                report.atomicity_violations, 0,
                "{ctx}: half-applied checkout survived recovery"
            );
            assert_eq!(report.ordering_violations, 0, "{ctx}: payment/shipment order broken");

            let orders = snap.orders.len() as u64;
            assert!(orders <= CHECKOUTS, "{ctx}: recovery invented orders");
            let floor = acks
                .iter()
                .filter(|(_, at)| *at <= boundary)
                .map(|(k, _)| *k)
                .max()
                .unwrap_or(0);
            assert!(
                orders >= floor,
                "{ctx}: acked checkout lost — recovered {orders} orders < floor {floor}"
            );
            assert_eq!(
                snap.payments.len() as u64,
                orders,
                "{ctx}: exactly one payment per recovered order"
            );

            // The recovered platform keeps serving, provided enough of
            // the catalog survived the crash to sell anything at all (a
            // boundary mid-ingest can legitimately leave the product
            // without its stock row, or no customers yet).
            let sellable = !snap.sellers.is_empty()
                && !snap.products.is_empty()
                && snap.stock.iter().any(|s| s.item.qty_available >= 2);
            if sellable && !snap.customers.is_empty() {
                let customer = snap.customers[0].id.0;
                assert!(checkout(&reborn, customer), "{ctx}: post-recovery checkout placed");
                reborn.quiesce();
                assert_eq!(
                    reborn.snapshot().unwrap().orders.len() as u64,
                    orders + 1,
                    "{ctx}: post-recovery checkout landed exactly once"
                );
            }
        }
    }
}
