//! Every seller's dashboard answer, pinned byte for byte, on five cells.
//!
//! One thread drives seeded checkouts from 48 customers, with carts that
//! span sellers, and a few delivery rounds, one operation at a time with
//! `quiesce()` after each: on Customized over the snapshot isolation
//! backend, on Eventual, Transactional and Dataflow over their memory
//! backends, and on Dataflow over the file-durable backend. Order ids are
//! `customer × ORDERS_PER_CUSTOMER + seq`, so 48 customers place every
//! seller's entries in several order-id ranges. Each seller's dashboard is
//! then encoded as the gateway answers it (`seller_dashboard_json`), and
//! `dashboard_bytes.golden` holds one section per cell, a `== <binding>
//! <backend>` line, then one line per seller: its entry count and an
//! FNV-1a digest of those bytes, which must also be serde's bytes of the
//! typed dashboard. The golden was generated once and checked in: a
//! difference is a change of what a dashboard answers (its entries, their
//! order or the aggregate), not a fixture to regenerate.
//!
//! The same history, then a seller's re-ingest and more checkouts, runs on
//! every binding over its memory backend and on Customized over the
//! eventual and file-durable backends: on each, the JSON dashboard of
//! every seller is serde's bytes of the typed one.

use om_common::config::BackendKind;
use om_common::entity::{Customer, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::rng::SplitMix64;
use om_common::{Money, OmError};
use om_marketplace::api::{CheckoutItem, CheckoutRequest, MarketplacePlatform};
use om_marketplace::{build_platform, PlatformKind, PlatformSpec};

const SELLERS: u64 = 6;
const PRODUCTS: u64 = 30;
const CUSTOMERS: u64 = 48;
const CHECKOUTS: u64 = 240;

fn product(id: u64) -> Product {
    Product {
        id: ProductId(id),
        seller: SellerId((id - 1) % SELLERS + 1),
        name: format!("product-{id}"),
        category: "test".into(),
        description: String::new(),
        price: Money::from_cents(100 + 7 * id as i64),
        freight_value: Money::from_cents(10),
        version: 0,
        active: true,
    }
}

/// FNV-1a over `bytes`.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn seller(s: u64) -> Seller {
    Seller::new(SellerId(s), format!("s{s}"), "c".into())
}

/// A platform of `spec` after the seeded history: ingestion, then
/// [`CHECKOUTS`] checkouts with a delivery round after every 40th.
fn seeded(spec: &PlatformSpec) -> Box<dyn MarketplacePlatform> {
    let platform = build_platform(spec);
    for s in 1..=SELLERS {
        platform.ingest_seller(seller(s)).unwrap();
    }
    for c in 1..=CUSTOMERS {
        let customer = Customer::new(CustomerId(c), format!("c{c}"), "a".into());
        platform.ingest_customer(customer).unwrap();
    }
    for p in 1..=PRODUCTS {
        platform.ingest_product(product(p), 1_000_000).unwrap();
    }
    platform.quiesce();
    check_out(platform.as_ref(), &mut SplitMix64::new(63), CHECKOUTS);
    platform
}

/// `checkouts` seeded checkouts from `rng`, with a delivery round after
/// every 40th, each followed by `quiesce()`.
fn check_out(platform: &dyn MarketplacePlatform, rng: &mut SplitMix64, checkouts: u64) {
    for n in 1..=checkouts {
        let customer = CustomerId(rng.range_inclusive(1, CUSTOMERS));
        for _ in 0..rng.range_inclusive(2, 4) {
            let p = product(rng.range_inclusive(1, PRODUCTS));
            let item = CheckoutItem {
                seller: p.seller,
                product: p.id,
                quantity: rng.range_inclusive(1, 3) as u32,
            };
            platform.add_to_cart(customer, item).unwrap();
        }
        let method = if rng.chance(0.3) {
            PaymentMethod::Voucher
        } else {
            PaymentMethod::CreditCard
        };
        platform
            .checkout(CheckoutRequest {
                customer,
                items: vec![],
                method,
            })
            .unwrap();
        platform.quiesce();
        if n % 40 == 0 {
            platform.update_delivery(3).unwrap();
            platform.quiesce();
        }
    }
}

/// Every seller's JSON dashboard, checked against serde's bytes of the
/// typed one (twice, so the second read is also the one a Customized
/// platform answers from the renders the first left).
fn json_dashboards(platform: &dyn MarketplacePlatform) -> Vec<Vec<u8>> {
    (1..=SELLERS)
        .map(|s| {
            let seller = SellerId(s);
            let typed = serde_json::to_vec(&platform.seller_dashboard(seller).unwrap()).unwrap();
            for _ in 0..2 {
                let json = platform.seller_dashboard_json(seller).unwrap();
                assert!(
                    json == typed,
                    "{:?}: the JSON dashboard of {seller} is not serde's bytes:\n{}\n{}",
                    platform.kind(),
                    String::from_utf8_lossy(&json),
                    String::from_utf8_lossy(&typed)
                );
            }
            typed
        })
        .collect()
}

/// The golden's section of `spec`'s cell: its `== <binding> <backend>`
/// line, then one line per seller, `seller <id> entries <n> <digest>`.
fn dashboards(spec: &PlatformSpec) -> Vec<String> {
    let platform = seeded(spec);
    let mut section = vec![format!(
        "== {} {}",
        spec.kind.label(),
        spec.backend.label()
    )];
    for (json, s) in json_dashboards(platform.as_ref()).into_iter().zip(1..=SELLERS) {
        let dash = platform.seller_dashboard(SellerId(s)).unwrap();
        assert!(dash.is_snapshot_consistent(), "seller {s}: {dash:?}");
        section.push(format!(
            "seller {s} entries {} {:016x}",
            dash.entries.len(),
            digest(&json)
        ));
    }
    section
}

/// Compares the dashboards of `spec`'s cell with its golden section.
fn matches_the_golden(spec: &PlatformSpec) {
    let actual = dashboards(spec);
    let golden = include_str!("dashboard_bytes.golden");
    let expected: Vec<&str> = golden
        .lines()
        .skip_while(|line| *line != actual[0])
        .take(1 + SELLERS as usize)
        .collect();
    assert!(
        actual == expected,
        "{} dashboards answer different bytes:\n{}",
        actual[0],
        actual.join("\n")
    );
}

/// `spec` over its own empty data directory, which `run` may fill.
fn in_data_dir(spec: PlatformSpec, name: &str, run: impl FnOnce(&PlatformSpec)) {
    let dir = std::env::temp_dir().join(format!("om-dashboard-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run(&spec.data_dir(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn customized_dashboards_match_the_golden_bytes() {
    matches_the_golden(
        &PlatformSpec::new(PlatformKind::Customized, BackendKind::SnapshotIsolation).parallelism(2),
    );
}

#[test]
fn eventual_dashboards_match_the_golden_bytes() {
    matches_the_golden(
        &PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual).parallelism(2),
    );
}

#[test]
fn transactional_dashboards_match_the_golden_bytes() {
    matches_the_golden(
        &PlatformSpec::new(PlatformKind::Transactional, BackendKind::SnapshotIsolation)
            .parallelism(2),
    );
}

#[test]
fn dataflow_dashboards_match_the_golden_bytes() {
    matches_the_golden(
        &PlatformSpec::new(PlatformKind::Dataflow, BackendKind::SnapshotIsolation).parallelism(2),
    );
}

#[test]
fn durable_dataflow_dashboards_match_the_golden_bytes() {
    in_data_dir(
        PlatformSpec::new(PlatformKind::Dataflow, BackendKind::FileDurable).parallelism(2),
        "golden",
        matches_the_golden,
    );
}

/// The seeded history, then seller 2's re-ingest and more checkouts: the
/// JSON dashboard is serde's bytes after each, and an unknown seller is
/// `NotFound` from both methods.
fn json_is_serde_bytes(spec: &PlatformSpec) {
    let platform = seeded(spec);
    json_dashboards(platform.as_ref());
    platform.ingest_seller(seller(2)).unwrap();
    platform.quiesce();
    json_dashboards(platform.as_ref());
    check_out(platform.as_ref(), &mut SplitMix64::new(64), 40);
    json_dashboards(platform.as_ref());

    let unknown = SellerId(SELLERS + 1);
    let typed = platform.seller_dashboard(unknown);
    assert!(matches!(typed, Err(OmError::NotFound(_))), "{typed:?}");
    let json = platform.seller_dashboard_json(unknown);
    assert!(matches!(json, Err(OmError::NotFound(_))), "{json:?}");
}

#[test]
fn every_binding_answers_serde_bytes_on_its_memory_backend() {
    for (kind, backend) in [
        (PlatformKind::Eventual, BackendKind::Eventual),
        (PlatformKind::Transactional, BackendKind::SnapshotIsolation),
        (PlatformKind::Customized, BackendKind::SnapshotIsolation),
        (PlatformKind::Dataflow, BackendKind::SnapshotIsolation),
    ] {
        json_is_serde_bytes(&PlatformSpec::new(kind, backend).parallelism(2));
    }
}

#[test]
fn customized_answers_serde_bytes_on_every_backend() {
    json_is_serde_bytes(
        &PlatformSpec::new(PlatformKind::Customized, BackendKind::Eventual).parallelism(2),
    );
    in_data_dir(
        PlatformSpec::new(PlatformKind::Customized, BackendKind::FileDurable).parallelism(2),
        "bytes",
        json_is_serde_bytes,
    );
}
