//! The Customized dashboard's answer, pinned byte for byte.
//!
//! One thread drives seeded checkouts from 48 customers, with carts that
//! span sellers, and a few delivery rounds, one operation at a time with
//! `quiesce()` after each, on the Customized binding over the snapshot
//! isolation backend. Order ids are `customer × ORDERS_PER_CUSTOMER +
//! seq`, so 48 customers place every seller's entries in several order-id
//! ranges. Each seller's dashboard is then encoded as the gateway answers
//! it (JSON), and `dashboard_bytes.golden` lists one line per seller: its
//! entry count and an FNV-1a digest of those bytes. The golden was
//! generated once and checked in: a difference is a change of what a
//! dashboard answers (its entries, their order or the aggregate), not a
//! fixture to regenerate.

use om_common::config::BackendKind;
use om_common::entity::{Customer, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::rng::SplitMix64;
use om_common::Money;
use om_marketplace::api::{CheckoutItem, CheckoutRequest};
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

/// One line per seller: `seller <id> entries <n> <digest>`.
fn dashboards() -> Vec<String> {
    let spec =
        PlatformSpec::new(PlatformKind::Customized, BackendKind::SnapshotIsolation).parallelism(2);
    let platform = build_platform(&spec);
    for s in 1..=SELLERS {
        platform
            .ingest_seller(Seller::new(SellerId(s), format!("s{s}"), "c".into()))
            .unwrap();
    }
    for c in 1..=CUSTOMERS {
        let customer = Customer::new(CustomerId(c), format!("c{c}"), "a".into());
        platform.ingest_customer(customer).unwrap();
    }
    for p in 1..=PRODUCTS {
        platform.ingest_product(product(p), 1_000_000).unwrap();
    }
    platform.quiesce();

    let mut rng = SplitMix64::new(63);
    for n in 1..=CHECKOUTS {
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

    (1..=SELLERS)
        .map(|s| {
            let dash = platform.seller_dashboard(SellerId(s)).unwrap();
            assert!(dash.is_snapshot_consistent(), "seller {s}: {dash:?}");
            let json = serde_json::to_vec(&dash).unwrap();
            format!(
                "seller {s} entries {} {:016x}",
                dash.entries.len(),
                digest(&json)
            )
        })
        .collect()
}

#[test]
fn customized_dashboards_match_the_golden_bytes() {
    let expected: Vec<&str> = include_str!("dashboard_bytes.golden").lines().collect();
    let actual = dashboards();
    assert!(
        actual == expected,
        "a Customized dashboard answers different bytes:\n{}",
        actual.join("\n")
    );
}
