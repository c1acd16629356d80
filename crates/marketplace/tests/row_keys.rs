//! The storage format, pinned: the backend keys that 200 seeded checkouts
//! write on each binding.
//!
//! Every binding persists through a recording in-memory backend while one
//! thread drives 200 checkouts (one `update_delivery` per 20), one
//! operation at a time with `quiesce()` after each. The keys put and the
//! keys deleted are grouped by layout — binding state and row tag — and
//! each group is listed as its key count and a digest of its sorted keys.
//! `row_keys.golden` is that listing, generated once and checked in: a
//! difference is a change of the storage format, not a fixture to
//! regenerate.

use om_common::config::BackendKind;
use om_common::entity::{Customer, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::rng::{SplitMix64, Zipfian};
use om_common::Money;
use om_marketplace::api::{CheckoutItem, CheckoutRequest};
use om_marketplace::{build_platform, PlatformKind, PlatformSpec};
use std::collections::{BTreeMap, BTreeSet};

mod common;
use common::RecordingBackend;

const SELLERS: u64 = 5;
const PRODUCTS: u64 = 20;
const CUSTOMERS: u64 = 40;
const CHECKOUTS: u64 = 200;

/// The layout group of a backend key: whose state it is and the tag of
/// its row (`-` for an entity's root row).
fn group(key: &[u8]) -> String {
    let tag = |row: &[u8]| row.first().map_or('-', |&t| t as char);
    if let Some(rest) = key.strip_prefix(b"df!/s/") {
        // partition (u32 BE), fn-type length (u16 BE), fn-type, key (u64 BE), row
        let len = u16::from_be_bytes([rest[4], rest[5]]) as usize;
        let fn_type = String::from_utf8_lossy(&rest[6..6 + len]);
        return format!("df/{fn_type} {}", tag(&rest[14 + len..]));
    }
    if let Some(rest) = key.strip_prefix(b"cdash!/") {
        // seller (u64 BE), '/', then `a` (aggregate) or `e/` + page
        return format!("cdash {}", rest[9] as char);
    }
    if key.starts_with(b"crep!/") {
        return "crep".into();
    }
    if key == b"df!/meta" {
        return "df/meta".into();
    }
    // A grain: `<kind>/` + key (u64 BE) + row name.
    let slash = key
        .iter()
        .position(|&b| b == b'/')
        .expect("a grain storage key");
    format!(
        "{} {}",
        String::from_utf8_lossy(&key[..slash]),
        tag(&key[slash + 9..])
    )
}

/// FNV-1a over length-prefixed keys.
fn digest<'a>(keys: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for key in keys {
        for &b in (key.len() as u32).to_be_bytes().iter().chain(key) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One line per layout group, sorted: `<binding> <group> <op> <keys>
/// <digest>`.
fn listing(kind: PlatformKind, written: &BTreeSet<(Vec<u8>, bool)>) -> Vec<String> {
    let mut groups: BTreeMap<(String, &str), Vec<&[u8]>> = BTreeMap::new();
    for (key, deleted) in written {
        let op = if *deleted { "del" } else { "put" };
        groups.entry((group(key), op)).or_default().push(key);
    }
    groups
        .into_iter()
        .map(|((group, op), keys)| {
            let n = keys.len();
            format!(
                "{} {group} {op} {n} {:016x}",
                kind.label(),
                digest(keys.into_iter())
            )
        })
        .collect()
}

fn product(id: u64) -> Product {
    Product {
        id: ProductId(id),
        seller: SellerId((id - 1) % SELLERS + 1),
        name: format!("product-{id}"),
        category: "test".into(),
        description: String::new(),
        price: Money::from_cents(100 + id as i64),
        freight_value: Money::from_cents(10),
        version: 0,
        active: true,
    }
}

fn written_keys(kind: PlatformKind) -> Vec<String> {
    let backend = RecordingBackend::new(BackendKind::SnapshotIsolation);
    let spec = PlatformSpec::new(kind, BackendKind::SnapshotIsolation)
        .parallelism(2)
        .df_workers(1)
        .backend_instance(backend.clone());
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

    let mut rng = SplitMix64::new(39);
    let zipf = Zipfian::new(PRODUCTS, 0.99);
    for n in 1..=CHECKOUTS {
        let customer = CustomerId(rng.range_inclusive(1, CUSTOMERS));
        for _ in 0..rng.range_inclusive(1, 3) {
            let p = product(zipf.sample(&mut rng) + 1);
            let quantity = rng.range_inclusive(1, 3) as u32;
            let item = CheckoutItem {
                seller: p.seller,
                product: p.id,
                quantity,
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
        if n % 20 == 0 {
            platform.update_delivery(SELLERS as usize).unwrap();
            platform.quiesce();
        }
    }
    drop(platform);
    // `(key, deleted)` of every write, whichever path it came by.
    let written: BTreeSet<(Vec<u8>, bool)> = backend
        .log()
        .iter()
        .flat_map(|w| &w.ops)
        .map(|op| (op.key.clone(), op.value.is_none()))
        .collect();
    listing(kind, &written)
}

fn keys_match_the_golden_listing(kind: PlatformKind) {
    let expected: Vec<&str> = include_str!("row_keys.golden")
        .lines()
        .filter(|line| line.starts_with(&format!("{} ", kind.label())))
        .collect();
    let actual = written_keys(kind);
    assert!(
        actual == expected,
        "{kind:?} wrote a different key set — the storage format changed:\n{}",
        actual.join("\n")
    );
}

#[test]
fn dataflow_keys_match_the_golden_listing() {
    keys_match_the_golden_listing(PlatformKind::Dataflow);
}

#[test]
fn eventual_keys_match_the_golden_listing() {
    keys_match_the_golden_listing(PlatformKind::Eventual);
}

#[test]
fn transactional_keys_match_the_golden_listing() {
    keys_match_the_golden_listing(PlatformKind::Transactional);
}

#[test]
fn customized_keys_match_the_golden_listing() {
    keys_match_the_golden_listing(PlatformKind::Customized);
}
