//! The dataflow ingress wire format, pinned: the bytes the persistent
//! ingress log writes for one record of every message a client submits.
//!
//! The record codec writes the message with indexed enum variants, so
//! reordering or reshaping a submitted variant would make a restarted
//! platform decode the records an older build left in its ingress log as
//! the wrong message. Each record is appended alone to a fresh
//! one-partition topic and its segment file (the CRC frame around
//! `(producer, seq, payload)`) is listed in hex. `ingress_records.golden`
//! is that listing, generated once and checked in: a difference is a
//! change of the ingress format, not a fixture to regenerate.

use om_common::entity::{CartItem, Customer, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, ProductId, SellerId, StockKey, TransactionId};
use om_common::time::EventTime;
use om_common::Money;
use om_dataflow::Address;
use om_marketplace::bindings::dataflow::persistent_ingress;
use om_marketplace::domain::flow::Msg;

fn product() -> Product {
    Product {
        id: ProductId(7),
        seller: SellerId(3),
        name: "lamp".into(),
        category: "home".into(),
        description: "a lamp".into(),
        price: Money::from_cents(1_999),
        freight_value: Money::from_cents(150),
        version: 0,
        active: true,
    }
}

/// One record of every message the ingress log can hold, named.
fn records() -> Vec<(&'static str, Address, Msg)> {
    let tid = TransactionId(41);
    vec![
        ("ingest_product", Address::new("product", 7), Msg::IngestProduct(product())),
        (
            "ingest_stock",
            Address::new("stock", 7),
            Msg::IngestStock {
                key: StockKey::new(SellerId(3), ProductId(7)),
                qty: 1_000,
            },
        ),
        (
            "ingest_seller",
            Address::new("seller", 3),
            Msg::IngestSeller(Seller::new(SellerId(3), "s3".into(), "porto".into())),
        ),
        (
            "ingest_customer",
            Address::new("customer", 5),
            Msg::IngestCustomer(Customer::new(CustomerId(5), "c5".into(), "rua 1".into())),
        ),
        (
            "cart_add",
            Address::new("cart", 5),
            Msg::CartAdd(CartItem {
                seller: SellerId(3),
                product: ProductId(7),
                quantity: 2,
                unit_price: Money::from_cents(1_999),
                freight_value: Money::from_cents(150),
                product_version: 1,
            }),
        ),
        (
            "checkout",
            Address::new("cart", 5),
            Msg::Checkout {
                tid,
                method: PaymentMethod::Voucher,
                decline_rate_bp: 500,
                at: EventTime(12),
            },
        ),
        (
            "price_update",
            Address::new("product", 7),
            Msg::PriceUpdate {
                price: Money::from_cents(2_100),
            },
        ),
        ("product_delete", Address::new("product", 7), Msg::ProductDelete),
        (
            "delivery_request",
            Address::new("delivery", 42),
            Msg::DeliveryRequest {
                tid: TransactionId(42),
                sellers: vec![SellerId(1), SellerId(3)],
                max: 10,
                at: EventTime(13),
            },
        ),
        (
            "recovery_drill",
            Address::new("recovery_drill", 0),
            Msg::CustomerDelivery,
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The segment bytes one record leaves in a fresh topic: its frames, up
/// to the zero padding of the pre-allocated segment.
fn segment_bytes(scratch: &std::path::Path, name: &str, to: Address, msg: Msg) -> Vec<u8> {
    let dir = scratch.join(name);
    let topic = persistent_ingress(&dir, 1).unwrap();
    topic.append_raw(0, 1, 1, (to, msg)).unwrap();
    drop(topic);
    let mut segments: Vec<_> = std::fs::read_dir(dir.join("p0"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segments.sort();
    segments
        .iter()
        .flat_map(|p| {
            let bytes = std::fs::read(p).unwrap();
            let mut end = 0;
            while let Ok(Some((_, next))) = om_common::checksum::parse_frame(&bytes, end) {
                end = next;
            }
            bytes[..end].to_vec()
        })
        .collect()
}

#[test]
fn ingress_records_match_the_golden_listing() {
    let scratch =
        std::env::temp_dir().join(format!("om-ingress-records-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut listing = String::new();
    for (name, to, msg) in records() {
        let bytes = segment_bytes(&scratch, name, to, msg);
        listing.push_str(&format!("{name} {}\n", hex(&bytes)));
    }
    std::fs::remove_dir_all(&scratch).unwrap();
    assert_eq!(
        listing,
        include_str!("ingress_records.golden"),
        "the ingress wire format changed"
    );
}
