//! The bytes the JSON printer writes, pinned.
//!
//! `json_props.rs` checks the printer against the parser and the `Value`
//! tree, but both of its sides print through the same printer, so a
//! change in the bytes themselves — a different float or escape form, a
//! stray space, another field order — would pass there. This test lists
//! three encodings of a fixed set of values — compact `to_vec`, the
//! `Display` of their `Value` tree and `to_string_pretty` — and compares
//! the listing with `json_golden.golden`, generated once and checked in.
//! A difference is a change of what the gateway answers, not a fixture
//! to regenerate. The seeded 400-entry seller dashboard is listed as its
//! length and CRC-32; every other value as text.

use om_common::checksum::crc32;
use om_common::entity::{OrderEntry, OrderStatus, SellerDashboard};
use om_common::ids::{OrderId, ProductId, SellerId};
use om_common::rng::SplitMix64;
use om_common::{Money, OmError};
use om_marketplace::api::CheckoutOutcome;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(i64),
    Tuple(u8, String),
    Struct { id: u64, note: Option<String> },
}

#[derive(Serialize)]
struct Empty {}

/// A dashboard of 400 entries drawn from a fixed seed, as consistent as
/// the ones the platform answers with.
fn dashboard() -> SellerDashboard {
    let mut rng = SplitMix64::new(49);
    let statuses = [
        OrderStatus::Invoiced,
        OrderStatus::Paid,
        OrderStatus::InTransit,
    ];
    let entries: Vec<OrderEntry> = (0..400)
        .map(|_| OrderEntry {
            order: OrderId(rng.next_u64() >> rng.next_bounded(64)),
            seller: SellerId(17),
            product: ProductId(rng.next_bounded(100_000)),
            quantity: 1 + rng.next_bounded(10) as u32,
            total_amount: Money::from_cents(rng.range_inclusive(1, 5_000_000) as i64),
            status: *rng.pick(&statuses),
        })
        .collect();
    SellerDashboard {
        seller: SellerId(17),
        in_progress_amount: entries.iter().map(|e| e.total_amount).sum(),
        in_progress_count: entries.len() as u64,
        entries,
    }
}

/// A string with one character of every escape class: each control
/// character, the quote, the backslash, DEL, a line separator, a
/// multi-byte and a non-BMP character.
fn every_escape() -> String {
    let mut s: String = (0u8..0x20).map(char::from).collect();
    s.push_str("\"\\/\u{7f} é \u{2028} 漢 😀 \u{10ffff} plain");
    s
}

/// The three encodings of `value`, or their length and CRC-32 when
/// `digest` is set.
fn encodings<T: Serialize + ?Sized>(listing: &mut String, name: &str, value: &T, digest: bool) {
    let compact = serde_json::to_vec(value).unwrap();
    let display = serde_json::to_value(value)
        .unwrap()
        .to_string()
        .into_bytes();
    let pretty = serde_json::to_string_pretty(value).unwrap().into_bytes();
    for (mode, bytes) in [
        ("compact", compact),
        ("display", display),
        ("pretty", pretty),
    ] {
        if digest {
            let _ = writeln!(
                listing,
                "--- {name} {mode} len={} crc32={:08x}",
                bytes.len(),
                crc32(&bytes)
            );
        } else {
            let text = String::from_utf8(bytes).expect("the printer writes UTF-8");
            let _ = writeln!(listing, "--- {name} {mode}\n{text}");
        }
    }
}

fn listing() -> String {
    let mut out = String::new();
    let l = &mut out;
    encodings(l, "dashboard", &dashboard(), true);
    encodings(
        l,
        "checkout_placed",
        &CheckoutOutcome::Placed {
            order: Some(OrderId(42)),
            total: Some(Money::from_cents(12_345)),
        },
        false,
    );
    encodings(
        l,
        "checkout_placed_unknown",
        &CheckoutOutcome::Placed {
            order: None,
            total: None,
        },
        false,
    );
    encodings(
        l,
        "checkout_rejected",
        &CheckoutOutcome::Rejected("out of stock: \"lamp\"".into()),
        false,
    );
    let error = OmError::NotFound("seller 9".into());
    encodings(
        l,
        "gateway_error",
        &serde_json::json!({ "error": error.label(), "detail": error.to_string() }),
        false,
    );
    let by_id: BTreeMap<u64, &str> = [(0, "zero"), (7, "seven"), (u64::MAX, "max")].into();
    encodings(l, "integer_keys", &by_id, false);
    let by_delta: BTreeMap<i64, bool> = [(i64::MIN, true), (-1, false), (3, true)].into();
    encodings(l, "signed_keys", &by_delta, false);
    encodings(l, "escapes", &every_escape(), false);
    let mut escaped_keys = BTreeMap::new();
    escaped_keys.insert(every_escape(), 1u8);
    escaped_keys.insert("plain".to_string(), 2u8);
    encodings(l, "escaped_keys", &escaped_keys, false);
    encodings(l, "char", &['a', '"', '\n', '漢'], false);
    let floats = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        0.1,
        1e300,
        -2.5e-8,
        123456789.0,
    ];
    encodings(l, "f64", &floats, false);
    encodings(l, "f32", &[0.1f32, f32::NAN, 3.0], false);
    encodings(l, "i64_min", &i64::MIN, false);
    encodings(l, "u64_max", &u64::MAX, false);
    encodings(
        l,
        "integers",
        &(
            0u8,
            9u16,
            10u32,
            99u64,
            100i8,
            -7i16,
            -100i32,
            1_000_000_007i64,
        ),
        false,
    );
    encodings(l, "bools", &(true, false), false);
    encodings(l, "unit", &(), false);
    encodings(l, "unit_variant", &Shape::Unit, false);
    encodings(l, "newtype_variant", &Shape::Newtype(-3), false);
    encodings(l, "tuple_variant", &Shape::Tuple(4, "four".into()), false);
    encodings(
        l,
        "struct_variant",
        &Shape::Struct {
            id: 5,
            note: Some("five".into()),
        },
        false,
    );
    encodings(l, "none", &None::<u8>, false);
    encodings(l, "some", &Some(vec![Some(1u8), None]), false);
    encodings(l, "empty_seq", &Vec::<u8>::new(), false);
    encodings(l, "empty_map", &BTreeMap::<String, u8>::new(), false);
    encodings(l, "empty_struct", &Empty {}, false);
    encodings(
        l,
        "nested",
        &serde_json::json!({"b": [[], {}, [1, {"c": null}]], "a": {"z": "x"}}),
        false,
    );
    out
}

#[test]
fn printer_bytes_match_the_golden_listing() {
    let listing = listing();
    let golden = include_str!("json_golden.golden");
    for (at, (got, want)) in listing.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "the JSON printer's bytes changed at line {}",
            at + 1
        );
    }
    assert_eq!(listing, golden, "the JSON printer's bytes changed");
}
