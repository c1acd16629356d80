//! The JSON encoder the gateway answers with, checked against the
//! `Value` tree it replaced on the typed path.
//!
//! `serde_json::to_vec` streams a typed value straight into bytes;
//! `serde_json::to_value` still builds the tree. For any typed value the
//! two must describe the same document: parsing the streamed bytes gives
//! the tree (`Value` objects are key-sorted maps, so the comparison does
//! not depend on field order). The last test sends a seller dashboard the
//! whole way — `Response::json` → wire → `parse_response` → `json_body`.

use bytes::BytesMut;
use om_common::entity::{OrderEntry, OrderStatus, SellerDashboard};
use om_common::ids::{OrderId, ProductId, SellerId};
use om_common::Money;
use om_http::request::ParserConfig;
use om_http::response::{parse_response, Response};
use proptest::prelude::*;
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Serialize)]
struct Wrapper(u32);

#[derive(Debug, Clone, Serialize)]
struct Marker;

#[derive(Debug, Clone, Serialize)]
enum Shape {
    Unit,
    Newtype(i64),
    Tuple(u8, String),
    Struct { id: u64, note: Option<String> },
}

#[derive(Debug, Clone, Serialize)]
struct Inner {
    flag: bool,
    ratio: f64,
    small: f32,
    letter: char,
    shape: Shape,
    nothing: (),
    marker: Marker,
}

/// Fields deliberately not in alphabetical order.
#[derive(Debug, Clone, Serialize)]
struct Outer {
    zulu: i64,
    alpha: u64,
    name: String,
    inner: Inner,
    maybe: Option<Inner>,
    shapes: Vec<Shape>,
    by_id: BTreeMap<u64, String>,
    by_delta: BTreeMap<i64, Wrapper>,
    by_name: HashMap<String, Vec<i32>>,
    pair: (u8, String),
    wrapped: Wrapper,
}

/// Strings over the characters a JSON string has to treat specially:
/// quotes, backslashes, every kind of control character, multi-byte and
/// non-BMP code points.
fn text() -> impl Strategy<Value = String> {
    let alphabet = vec![
        'a',
        'Z',
        ' ',
        '/',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{8}',
        '\u{c}',
        '\u{0}',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '漢',
        '\u{2028}',
        '😀',
        '\u{10ffff}',
    ];
    prop::collection::vec(prop::sample::select(alphabet), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Unit),
        any::<i64>().prop_map(Shape::Newtype),
        (any::<u8>(), text()).prop_map(|(n, s)| Shape::Tuple(n, s)),
        (any::<u64>(), prop::option::of(text())).prop_map(|(id, note)| Shape::Struct { id, note }),
    ]
}

fn inner() -> impl Strategy<Value = Inner> {
    (
        any::<bool>(),
        any::<f64>(),
        any::<f32>(),
        any::<char>(),
        shape(),
    )
        .prop_map(|(flag, ratio, small, letter, shape)| Inner {
            flag,
            ratio,
            small,
            letter,
            shape,
            nothing: (),
            marker: Marker,
        })
}

fn outer() -> impl Strategy<Value = Outer> {
    (
        (
            any::<i64>(),
            any::<u64>(),
            text(),
            inner(),
            prop::option::of(inner()),
        ),
        prop::collection::vec(shape(), 0..4),
        prop::collection::btree_map(any::<u64>(), text(), 0..4),
        prop::collection::btree_map(any::<i64>(), any::<u32>().prop_map(Wrapper), 0..4),
        prop::collection::btree_map(text(), prop::collection::vec(any::<i32>(), 0..3), 0..4),
        (any::<u8>(), text(), any::<u32>()),
    )
        .prop_map(
            |((zulu, alpha, name, inner, maybe), shapes, by_id, by_delta, by_name, tail)| Outer {
                zulu,
                alpha,
                name,
                inner,
                maybe,
                shapes,
                by_id,
                by_delta,
                by_name: by_name.into_iter().collect(),
                pair: (tail.0, tail.1),
                wrapped: Wrapper(tail.2),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The streamed bytes parse to the tree `to_value` builds.
    #[test]
    fn streamed_bytes_parse_to_the_value_tree(value in outer()) {
        let tree = serde_json::to_value(&value).unwrap();
        let bytes = serde_json::to_vec(&value).unwrap();
        prop_assert_eq!(serde_json::from_slice::<Value>(&bytes).unwrap(), tree.clone());
        // The same printer writes a tree, key-sorted, and reparses to it.
        let printed = serde_json::to_vec(&tree).unwrap();
        prop_assert_eq!(printed.len(), bytes.len(), "same document, same length");
        prop_assert_eq!(serde_json::from_slice::<Value>(&printed).unwrap(), tree);
    }
}

#[test]
fn integer_extremes_are_written_in_full() {
    let extremes = (i64::MIN, i64::MAX, u64::MAX, 0u64, -1i8);
    assert_eq!(
        serde_json::to_string(&extremes).unwrap(),
        "[-9223372036854775808,9223372036854775807,18446744073709551615,0,-1]"
    );
    let tree = serde_json::to_value(&extremes).unwrap();
    let bytes = serde_json::to_vec(&extremes).unwrap();
    assert_eq!(serde_json::from_slice::<Value>(&bytes).unwrap(), tree);
}

/// A non-finite float has no JSON form: both paths answer `null`.
#[test]
fn non_finite_floats_become_null_on_both_paths() {
    #[derive(Serialize)]
    struct Reading {
        value: f64,
        small: f32,
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let reading = Reading {
            value: bad,
            small: bad as f32,
        };
        assert_eq!(
            serde_json::to_string(&reading).unwrap(),
            r#"{"value":null,"small":null}"#
        );
        assert_eq!(
            serde_json::to_value(&reading).unwrap(),
            json!({"value": null, "small": null})
        );
    }
}

/// Typed structs print their fields as declared; a `Value` object and
/// the pretty printer (which goes through one) print them key-sorted.
#[test]
fn field_order_is_declaration_order_for_structs_and_sorted_for_values() {
    #[derive(Serialize)]
    struct Row {
        zulu: u8,
        alpha: Vec<u8>,
        mike: BTreeMap<String, u8>,
    }
    let row = Row {
        zulu: 1,
        alpha: vec![2, 3],
        mike: BTreeMap::new(),
    };
    assert_eq!(
        serde_json::to_string(&row).unwrap(),
        r#"{"zulu":1,"alpha":[2,3],"mike":{}}"#
    );
    let tree = serde_json::to_value(&row).unwrap();
    assert_eq!(tree.to_string(), r#"{"alpha":[2,3],"mike":{},"zulu":1}"#);
    assert_eq!(
        serde_json::to_string_pretty(&row).unwrap(),
        "{\n  \"alpha\": [\n    2,\n    3\n  ],\n  \"mike\": {},\n  \"zulu\": 1\n}"
    );
}

/// A 400-entry dashboard — the benchmark's typical large answer — makes
/// the whole trip unchanged.
#[test]
fn seller_dashboard_roundtrips_through_the_wire() {
    let entries: Vec<OrderEntry> = (0..400u64)
        .map(|i| OrderEntry {
            order: OrderId(1_000_000 + i * 7),
            seller: SellerId(17),
            product: ProductId(170_000 + i % 40),
            quantity: 1 + (i % 5) as u32,
            total_amount: Money::from_cents(1_999 + i as i64 * 13),
            status: if i % 3 == 0 {
                OrderStatus::Invoiced
            } else {
                OrderStatus::InTransit
            },
        })
        .collect();
    let dashboard = SellerDashboard {
        seller: SellerId(17),
        in_progress_amount: entries.iter().map(|e| e.total_amount).sum(),
        in_progress_count: entries.len() as u64,
        entries,
    };
    assert!(dashboard.is_snapshot_consistent());

    let response = Response::json(200, &dashboard);
    assert_eq!(response.body, serde_json::to_vec(&dashboard).unwrap());
    let mut wire = BytesMut::new();
    response.write_to(&mut wire);
    let received = parse_response(&mut wire, &ParserConfig::default())
        .unwrap()
        .expect("a whole response");
    assert!(wire.is_empty());
    assert_eq!(received.body.len(), response.body.len());
    let back: SellerDashboard = received.json_body().unwrap();
    assert_eq!(back, dashboard);
}
