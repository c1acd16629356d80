//! The gateway's route table, pinned.
//!
//! Every method the parser knows a body for (GET, HEAD, POST, PATCH,
//! DELETE, PUT) is sent to each of the 13 route shapes: with numeric
//! ids, with a non-numeric id in each id position, with a trailing `/`,
//! with doubled `//`, with one segment more and one fewer, plus `/` and
//! an unknown path. Each request goes to a fresh gateway with no body,
//! and the listing records the status, the `allow` header and the
//! body's length and CRC-32. It is compared with `route_table.golden`,
//! generated once and checked in: a difference is a change of what the
//! gateway answers, not a fixture to regenerate.
//!
//! A property then sends random segment lists, each to a fresh gateway:
//! `handle` never panics and answers only the statuses a bodiless
//! request can earn.

use bytes::Bytes;
use om_common::checksum::crc32;
use om_common::config::BackendKind;
use om_http::request::{Headers, Method, Request, Version};
use om_http::MarketplaceGateway;
use om_marketplace::{EventualPlatform, PlatformKind, PlatformSpec};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

const METHODS: [Method; 6] = [
    Method::Get,
    Method::Head,
    Method::Post,
    Method::Patch,
    Method::Delete,
    Method::Put,
];

/// The 13 route shapes with numeric ids; `{}` marks an id segment.
const SHAPES: [&str; 13] = [
    "/ingest/sellers",
    "/ingest/customers",
    "/ingest/products",
    "/customers/{}/cart/items",
    "/customers/{}/checkout",
    "/products/{}/{}/price",
    "/products/{}/{}",
    "/shipments/delivery",
    "/sellers/{}/dashboard",
    "/health",
    "/counters",
    "/admin/recovery-drill",
    "/admin/unwedge",
];

fn gateway() -> MarketplaceGateway {
    MarketplaceGateway::new(Arc::new(EventualPlatform::new(&PlatformSpec::new(
        PlatformKind::Eventual,
        BackendKind::Eventual,
    ))))
}

fn request(method: Method, path: &str) -> Request {
    Request {
        method,
        path: path.to_string(),
        raw_target: path.to_string(),
        query: Vec::new(),
        version: Version::Http11,
        headers: Headers::new(),
        body: Bytes::new(),
    }
}

/// `shape` with its `n`-th id (1-based) as `bad` and every other id
/// numbered from 1; `n == 0` keeps every id numeric.
fn fill(shape: &str, n: usize, bad: &str) -> String {
    let mut out = String::new();
    for (i, part) in shape.split("{}").enumerate() {
        if i > 0 {
            if i == n {
                out.push_str(bad);
            } else {
                let _ = write!(out, "{i}");
            }
        }
        out.push_str(part);
    }
    out
}

fn paths() -> Vec<String> {
    let mut paths = Vec::new();
    for shape in SHAPES {
        let numeric = fill(shape, 0, "");
        paths.push(numeric.clone());
        for n in 1..=shape.matches("{}").count() {
            paths.push(fill(shape, n, "abc"));
        }
        paths.push(format!("{numeric}/"));
        paths.push(numeric.replacen('/', "//", 1));
        paths.push(numeric.replace('/', "//"));
        paths.push(format!("{numeric}/extra"));
        let fewer = &numeric[..numeric.rfind('/').unwrap()];
        paths.push(if fewer.is_empty() { "/" } else { fewer }.to_string());
    }
    paths.push("/".into());
    paths.push("/nope".into());
    paths
}

fn listing() -> String {
    let mut out = String::new();
    for path in paths() {
        for method in METHODS {
            let resp = gateway().handle(&request(method, &path));
            let _ = writeln!(
                out,
                "{method} {path} -> {} allow={} len={} crc32={:08x}",
                resp.status,
                resp.headers.get("allow").unwrap_or("-"),
                resp.body.len(),
                crc32(&resp.body)
            );
        }
    }
    out
}

#[test]
fn every_route_shape_answers_as_the_golden_listing() {
    let listing = listing();
    let golden = include_str!("route_table.golden");
    for (at, (got, want)) in listing.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "the gateway's answer changed at line {}", at + 1);
    }
    assert_eq!(listing, golden, "the gateway's answers changed");
}

fn segment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("ingest".to_string()),
        Just("sellers".to_string()),
        Just("customers".to_string()),
        Just("products".to_string()),
        Just("cart".to_string()),
        Just("items".to_string()),
        Just("checkout".to_string()),
        Just("price".to_string()),
        Just("shipments".to_string()),
        Just("delivery".to_string()),
        Just("dashboard".to_string()),
        Just("health".to_string()),
        Just("counters".to_string()),
        Just("admin".to_string()),
        Just("recovery-drill".to_string()),
        Just("unwedge".to_string()),
        "[0-9]{1,3}",
        "[a-z%é-]{1,6}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the segments, the gateway answers with a status a
    /// bodiless request can earn, and never panics.
    #[test]
    fn prop_random_segment_lists_get_a_defined_status(
        method in 0usize..6,
        segments in prop::collection::vec(segment(), 0..6),
        trailing in any::<bool>(),
    ) {
        let mut path = String::new();
        for s in &segments {
            path.push('/');
            path.push_str(s);
        }
        if trailing || path.is_empty() {
            path.push('/');
        }
        let status = gateway().handle(&request(METHODS[method], &path)).status;
        prop_assert!(
            [200, 201, 204, 400, 404, 405, 422, 501].contains(&status),
            "{} {} -> {}", METHODS[method], path, status
        );
    }
}
