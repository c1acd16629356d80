//! Numbers out of range in request bodies are answered, never panicked on.
//!
//! A seeded stream of requests goes to the six body routes of the gateway
//! (ingest seller, customer and product, cart add, checkout, price
//! update) on each of the four bindings over the snapshot backend. Every
//! number in a body is a small value that names existing entities, or one
//! time in four an edge: zero, `u32::MAX` and one past it, `i64::MAX` and
//! one past it, `u64::MAX`, `-1`, `i64::MIN`. A path id is an edge one time
//! in ten. Such a stream once panicked grains (a price near `i64::MAX`
//! times a quantity, a restock past `u32::MAX`, a huge seller id times the
//! package id stride, an ingested counter at `u64::MAX`) and poisoned every
//! later dataflow epoch.
//!
//! The test asserts that no request is answered 5xx, that nothing
//! panics (a panic hook counts panics on any thread, grain turns and
//! dataflow workers included), and that afterwards a fresh customer's
//! checkout of a fresh product still answers 200.

use bytes::Bytes;
use om_common::config::BackendKind;
use om_common::rng::SplitMix64;
use om_http::request::{Headers, Method, Request, Version};
use om_http::MarketplaceGateway;
use om_marketplace::{PlatformKind, PlatformSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

const REQUESTS: usize = 300;

const EDGES: [&str; 8] = [
    "0",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "-1",
    "-9223372036854775808",
];

static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Counts every panic, on any thread, then reports it as usual.
fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            report(info);
        }));
    });
}

fn request(method: Method, path: &str, body: &str) -> Request {
    let mut headers = Headers::new();
    headers.insert("content-type", "application/json");
    Request {
        method,
        path: path.to_string(),
        raw_target: path.to_string(),
        query: Vec::new(),
        version: Version::Http11,
        headers,
        body: Bytes::from(body.as_bytes().to_vec()),
    }
}

/// A number for a body: one in `lo..=hi`, or one time in four an edge.
fn number(rng: &mut SplitMix64, lo: u64, hi: u64) -> String {
    if rng.chance(0.25) {
        rng.pick(&EDGES).to_string()
    } else {
        rng.range_inclusive(lo, hi).to_string()
    }
}

/// An id for a path: one in `1..=3`, or one time in ten an edge.
fn path_id(rng: &mut SplitMix64) -> String {
    if rng.chance(0.1) {
        rng.pick(&EDGES).to_string()
    } else {
        rng.range_inclusive(1, 3).to_string()
    }
}

fn seller(id: &str, orders: &str, packages: &str, revenue: &str) -> String {
    format!(
        r#"{{"id":{id},"name":"s","city":"c","order_entry_count":{orders},"delivered_package_count":{packages},"revenue":{revenue}}}"#
    )
}

fn customer(id: &str, counts: [&str; 4], spent: &str) -> String {
    let [ok, failed, delivered, abandoned] = counts;
    format!(
        r#"{{"id":{id},"name":"c","address":"a","success_payment_count":{ok},"failed_payment_count":{failed},"delivery_count":{delivered},"abandoned_cart_count":{abandoned},"total_spent":{spent}}}"#
    )
}

fn product(
    id: &str,
    seller: &str,
    price: &str,
    freight: &str,
    version: &str,
    stock: &str,
) -> String {
    format!(
        r#"{{"product":{{"id":{id},"seller":{seller},"name":"p","category":"c","description":"","price":{price},"freight_value":{freight},"version":{version},"active":true}},"initial_stock":{stock}}}"#
    )
}

fn item(seller: &str, product: &str, quantity: &str) -> String {
    format!(r#"{{"seller":{seller},"product":{product},"quantity":{quantity}}}"#)
}

/// One request of the stream.
fn next_request(rng: &mut SplitMix64) -> Request {
    let route = rng.next_bounded(6);
    let mut n = |lo, hi| number(rng, lo, hi);
    match route {
        0 => request(
            Method::Post,
            "/ingest/sellers",
            &seller(&n(1, 3), &n(0, 2), &n(0, 2), &n(0, 1000)),
        ),
        1 => {
            let counts = [n(0, 2), n(0, 2), n(0, 2), n(0, 2)];
            let counts = counts.each_ref().map(String::as_str);
            request(
                Method::Post,
                "/ingest/customers",
                &customer(&n(1, 3), counts, &n(0, 1000)),
            )
        }
        2 => request(
            Method::Post,
            "/ingest/products",
            &product(
                &n(1, 3),
                &n(1, 3),
                &n(100, 1000),
                &n(0, 100),
                &n(0, 2),
                &n(10, 1000),
            ),
        ),
        3 => {
            let body = item(&n(1, 3), &n(1, 3), &n(1, 3));
            let path = format!("/customers/{}/cart/items", path_id(rng));
            request(Method::Post, &path, &body)
        }
        4 => {
            let body = format!(
                r#"{{"items":[{}],"method":"CreditCard"}}"#,
                item(&n(1, 3), &n(1, 3), &n(1, 3))
            );
            let path = format!("/customers/{}/checkout", path_id(rng));
            request(Method::Post, &path, &body)
        }
        _ => {
            let body = format!(r#"{{"price":{}}}"#, n(100, 1000));
            let path = format!("/products/{}/{}/price", path_id(rng), path_id(rng));
            request(Method::Patch, &path, &body)
        }
    }
}

/// Ingests seller, product and customer `id` with plain numbers, adds
/// one unit to the customer's cart and checks it out.
fn fresh_checkout(gateway: &MarketplaceGateway, id: u64) -> u16 {
    let id_text = id.to_string();
    let ingest = [
        ("/ingest/sellers", seller(&id_text, "0", "0", "0")),
        ("/ingest/customers", customer(&id_text, ["0"; 4], "0")),
        (
            "/ingest/products",
            product(&id_text, &id_text, "500", "10", "0", "100"),
        ),
    ];
    for (path, body) in ingest {
        let status = gateway.handle(&request(Method::Post, path, &body)).status;
        assert_eq!(status, 201, "{path} {body}");
    }
    // The eventual binding replicates the product to the cart side
    // after the ingest answers.
    gateway.platform().quiesce();
    let cart = format!("/customers/{id}/cart/items");
    let add = request(Method::Post, &cart, &item(&id_text, &id_text, "1"));
    assert_eq!(gateway.handle(&add).status, 204, "{cart}");
    let checkout = format!("/customers/{id}/checkout");
    let body = r#"{"items":[],"method":"CreditCard"}"#;
    gateway
        .handle(&request(Method::Post, &checkout, body))
        .status
}

fn drive(kind: PlatformKind, seed: u64) {
    let spec = PlatformSpec::new(kind, BackendKind::SnapshotIsolation).parallelism(2);
    let gateway = MarketplaceGateway::for_spec(&spec);
    for id in 1..=3 {
        assert!(
            fresh_checkout(&gateway, id) < 300,
            "{kind:?}: setup of {id}"
        );
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..REQUESTS {
        let req = next_request(&mut rng);
        let resp = gateway.handle(&req);
        assert!(
            resp.status < 500,
            "{kind:?}: {} {} {:?} answered {} {}",
            req.method,
            req.path,
            String::from_utf8_lossy(&req.body),
            resp.status,
            String::from_utf8_lossy(&resp.body)
        );
    }
    gateway.platform().quiesce();
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "{kind:?}: a request panicked"
    );
    assert_eq!(
        fresh_checkout(&gateway, 900),
        200,
        "{kind:?}: a fresh customer's checkout"
    );
    gateway.platform().quiesce();
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "{kind:?}: a request panicked"
    );
}

#[test]
fn out_of_range_numbers_are_answered_on_every_binding() {
    count_panics();
    for (seed, kind) in [
        PlatformKind::Eventual,
        PlatformKind::Transactional,
        PlatformKind::Dataflow,
        PlatformKind::Customized,
    ]
    .into_iter()
    .enumerate()
    {
        drive(kind, 64 + seed as u64);
    }
}
