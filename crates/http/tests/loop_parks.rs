//! An event loop parks once per round trip: a client's read of a
//! response that went out whole marks nothing, so only the next request
//! wakes the loop.
//!
//! Alone in its test binary, so `om-http-loop-0` names one thread.

use om_common::config::BackendKind;
use om_http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use om_marketplace::{EventualPlatform, PlatformKind, PlatformSpec};
use std::sync::Arc;

const ROUND_TRIPS: u64 = 5_000;

/// Voluntary context switches of the thread named `name` so far, from
/// `/proc/self/task/*/status`.
fn voluntary_switches(name: &str) -> Option<u64> {
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        if status
            .lines()
            .any(|l| l.strip_prefix("Name:").map(str::trim) == Some(name))
        {
            return status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse().ok());
        }
    }
    None
}

#[test]
fn the_loop_parks_once_per_round_trip() {
    if !std::path::Path::new("/proc/self/task").exists() {
        eprintln!("skipped: no /proc to read context switches from");
        return;
    }
    let server = HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::new(Arc::new(EventualPlatform::new(
            &PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual),
        )))),
        EventConfig {
            workers: 1,
            ..EventConfig::default()
        },
    );
    let mut client = server.connect();
    // Accepted and served once before counting.
    assert_eq!(
        client.request(Method::Get, "/health", None).unwrap().status,
        200
    );
    let before = voluntary_switches("om-http-loop-0").expect("the loop thread's status");
    for _ in 0..ROUND_TRIPS {
        assert_eq!(
            client.request(Method::Get, "/health", None).unwrap().status,
            200
        );
    }
    let after = voluntary_switches("om-http-loop-0").expect("the loop thread's status");
    let per_round_trip = (after - before) as f64 / ROUND_TRIPS as f64;
    eprintln!("om-http-loop-0: {per_round_trip:.3} voluntary switches per round trip");
    assert!(
        per_round_trip <= 1.25,
        "the loop switched {per_round_trip:.3} times per round trip"
    );
    client.close();
    server.shutdown();
}
