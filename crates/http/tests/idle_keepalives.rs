//! Thousands of idle keep-alive connections cost the engine no thread.
//!
//! Alone in its test binary, so the process's thread count moves only
//! with the engine's.

use om_http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use om_marketplace::EventualPlatform;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IDLE: usize = 4096;

/// OS threads of this process (0 where `/proc` is unavailable).
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |dir| dir.count())
}

/// Polls `cond` until it holds or `deadline` elapses.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let give_up = Instant::now() + deadline;
    while Instant::now() < give_up {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn idle_keepalives_add_no_thread_and_still_drain_and_shut_down_promptly() {
    let cfg = EventConfig::default();
    // One loop per core this thread may use, at most `workers`.
    let loops = std::thread::available_parallelism()
        .map_or(cfg.workers, |cores| cfg.workers.min(cores.get()));
    let server = HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::new(Arc::new(EventualPlatform::new(
            Default::default(),
        )))),
        cfg,
    );
    let threads_before = os_threads();

    let mut idle = Vec::with_capacity(IDLE);
    for i in 1..=IDLE {
        idle.push(server.connect_raw());
        // Keep the un-registered backlog under the default accept queue.
        if i % 512 == 0 {
            assert!(
                wait_until(Duration::from_secs(10), || server.stats().live_connections == i),
                "loops stopped registering: {:?}",
                server.stats()
            );
        }
    }
    let stats = server.stats();
    assert_eq!(stats.shed_accept, 0);
    assert_eq!(stats.engine_threads, loops);
    assert_eq!(os_threads(), threads_before, "idle connections added threads");

    // The loops still answer a fresh connection.
    let mut fresh = server.connect();
    assert_eq!(fresh.request(Method::Get, "/health", None).unwrap().status, 200);
    fresh.close();

    for conn in &idle {
        conn.close();
    }
    drop(idle);
    assert!(
        wait_until(Duration::from_secs(10), || server.stats().live_connections == 0),
        "closed connections were not retired: {:?}",
        server.stats()
    );

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}
