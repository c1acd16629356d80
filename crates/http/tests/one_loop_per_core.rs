//! The engine starts no more event loops than the cores the thread that
//! starts it may run on.
//!
//! Alone in its test binary, so no other server's `om-http-loop-1` can
//! be among this process's threads.

use om_common::config::BackendKind;
use om_http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use om_marketplace::{EventualPlatform, PlatformKind, PlatformSpec};
use std::sync::Arc;

/// Linux's `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Lets the calling thread, and every thread it spawns from now on, run
/// on the first CPU it is allowed only.
fn pin_to_first_allowed_cpu() {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t` of the size passed;
    // pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    assert_eq!(got, 0, "sched_getaffinity failed");
    let cpu = (0..1024)
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .expect("at least one allowed CPU");
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t` of the size passed; pid 0 names
    // the calling thread, and the call changes only where it may run.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    assert_eq!(set, 0, "sched_setaffinity failed");
}

/// Names of this process's threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn a_server_started_on_one_core_runs_one_loop() {
    pin_to_first_allowed_cpu();
    let server = HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::new(Arc::new(EventualPlatform::new(
            &PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual),
        )))),
        EventConfig {
            workers: 2,
            ..EventConfig::default()
        },
    );
    let mut clients = [server.connect(), server.connect()];
    for _ in 0..10 {
        for client in &mut clients {
            assert_eq!(
                client.request(Method::Get, "/health", None).unwrap().status,
                200
            );
        }
    }
    let stats = server.stats();
    assert_eq!(stats.live_connections, 2);
    assert_eq!(stats.engine_threads, 1, "one core, one loop");
    let names = thread_names();
    assert!(
        names.iter().any(|n| n == "om-http-loop-0"),
        "threads: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n == "om-http-loop-1"),
        "threads: {names:?}"
    );
    for client in &clients {
        client.close();
    }
    server.shutdown();
}
