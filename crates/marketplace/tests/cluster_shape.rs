//! The platforms' background threads. Every actor binding's cluster is
//! two silos, which own no thread: the turns no caller runs go to one
//! pool of `parallelism` threads, named `om-actor-{i}`, whatever its
//! backend; the dataflow binding's
//! pump and epoch-group threads are pool threads too. Every one of them
//! runs as `SCHED_BATCH`.
//!
//! Alone in its test binary, so every pool thread named here is this
//! file's.

use om_actor::FaultConfig;
use om_common::config::BackendKind;
use om_marketplace::bindings::actor_grains::build_cluster;
use om_marketplace::{build_platform, PlatformKind, PlatformSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Linux's `SCHED_BATCH`.
const SCHED_BATCH: u32 = 3;

/// The scheduling policy of every live `<prefix>-<i>` thread by its
/// index `i`, from `/proc/self/task/*/{comm,stat}` (field 41).
fn pool_threads(prefix: &str) -> BTreeMap<usize, u32> {
    let mut threads = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let path = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue; // the thread exited
        };
        let Some(Ok(index)) = comm
            .trim_end()
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix('-'))
            .map(str::parse)
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
            continue;
        };
        // Fields after the parenthesised name start at field 3.
        let after_name = &stat[stat.rfind(')').expect("stat has a name") + 1..];
        let policy = after_name.split_whitespace().nth(41 - 3);
        threads.insert(index, policy.expect("policy field").parse().expect("policy"));
    }
    threads
}

/// `prefix`'s live threads once they equal `expected`, or after 5 s. A
/// thread names itself and sets its policy as it starts, and a joined
/// thread's task can linger in `/proc` for a moment after the join.
fn settle_to(prefix: &str, expected: &BTreeMap<usize, u32>) -> BTreeMap<usize, u32> {
    let give_up = Instant::now() + Duration::from_secs(5);
    let mut threads = pool_threads(prefix);
    while threads != *expected && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
        threads = pool_threads(prefix);
    }
    threads
}

/// `n` threads, all `SCHED_BATCH`.
fn batch_threads(n: usize) -> BTreeMap<usize, u32> {
    (0..n).map(|i| (i, SCHED_BATCH)).collect()
}

#[test]
fn actor_bindings_run_two_silos_on_one_pool_of_the_parallelism() {
    for kind in [
        PlatformKind::Eventual,
        PlatformKind::Transactional,
        PlatformKind::Customized,
    ] {
        for parallelism in 1..=4 {
            let spec =
                PlatformSpec::new(kind, BackendKind::SnapshotIsolation).parallelism(parallelism);
            let platform = build_platform(&spec);
            let expected = batch_threads(parallelism);
            assert_eq!(
                settle_to("om-actor", &expected),
                expected,
                "{} at parallelism {parallelism}",
                spec.label()
            );
            // Dropping the platform joins its pool before the next cell.
            drop(platform);
            let none = BTreeMap::new();
            assert_eq!(settle_to("om-actor", &none), none, "{} left threads", spec.label());
        }
    }
    let spec = PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual);
    let cluster = build_cluster(3, FaultConfig::reliable(), spec.storage_backend());
    assert_eq!(cluster.silo_count(), 2);
}

#[test]
fn the_dataflow_pump_and_epoch_groups_run_on_sched_batch_pools() {
    let spec = PlatformSpec::new(PlatformKind::Dataflow, BackendKind::Eventual)
        .parallelism(2)
        .df_workers(2);
    let platform = build_platform(&spec);
    assert_eq!(settle_to("om-df-pump", &batch_threads(1)), batch_threads(1));
    assert_eq!(settle_to("om-df-worker", &batch_threads(1)), batch_threads(1));
    drop(platform);
}
