//! The factory's grain cluster shape: every actor binding runs two silos
//! of `parallelism.div_ceil(2)` workers each (at least one), named
//! `silo{i}-w{j}`, whatever its backend.
//!
//! Alone in its test binary, so every silo worker thread is this test's.

use om_common::config::BackendKind;
use om_marketplace::{build_platform, PlatformKind, PlatformSpec};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The `(silo, worker)` index of every live `silo{i}-w{j}` thread, from
/// `/proc/self/task/*/comm`.
fn silo_workers() -> BTreeSet<(usize, usize)> {
    let mut workers = BTreeSet::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let Ok(comm) = std::fs::read_to_string(task.expect("task entry").path().join("comm"))
        else {
            continue; // the thread exited
        };
        let Some((silo, worker)) = comm
            .trim_end()
            .strip_prefix("silo")
            .and_then(|rest| rest.split_once("-w"))
        else {
            continue;
        };
        if let (Ok(silo), Ok(worker)) = (silo.parse(), worker.parse()) {
            workers.insert((silo, worker));
        }
    }
    workers
}

/// The live silo workers once they equal `expected`, or after 5 s. A
/// worker names itself as it starts, and a joined worker's task can
/// linger in `/proc` for a moment after the join returns.
fn settle_to(expected: &BTreeSet<(usize, usize)>) -> BTreeSet<(usize, usize)> {
    let give_up = Instant::now() + Duration::from_secs(5);
    let mut workers = silo_workers();
    while workers != *expected && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
        workers = silo_workers();
    }
    workers
}

#[test]
fn actor_bindings_run_two_silos_of_half_the_parallelism() {
    for kind in [
        PlatformKind::Eventual,
        PlatformKind::Transactional,
        PlatformKind::Customized,
    ] {
        for parallelism in 1..=4 {
            let spec =
                PlatformSpec::new(kind, BackendKind::SnapshotIsolation).parallelism(parallelism);
            let per_silo = parallelism.div_ceil(2);
            let expected: BTreeSet<_> = (0..2)
                .flat_map(|silo| (0..per_silo).map(move |worker| (silo, worker)))
                .collect();
            let platform = build_platform(&spec);
            assert_eq!(
                settle_to(&expected),
                expected,
                "{} at parallelism {parallelism}",
                spec.label()
            );
            // Dropping the platform joins its workers before the next cell.
            drop(platform);
            let none = BTreeSet::new();
            assert_eq!(settle_to(&none), none, "{} left workers", spec.label());
        }
    }
}
