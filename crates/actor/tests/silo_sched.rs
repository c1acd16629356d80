//! Silo workers are background work to the kernel's scheduler
//! (`SCHED_BATCH`), so an event a request handler sends does not preempt
//! the handler on a shared core.
//!
//! Alone in its test binary, so every silo worker thread is this test's.

use om_actor::{Cluster, GrainContext};
use std::time::{Duration, Instant};

/// Linux's `SCHED_BATCH`.
const SCHED_BATCH: u32 = 3;

/// The scheduling policy of each silo worker thread, from field 41 of
/// `/proc/self/task/*/stat`.
fn silo_policies() -> Vec<u32> {
    let mut policies = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let path = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue; // the thread exited
        };
        // `silo{i}-w{j}`; the test's own threads are named after it.
        let worker = comm.strip_prefix("silo").is_some_and(|rest| {
            rest.starts_with(|c: char| c.is_ascii_digit()) && rest.contains("-w")
        });
        if !worker {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
            continue;
        };
        // Fields after the parenthesised name start at field 3.
        let after_name = &stat[stat.rfind(')').expect("stat has a name") + 1..];
        let policy = after_name
            .split_whitespace()
            .nth(41 - 3)
            .expect("policy field");
        policies.push(policy.parse().expect("numeric policy"));
    }
    policies
}

#[test]
fn silo_workers_run_as_sched_batch() {
    let cluster: Cluster<(), u64> = Cluster::builder()
        .silos(2)
        .workers_per_silo(2)
        .register("noop", |_id, _snapshot| {
            Box::new(|_ctx: &mut GrainContext<'_, ()>, _msg: (), _| 0)
        })
        .build();
    // Each worker sets its policy as it starts; give them time to start.
    let give_up = Instant::now() + Duration::from_secs(5);
    let mut policies = silo_policies();
    while policies != [SCHED_BATCH; 4] && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
        policies = silo_policies();
    }
    assert_eq!(
        policies, [SCHED_BATCH; 4],
        "silo workers' scheduling policies"
    );
    drop(cluster);
}
